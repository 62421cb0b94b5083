//! Memory budget: how many heap allocations a steady-state payment makes,
//! and how much live heap an opened channel holds.
//!
//! A counting global allocator tallies each thread's allocation calls
//! (`alloc`, `alloc_zeroed` and `realloc`) and the live bytes they hold.
//! A test reads only its own thread's tallies, so tests running in
//! parallel never see each other's allocations. Both numbers are
//! deterministic: the simulation runs on virtual clocks and seeded RNGs.
//!
//! CI runs this suite in release as well:
//! `cargo test --release -p tinyevm --test memory_budget`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tinyevm::channel::ProtocolDriver;
use tinyevm::prelude::*;
use tinyevm::sim::{FleetConfig, FleetScheduler};

/// The system allocator, with per-thread tallies.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// Adds to this thread's tallies; a no-op while the thread's locals are
/// being torn down.
fn tally(allocations: u64, bytes: i64) {
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + allocations));
    let _ = LIVE_BYTES.try_with(|live| live.set(live.get() + bytes));
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the tallies are thread-local `Cell`s that never allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(1, layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(1, layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        tally(0, -(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(1, new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}

/// Allocation calls per acknowledged payment on a long-lived two-party
/// channel, averaged over 1,024 payments after 1,024 of warm-up.
fn allocations_per_payment() -> f64 {
    const WARM_UP: u64 = 1_024;
    const PAYMENTS: u64 = 1_024;
    let mut driver = ProtocolDriver::smart_parking(Wei::from_eth(1));
    driver.publish_template().unwrap();
    driver.open_channel().unwrap();
    let amount = |index: u64| Wei::from(1_000_000 + index % 1_000);
    for index in 0..WARM_UP {
        driver.pay(amount(index)).unwrap();
    }
    let before = allocations();
    for index in WARM_UP..WARM_UP + PAYMENTS {
        driver.pay(amount(index)).unwrap();
    }
    (allocations() - before) as f64 / PAYMENTS as f64
}

/// Live heap bytes per sensor that `open_all` adds to a 256-sensor CSMA
/// fleet: both ends of every channel, the chain's registrations and the
/// fleet's bookkeeping.
fn live_bytes_per_opened_channel() -> f64 {
    const SENSORS: usize = 256;
    // A small fleet kept open beside the measured one holds what channels
    // share (the assembled contract code, this thread's analyses of it),
    // so the measured fleet pays only for what each channel adds.
    let mut shared = FleetScheduler::new(FleetConfig::csma(4, 1));
    shared.open_all().unwrap();
    let mut fleet = FleetScheduler::new(FleetConfig::csma(SENSORS, 1));
    let before = live_bytes();
    fleet.open_all().unwrap();
    (live_bytes() - before) as f64 / SENSORS as f64
}

#[test]
fn a_steady_state_payment_makes_at_most_220_heap_allocations() {
    let per_payment = allocations_per_payment();
    println!("heap allocations per payment: {per_payment:.2}");
    assert!(
        per_payment <= 220.0,
        "{per_payment:.2} allocations per payment"
    );
}

#[test]
fn an_opened_channel_holds_at_most_8200_bytes_of_live_heap() {
    let per_channel = live_bytes_per_opened_channel();
    println!("live heap bytes per opened channel: {per_channel:.0}");
    assert!(
        per_channel <= 8_200.0,
        "{per_channel:.0} B per opened channel"
    );
}
