//! A contending radio medium: many senders, one channel, real collisions.
//!
//! [`SharedMedium`] serializes transmissions the way a TSCH schedule does —
//! one talker per slot, no contention, medium airtime equal to the sum of
//! per-endpoint airtimes. That is the right model for a provisioned
//! schedule but the wrong one for the dense fleets the TinyEVM paper
//! targets, where airtime is the scarce resource precisely *because*
//! senders contend for it. [`ContendingMedium`] wraps a [`SharedMedium`]
//! with a slot-granular medium-access model:
//!
//! * **CSMA/CA** — every ready sender draws a backoff counter uniformly
//!   from its contention window, counts idle slots down, and transmits
//!   when the counter expires; simultaneous expiries collide and double
//!   the losers' windows (binary exponential backoff).
//! * **Capture** — when several frames overlap, the strongest may still be
//!   decoded if it beats the runner-up by the configured power ratio
//!   (drawn from each sender's own seeded process), as real 802.15.4
//!   receivers do.
//! * **Single-slot** — a degenerate contention-free mode that hands every
//!   slot to the lowest-addressed ready sender: exactly the TSCH-style
//!   serialization the legacy drivers assume, used to pin the new
//!   scheduler byte-identical to the old pump.
//!
//! Collisions waste the slot: the wasted airtime is accounted on the
//! medium (never attributed to an endpoint), so the conservation invariant
//! becomes *medium busy time = Σ per-endpoint airtime + collision-wasted
//! airtime*. Every random draw comes from a per-sender splitmix64 stream
//! seeded from the medium seed and the sender's address, so outcomes are
//! deterministic and adding a sensor never perturbs a neighbour's draws.
//!
//! The type implements [`Radio`] by delegating resolved (won) transfers to
//! the inner [`SharedMedium`]; slot arbitration happens outside `convey`,
//! via [`ContendingMedium::resolve_slot`], which is what an event-driven
//! scheduler calls once per virtual-time slot. A run of slots in which no
//! ready sender would draw or transmit (every back-off counter still
//! counting down) resolves in one step through
//! [`ContendingMedium::skip_idle_slots`].
//!
//! Per-sender state lives in a table indexed by the sender's address, so
//! resolving a slot visits each ready sender once, with one index each and
//! no copy of the ready set: a set that arrives in strictly ascending
//! address order, as the fleet scheduler hands it over, is walked in
//! place, and any other set is sorted into a reused buffer first.

use std::time::Duration;

use crate::addr::NodeAddr;
use crate::link::{LinkConfig, TransferReport};
use crate::medium::{endpoint_seed, EndpointStats, MediumError, SharedMedium};
use crate::radio::Radio;
use tinyevm_trace::{TraceEvent, TraceHandle};

/// Medium-access scheme arbitrating each contention slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AccessScheme {
    /// Contention-free: the lowest-addressed ready sender owns the slot.
    /// No randomness, no backoff — the TSCH-style serialization the
    /// legacy lockstep pumps assume.
    SingleSlot,
    /// CSMA/CA with binary exponential backoff: ready senders count a
    /// uniformly drawn backoff down across idle slots and transmit on
    /// expiry; collisions double the window.
    CsmaCa {
        /// Initial (and post-success) contention window, in slots.
        cw_min: u32,
        /// Ceiling the window doubles up to.
        cw_max: u32,
    },
}

/// Configuration of a [`ContendingMedium`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContentionConfig {
    /// The medium-access scheme.
    pub scheme: AccessScheme,
    /// Contention slot length on the virtual clock. A collision wastes
    /// exactly one slot of airtime.
    pub slot: Duration,
    /// Capture threshold: when frames overlap, the strongest is still
    /// decoded if its drawn power beats the runner-up by at least this
    /// ratio. `f64::INFINITY` disables capture; `1.0` means the strongest
    /// always captures.
    pub capture_ratio: f64,
    /// Seed of the per-sender draw streams (power, backoff).
    pub seed: u64,
}

impl ContentionConfig {
    /// CSMA/CA with 802.15.4-flavoured defaults: windows 8..=1024 slots,
    /// 5 ms slots, capture at 4× power.
    pub fn csma(seed: u64) -> Self {
        ContentionConfig {
            scheme: AccessScheme::CsmaCa {
                cw_min: 8,
                cw_max: 1024,
            },
            slot: Duration::from_millis(5),
            capture_ratio: 4.0,
            seed,
        }
    }

    /// The contention-free single-slot schedule (TSCH-style turns).
    pub fn single_slot() -> Self {
        ContentionConfig {
            scheme: AccessScheme::SingleSlot,
            slot: Duration::from_millis(5),
            capture_ratio: f64::INFINITY,
            seed: 0,
        }
    }
}

/// Outcome of one contention slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlotOutcome {
    /// No ready sender elected to transmit.
    Idle,
    /// Exactly one sender transmitted: a clean win.
    Won(NodeAddr),
    /// Two or more senders transmitted at once.
    Collision {
        /// The sender whose frame was still decoded thanks to capture,
        /// if the power ratio cleared the threshold.
        captured: Option<NodeAddr>,
        /// Senders whose frames were destroyed in the overlap.
        lost: Vec<NodeAddr>,
    },
}

/// Per-sender medium-access state: the seeded draw stream, the current
/// contention window and the in-flight backoff counter.
#[derive(Debug, Clone)]
struct SenderState {
    rng: u64,
    cw: u32,
    /// Slots left before this sender's pending frame may transmit
    /// (`None` = no backoff drawn yet for the current frame).
    counter: Option<u32>,
    collisions: u64,
}

impl SenderState {
    /// A sender's state before its first frame: its own draw stream and
    /// the initial contention window.
    fn fresh(config: &ContentionConfig, addr: NodeAddr) -> Self {
        SenderState {
            rng: endpoint_seed(config.seed, addr),
            cw: match config.scheme {
                AccessScheme::CsmaCa { cw_min, .. } => cw_min,
                AccessScheme::SingleSlot => 1,
            },
            counter: None,
            collisions: 0,
        }
    }

    fn next_u64(&mut self) -> u64 {
        // splitmix64 — one multiply-xorshift step per draw.
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn draw_counter(&mut self) -> u32 {
        let window = self.cw.max(1);
        (self.next_u64() % u64::from(window)) as u32
    }
}

/// A [`SharedMedium`] wrapped in a slot-granular contention model.
#[derive(Debug)]
pub struct ContendingMedium {
    inner: SharedMedium,
    config: ContentionConfig,
    /// Per-sender state at index `addr.value()`; `None` for an address
    /// that never attached or contended.
    senders: Vec<Option<SenderState>>,
    /// Reused per slot: the ready set sorted and deduplicated, when it did
    /// not arrive strictly ascending.
    sorted: Vec<NodeAddr>,
    /// Reused per slot: the senders whose back-off expired, ascending.
    transmitting: Vec<NodeAddr>,
    slots_elapsed: u64,
    collision_events: u64,
    frames_collided: u64,
    collision_airtime: Duration,
    tracer: TraceHandle,
}

impl ContendingMedium {
    /// Creates a contending medium over a fresh [`SharedMedium`].
    ///
    /// # Errors
    ///
    /// Returns [`MediumError::Link`] when the base link configuration is
    /// invalid.
    pub fn new(
        gateway: NodeAddr,
        base: LinkConfig,
        config: ContentionConfig,
    ) -> Result<Self, MediumError> {
        Ok(ContendingMedium {
            inner: SharedMedium::try_new(gateway, base)?,
            config,
            senders: Vec::new(),
            sorted: Vec::new(),
            transmitting: Vec::new(),
            slots_elapsed: 0,
            collision_events: 0,
            frames_collided: 0,
            collision_airtime: Duration::ZERO,
            tracer: TraceHandle::default(),
        })
    }

    /// Attaches a tracer (forwarded to the inner medium's links too).
    pub fn set_tracer(&mut self, tracer: TraceHandle) {
        self.inner.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// Attaches a sender endpoint, creating its seeded draw stream.
    ///
    /// # Errors
    ///
    /// Same as [`SharedMedium::attach`].
    pub fn attach(&mut self, addr: NodeAddr) -> Result<(), MediumError> {
        self.inner.attach(addr)?;
        *table_entry(&mut self.senders, addr) = Some(SenderState::fresh(&self.config, addr));
        Ok(())
    }

    /// The contention configuration.
    pub fn config(&self) -> &ContentionConfig {
        &self.config
    }

    /// The wrapped serializing medium (stats, queues, fault plans).
    pub fn inner(&self) -> &SharedMedium {
        &self.inner
    }

    /// Mutable access to the wrapped medium.
    pub fn inner_mut(&mut self) -> &mut SharedMedium {
        &mut self.inner
    }

    /// Statistics attributed to one endpoint (successful traffic only).
    ///
    /// # Errors
    ///
    /// Returns [`MediumError::UnknownEndpoint`] for a detached address.
    pub fn stats(&self, addr: NodeAddr) -> Result<&EndpointStats, MediumError> {
        self.inner.stats(addr)
    }

    /// Contention slots resolved so far.
    pub fn slots_elapsed(&self) -> u64 {
        self.slots_elapsed
    }

    /// Slots in which two or more frames overlapped.
    pub fn collision_events(&self) -> u64 {
        self.collision_events
    }

    /// Frames destroyed in collisions (capture survivors excluded).
    pub fn frames_collided(&self) -> u64 {
        self.frames_collided
    }

    /// Airtime wasted by collisions — medium busy time no endpoint gets
    /// credited for (one slot per collision event).
    pub fn collision_airtime(&self) -> Duration {
        self.collision_airtime
    }

    /// Total medium busy time: attributed per-endpoint airtime plus
    /// collision-wasted airtime. The conservation invariant the tests pin.
    pub fn total_busy_airtime(&self) -> Duration {
        self.inner.total_airtime() + self.collision_airtime
    }

    /// Collisions a specific sender has suffered.
    pub fn sender_collisions(&self, addr: NodeAddr) -> u64 {
        self.state(addr).map_or(0, |state| state.collisions)
    }

    fn state(&self, addr: NodeAddr) -> Option<&SenderState> {
        self.senders.get(usize::from(addr.value()))?.as_ref()
    }

    fn state_mut(&mut self, addr: NodeAddr) -> Option<&mut SenderState> {
        self.senders.get_mut(usize::from(addr.value()))?.as_mut()
    }

    /// Resolves one contention slot among `ready` senders (those with a
    /// frame pending and their device clock caught up to the slot).
    ///
    /// Decrements backoff counters, draws each sender's backoff from its
    /// own seeded stream, applies the capture model when frames overlap,
    /// grows losers' contention windows and accounts the wasted slot. The
    /// caller then conveys the winner's frame (if any) through the
    /// [`Radio`] implementation. A sender never seen before is registered
    /// on first sight.
    ///
    /// `ready` may arrive in any order, with repeats; arbitration is
    /// order-independent because every sender draws only from its own
    /// stream. A strictly ascending set is resolved in place, anything else
    /// is sorted and deduplicated into a reused buffer first.
    pub fn resolve_slot(&mut self, ready: &[NodeAddr]) -> SlotOutcome {
        self.slots_elapsed += 1;
        if ready.is_empty() {
            return SlotOutcome::Idle;
        }
        if let AccessScheme::SingleSlot = self.config.scheme {
            let winner = ready.iter().copied().min().unwrap_or(ready[0]);
            return SlotOutcome::Won(winner);
        }
        let mut transmitting = std::mem::take(&mut self.transmitting);
        transmitting.clear();
        if ready.windows(2).all(|pair| pair[0] < pair[1]) {
            self.count_down(ready, &mut transmitting);
        } else {
            let mut sorted = std::mem::take(&mut self.sorted);
            sorted.clear();
            sorted.extend_from_slice(ready);
            sorted.sort_unstable();
            sorted.dedup();
            self.count_down(&sorted, &mut transmitting);
            self.sorted = sorted;
        }
        let outcome = match transmitting[..] {
            [] => SlotOutcome::Idle,
            [winner] => {
                self.note_success(winner);
                SlotOutcome::Won(winner)
            }
            _ => self.resolve_collision(&transmitting),
        };
        self.transmitting = transmitting;
        outcome
    }

    /// Counts each of the strictly ascending `ready` senders' back-off
    /// down by one slot, drawing a counter for a sender without one, and
    /// appends those whose counter has expired to `transmitting`.
    fn count_down(&mut self, ready: &[NodeAddr], transmitting: &mut Vec<NodeAddr>) {
        for &addr in ready {
            let state = table_entry(&mut self.senders, addr)
                .get_or_insert_with(|| SenderState::fresh(&self.config, addr));
            let counter = match state.counter {
                Some(counter) => counter,
                None => {
                    let drawn = state.draw_counter();
                    state.counter = Some(drawn);
                    drawn
                }
            };
            if counter > 0 {
                state.counter = Some(counter - 1);
            } else {
                transmitting.push(addr);
            }
        }
    }

    /// Resolves up to `max_slots` consecutive slots among the same `ready`
    /// senders in one step, stopping before the first slot in which one of
    /// them would draw or transmit — the slot its back-off counter expires
    /// in, or at once for a sender with no counter drawn yet. Returns the
    /// number of slots resolved.
    ///
    /// Each resolved slot is exactly what [`ContendingMedium::resolve_slot`]
    /// would make of it: it counts in
    /// [`ContendingMedium::slots_elapsed`], draws nothing and counts every
    /// ready sender's back-off down by one. `ready` lists each sender once,
    /// in any order. With no ready sender all `max_slots` are idle, and
    /// [`ContendingMedium::slots_elapsed`] saturates at `u64::MAX` rather
    /// than wrap.
    pub fn skip_idle_slots(&mut self, ready: &[NodeAddr], max_slots: u64) -> u64 {
        let mut slots = max_slots;
        for &addr in ready {
            let counter = match self.config.scheme {
                // The lowest-addressed ready sender wins every slot.
                AccessScheme::SingleSlot => None,
                _ => self.state(addr).and_then(|state| state.counter),
            };
            slots = slots.min(counter.map_or(0, u64::from));
            if slots == 0 {
                return 0;
            }
        }
        self.slots_elapsed = self.slots_elapsed.saturating_add(slots);
        for &addr in ready {
            if let Some(counter) = self
                .state_mut(addr)
                .and_then(|state| state.counter.as_mut())
            {
                // `slots` is at most this counter, so it fits.
                *counter -= slots as u32;
            }
        }
        slots
    }

    fn note_success(&mut self, winner: NodeAddr) {
        let cw_min = match self.config.scheme {
            AccessScheme::CsmaCa { cw_min, .. } => Some(cw_min),
            AccessScheme::SingleSlot => None,
        };
        if let Some(state) = self.state_mut(winner) {
            if let Some(cw_min) = cw_min {
                state.cw = cw_min;
            }
            state.counter = None;
        }
    }

    /// Resolves a slot in which the strictly ascending `transmitting`
    /// senders (at least two) all transmitted.
    fn resolve_collision(&mut self, transmitting: &[NodeAddr]) -> SlotOutcome {
        // Capture model: each overlapping frame draws a received power
        // from its sender's stream; the strongest survives if it beats
        // the runner-up by the configured ratio. Of equally strong frames
        // the lowest-addressed counts as the strongest.
        let (mut strongest, mut best) = (transmitting[0], f64::NEG_INFINITY);
        let mut runner_up = f64::NEG_INFINITY;
        for &addr in transmitting {
            // Every transmitting sender was registered by `count_down`.
            let power = self.state_mut(addr).map_or(0.0, SenderState::next_f64);
            if power > best {
                runner_up = best;
                (strongest, best) = (addr, power);
            } else {
                runner_up = runner_up.max(power);
            }
        }
        let captured =
            (runner_up > 0.0 && best / runner_up >= self.config.capture_ratio).then_some(strongest);
        let cw_max = match self.config.scheme {
            AccessScheme::CsmaCa { cw_max, .. } => Some(cw_max),
            AccessScheme::SingleSlot => None,
        };
        let mut lost: Vec<NodeAddr> = Vec::with_capacity(transmitting.len());
        for &addr in transmitting {
            if Some(addr) == captured {
                self.note_success(addr);
                continue;
            }
            let Some(state) = self.state_mut(addr) else {
                continue;
            };
            state.collisions += 1;
            if let Some(cw_max) = cw_max {
                state.cw = (state.cw.saturating_mul(2)).min(cw_max.max(1));
                let drawn = state.draw_counter();
                state.counter = Some(drawn);
                let cw = state.cw;
                self.tracer.event(|| TraceEvent::Backoff {
                    node: addr.to_string(),
                    window_slots: cw,
                    wait_slots: drawn,
                });
            }
            lost.push(addr);
        }
        self.collision_events += 1;
        self.frames_collided += lost.len() as u64;
        self.collision_airtime += self.config.slot;
        self.tracer.count("net.collisions", 1);
        self.tracer.count("net.frames_collided", lost.len() as u64);
        let (slot, contenders, was_captured) = (
            self.slots_elapsed,
            transmitting.len() as u32,
            captured.is_some(),
        );
        self.tracer.event(|| TraceEvent::Collision {
            slot,
            contenders,
            captured: was_captured,
        });
        SlotOutcome::Collision { captured, lost }
    }
}

/// The table entry for `addr`, growing the table to reach it.
fn table_entry(senders: &mut Vec<Option<SenderState>>, addr: NodeAddr) -> &mut Option<SenderState> {
    let index = usize::from(addr.value());
    if index >= senders.len() {
        senders.resize_with(index + 1, || None);
    }
    &mut senders[index]
}

impl Radio for ContendingMedium {
    fn convey(
        &mut self,
        from: NodeAddr,
        to: NodeAddr,
        message: &[u8],
    ) -> Result<(Vec<u8>, TransferReport), MediumError> {
        // Slot arbitration happens in `resolve_slot`; a resolved winner's
        // frame rides the inner serializing medium (loss processes, fault
        // plans and per-endpoint accounting all still apply).
        self.inner.convey(from, to, message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkProfile;

    fn csma_medium(sensors: u16, seed: u64) -> (ContendingMedium, Vec<NodeAddr>) {
        let gateway = NodeAddr::new(0xFE);
        let mut medium = ContendingMedium::new(
            gateway,
            LinkConfig::lossless(LinkProfile::Tsch),
            ContentionConfig::csma(seed),
        )
        .unwrap();
        let addrs: Vec<NodeAddr> = (1..=sensors).map(NodeAddr::new).collect();
        for addr in &addrs {
            medium.attach(*addr).unwrap();
        }
        (medium, addrs)
    }

    fn drain(medium: &mut ContendingMedium, addrs: &[NodeAddr], slots: usize) -> Vec<SlotOutcome> {
        (0..slots).map(|_| medium.resolve_slot(addrs)).collect()
    }

    #[test]
    fn single_slot_mode_is_deterministic_lowest_address_first() {
        let gateway = NodeAddr::new(0xFE);
        let mut medium = ContendingMedium::new(
            gateway,
            LinkConfig::lossless(LinkProfile::Tsch),
            ContentionConfig::single_slot(),
        )
        .unwrap();
        for s in [3u16, 1, 2] {
            medium.attach(NodeAddr::new(s)).unwrap();
        }
        let ready = [NodeAddr::new(3), NodeAddr::new(1), NodeAddr::new(2)];
        assert_eq!(
            medium.resolve_slot(&ready),
            SlotOutcome::Won(NodeAddr::new(1))
        );
        assert_eq!(medium.resolve_slot(&[]), SlotOutcome::Idle);
        assert_eq!(medium.collision_events(), 0);
        assert_eq!(medium.collision_airtime(), Duration::ZERO);
    }

    #[test]
    fn csma_contention_eventually_serves_every_sender_and_wastes_slots() {
        let (mut medium, addrs) = csma_medium(8, 42);
        let outcomes = drain(&mut medium, &addrs, 400);
        let mut winners: Vec<NodeAddr> = outcomes
            .iter()
            .filter_map(|outcome| match outcome {
                SlotOutcome::Won(addr) => Some(*addr),
                SlotOutcome::Collision {
                    captured: Some(addr),
                    ..
                } => Some(*addr),
                _ => None,
            })
            .collect();
        winners.sort_unstable();
        winners.dedup();
        assert_eq!(winners, addrs, "every contender eventually wins a slot");
        assert!(medium.collision_events() > 0, "8 contenders must collide");
        assert_eq!(
            medium.collision_airtime(),
            medium.config().slot * medium.collision_events() as u32,
            "one wasted slot per collision event"
        );
        assert_eq!(
            medium.total_busy_airtime(),
            medium.inner().total_airtime() + medium.collision_airtime()
        );
    }

    #[test]
    fn same_seed_same_outcomes_different_seed_diverges() {
        let run = |seed: u64| {
            let (mut medium, addrs) = csma_medium(6, seed);
            drain(&mut medium, &addrs, 200)
        };
        assert_eq!(run(7), run(7), "seeded arbitration is reproducible");
        assert_ne!(run(7), run(8), "different seeds draw different slots");
    }

    #[test]
    fn ready_set_order_does_not_change_arbitration() {
        let forward = {
            let (mut medium, addrs) = csma_medium(5, 11);
            drain(&mut medium, &addrs, 150)
        };
        let backward = {
            let (mut medium, mut addrs) = csma_medium(5, 11);
            addrs.reverse();
            drain(&mut medium, &addrs, 150)
        };
        assert_eq!(forward, backward);
    }

    #[test]
    fn capture_lets_the_strongest_frame_survive_sometimes() {
        let gateway = NodeAddr::new(0xFE);
        let mut config = ContentionConfig::csma(3);
        config.capture_ratio = 1.0; // strongest always captures
        if let AccessScheme::CsmaCa { cw_min, .. } = &mut config.scheme {
            *cw_min = 1; // both draw counter 0 → guaranteed first-slot collision
        }
        let mut medium =
            ContendingMedium::new(gateway, LinkConfig::lossless(LinkProfile::Tsch), config)
                .unwrap();
        let addrs = [NodeAddr::new(1), NodeAddr::new(2)];
        for addr in &addrs {
            medium.attach(*addr).unwrap();
        }
        // Both transmit at once; with ratio 1.0 every overlap is captured.
        let outcome = medium.resolve_slot(&addrs);
        match outcome {
            SlotOutcome::Collision { captured, lost } => {
                assert!(captured.is_some());
                assert_eq!(lost.len(), 1);
            }
            other => panic!("expected a captured collision, got {other:?}"),
        }
        assert_eq!(medium.frames_collided(), 1, "capture survivor not counted");
    }

    #[test]
    fn collision_grows_the_contention_window_and_tracks_per_sender_counts() {
        let gateway = NodeAddr::new(0xFE);
        let mut config = ContentionConfig::csma(9);
        config.capture_ratio = f64::INFINITY; // no capture: clean collisions
        if let AccessScheme::CsmaCa { cw_min, .. } = &mut config.scheme {
            *cw_min = 1; // both draw counter 0 → guaranteed first-slot collision
        }
        let mut medium =
            ContendingMedium::new(gateway, LinkConfig::lossless(LinkProfile::Tsch), config)
                .unwrap();
        let addrs = [NodeAddr::new(1), NodeAddr::new(2)];
        for addr in &addrs {
            medium.attach(*addr).unwrap();
        }
        let outcome = medium.resolve_slot(&addrs);
        assert!(matches!(
            outcome,
            SlotOutcome::Collision { captured: None, .. }
        ));
        assert_eq!(medium.sender_collisions(addrs[0]), 1);
        assert_eq!(medium.sender_collisions(addrs[1]), 1);
        assert_eq!(medium.sender_collisions(NodeAddr::new(0x55)), 0);
    }

    /// Skipping a run of idle slots must leave the medium exactly where
    /// resolving them one by one leaves it: same slot count, same
    /// counters, so every later slot resolves the same way.
    #[test]
    fn skipping_idle_slots_matches_resolving_them_one_by_one() {
        for seed in 1..=12u64 {
            let (mut stepped, addrs) = csma_medium(6, seed);
            let (mut skipped, _) = csma_medium(6, seed);
            let mut jumps = 0;
            for _ in 0..300 {
                // A capped skip stops early; an uncapped one runs up to the
                // first slot a sender acts in.
                let cap = if jumps % 2 == 0 { 3 } else { u64::MAX };
                let jumped = skipped.skip_idle_slots(&addrs, cap);
                jumps += u64::from(jumped > 0);
                for _ in 0..jumped {
                    assert_eq!(stepped.resolve_slot(&addrs), SlotOutcome::Idle);
                }
                assert_eq!(stepped.slots_elapsed(), skipped.slots_elapsed());
                assert_eq!(stepped.resolve_slot(&addrs), skipped.resolve_slot(&addrs));
            }
            assert!(jumps > 0, "seed {seed}: back-off must leave idle runs");
            assert_eq!(stepped.collision_events(), skipped.collision_events());
            assert_eq!(stepped.frames_collided(), skipped.frames_collided());
        }
    }

    #[test]
    fn skipping_stops_at_once_for_senders_without_a_counter() {
        let (mut medium, addrs) = csma_medium(3, 5);
        // Nobody has drawn a back-off yet: the next slot draws.
        assert_eq!(medium.skip_idle_slots(&addrs, 100), 0);
        // No ready sender: every slot is idle, up to the cap.
        assert_eq!(medium.skip_idle_slots(&[], 40), 40);
        assert_eq!(medium.slots_elapsed(), 40);
        let single = ContentionConfig::single_slot();
        let mut medium =
            ContendingMedium::new(NodeAddr::new(0xFE), LinkConfig::default(), single).unwrap();
        medium.attach(addrs[0]).unwrap();
        assert_eq!(medium.skip_idle_slots(&addrs[..1], 100), 0);
    }

    #[test]
    fn skipping_an_unbounded_idle_run_saturates_the_slot_count() {
        let (mut medium, _) = csma_medium(3, 5);
        medium.resolve_slot(&[]);
        assert_eq!(medium.skip_idle_slots(&[], u64::MAX), u64::MAX);
        assert_eq!(medium.slots_elapsed(), u64::MAX);
        assert_eq!(medium.skip_idle_slots(&[], 1), 1);
        assert_eq!(medium.slots_elapsed(), u64::MAX);
    }

    /// The slot logic as a plain model: per-sender state in an ordered map,
    /// each slot copying, sorting and deduplicating its ready set, and the
    /// capture rule as a sort of the drawn powers. It shares only the
    /// per-sender splitmix draws with the medium.
    struct ReferenceMedium {
        config: ContentionConfig,
        senders: std::collections::BTreeMap<NodeAddr, SenderState>,
        slots_elapsed: u64,
        collision_events: u64,
        frames_collided: u64,
        collision_airtime: Duration,
    }

    impl ReferenceMedium {
        fn new(config: ContentionConfig, attached: &[NodeAddr]) -> Self {
            let mut reference = ReferenceMedium {
                config,
                senders: std::collections::BTreeMap::new(),
                slots_elapsed: 0,
                collision_events: 0,
                frames_collided: 0,
                collision_airtime: Duration::ZERO,
            };
            for addr in attached {
                reference.register(*addr);
            }
            reference
        }

        fn cw_min(&self) -> u32 {
            match self.config.scheme {
                AccessScheme::CsmaCa { cw_min, .. } => cw_min,
                AccessScheme::SingleSlot => 1,
            }
        }

        fn register(&mut self, addr: NodeAddr) {
            let state = SenderState {
                rng: endpoint_seed(self.config.seed, addr),
                cw: self.cw_min(),
                counter: None,
                collisions: 0,
            };
            self.senders.insert(addr, state);
        }

        fn resolve_slot(&mut self, ready: &[NodeAddr]) -> SlotOutcome {
            self.slots_elapsed += 1;
            let mut sorted = ready.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            let mut transmitting = Vec::new();
            for addr in sorted {
                if !self.senders.contains_key(&addr) {
                    self.register(addr);
                }
                let state = self.senders.get_mut(&addr).unwrap();
                let counter = match state.counter {
                    Some(counter) => counter,
                    None => {
                        let drawn = state.draw_counter();
                        state.counter = Some(drawn);
                        drawn
                    }
                };
                if counter > 0 {
                    state.counter = Some(counter - 1);
                } else {
                    transmitting.push(addr);
                }
            }
            match transmitting[..] {
                [] => SlotOutcome::Idle,
                [winner] => {
                    self.note_success(winner);
                    SlotOutcome::Won(winner)
                }
                _ => self.resolve_collision(&transmitting),
            }
        }

        fn skip_idle_slots(&mut self, ready: &[NodeAddr], max_slots: u64) -> u64 {
            let mut slots = max_slots;
            for addr in ready {
                let counter = self.senders.get(addr).and_then(|state| state.counter);
                slots = slots.min(counter.map_or(0, u64::from));
            }
            if slots == 0 {
                return 0;
            }
            self.slots_elapsed += slots;
            for addr in ready {
                if let Some(state) = self.senders.get_mut(addr) {
                    if let Some(counter) = state.counter.as_mut() {
                        *counter -= slots as u32;
                    }
                }
            }
            slots
        }

        fn note_success(&mut self, winner: NodeAddr) {
            let cw_min = self.cw_min();
            let state = self.senders.get_mut(&winner).unwrap();
            state.cw = cw_min;
            state.counter = None;
        }

        fn resolve_collision(&mut self, transmitting: &[NodeAddr]) -> SlotOutcome {
            let mut powers: Vec<(NodeAddr, f64)> = transmitting
                .iter()
                .map(|addr| (*addr, self.senders.get_mut(addr).unwrap().next_f64()))
                .collect();
            powers.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
            let (strongest, p0) = powers[0];
            let p1 = powers[1].1;
            let captured = (p1 > 0.0 && p0 / p1 >= self.config.capture_ratio).then_some(strongest);
            let AccessScheme::CsmaCa { cw_max, .. } = self.config.scheme else {
                unreachable!("the model contends only under CSMA/CA");
            };
            let mut lost = Vec::new();
            for addr in transmitting {
                if Some(*addr) == captured {
                    self.note_success(*addr);
                    continue;
                }
                let state = self.senders.get_mut(addr).unwrap();
                state.collisions += 1;
                state.cw = state.cw.saturating_mul(2).min(cw_max);
                state.counter = Some(state.draw_counter());
                lost.push(*addr);
            }
            lost.sort_unstable();
            self.collision_events += 1;
            self.frames_collided += lost.len() as u64;
            self.collision_airtime += self.config.slot;
            SlotOutcome::Collision { captured, lost }
        }
    }

    fn next_pick(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The medium's dense table and in-place walk against the plain model,
    /// over ready sets that change every slot: ascending subsets of the
    /// attached senders and of addresses never attached, the same subsets
    /// shuffled or repeated (for `resolve_slot` only, which takes any
    /// order), and capped and uncapped idle-slot skips in between.
    #[test]
    fn arbitration_matches_a_plain_reference_model() {
        let candidates: Vec<NodeAddr> = (1..=10u16)
            .chain([23, 0xFE, 0x300, u16::MAX])
            .map(NodeAddr::new)
            .collect();
        let mut skips = 0;
        let mut collisions = 0;
        let mut captures = 0;
        for seed in 1..=12u64 {
            let (mut medium, attached) = csma_medium(10, seed);
            let mut config = ContentionConfig::csma(seed);
            // Half the seeds capture every overlap, half at the default 4×.
            if seed % 2 == 0 {
                config.capture_ratio = 1.0;
                medium.config.capture_ratio = 1.0;
            }
            let mut reference = ReferenceMedium::new(config, &attached);
            let mut picks = seed;
            for _ in 0..300 {
                let mut ready: Vec<NodeAddr> = candidates
                    .iter()
                    .copied()
                    .filter(|_| next_pick(&mut picks) % 3 == 0)
                    .collect();
                match next_pick(&mut picks) % 5 {
                    0 | 1 => {}
                    2 => {
                        let repeats = ready.clone();
                        ready.extend(repeats.iter().step_by(2));
                        for i in (1..ready.len()).rev() {
                            ready.swap(i, next_pick(&mut picks) as usize % (i + 1));
                        }
                    }
                    3 => ready.reverse(),
                    _ => {
                        // An empty set skips up to the cap: keep it finite.
                        let uncapped = skips % 2 == 1 && !ready.is_empty();
                        let cap = if uncapped { u64::MAX } else { 3 };
                        let skipped = medium.skip_idle_slots(&ready, cap);
                        assert_eq!(skipped, reference.skip_idle_slots(&ready, cap));
                        skips += u64::from(skipped > 0);
                    }
                }
                let outcome = medium.resolve_slot(&ready);
                assert_eq!(outcome, reference.resolve_slot(&ready), "seed {seed}");
                if let SlotOutcome::Collision { captured, .. } = outcome {
                    collisions += 1;
                    captures += u32::from(captured.is_some());
                }
                assert_eq!(medium.slots_elapsed(), reference.slots_elapsed);
                assert_eq!(medium.collision_events(), reference.collision_events);
                assert_eq!(medium.frames_collided(), reference.frames_collided);
                assert_eq!(medium.collision_airtime(), reference.collision_airtime);
            }
            for addr in &candidates {
                let expected = reference.senders.get(addr).map_or(0, |s| s.collisions);
                assert_eq!(medium.sender_collisions(*addr), expected, "seed {seed}");
            }
        }
        assert!(skips > 0, "back-off must leave idle runs to skip");
        assert!(
            collisions > captures && captures > 0,
            "{captures} of {collisions}"
        );
    }

    #[test]
    fn convey_rides_the_inner_medium_accounting() {
        let (mut medium, addrs) = csma_medium(1, 1);
        let gateway = medium.inner().gateway();
        let (delivered, report) = medium.convey(addrs[0], gateway, b"reading").unwrap();
        assert_eq!(delivered, b"reading");
        assert_eq!(
            medium.stats(addrs[0]).unwrap().uplink_wire_bytes,
            report.wire_bytes as u64
        );
    }
}
