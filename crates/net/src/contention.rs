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
//! * **Slotted ALOHA** — every ready sender transmits in a slot with
//!   probability `p`; two or more transmissions collide.
//! * **CSMA/CA** — every ready sender draws a backoff counter uniformly
//!   from its contention window, counts idle slots down, and transmits
//!   (p-persistently) when the counter expires; simultaneous expiries
//!   collide and double the losers' windows (binary exponential backoff).
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

use std::collections::BTreeMap;
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
    /// Slotted ALOHA: each ready sender transmits with probability
    /// `tx_probability` per slot; overlaps collide.
    SlottedAloha {
        /// Per-slot transmission probability of a ready sender.
        tx_probability: f64,
    },
    /// CSMA/CA with binary exponential backoff: ready senders count a
    /// uniformly drawn backoff down across idle slots and transmit
    /// (p-persistently) on expiry; collisions double the window.
    CsmaCa {
        /// Probability of actually transmitting once the backoff counter
        /// expires (1.0 = standard CSMA/CA).
        persistence: f64,
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
    /// Seed of the per-sender draw streams (power, persistence, backoff).
    pub seed: u64,
}

impl ContentionConfig {
    /// CSMA/CA with 802.15.4-flavoured defaults: full persistence,
    /// windows 8..=1024 slots, 5 ms slots, capture at 4× power.
    pub fn csma(seed: u64) -> Self {
        ContentionConfig {
            scheme: AccessScheme::CsmaCa {
                persistence: 1.0,
                cw_min: 8,
                cw_max: 1024,
            },
            slot: Duration::from_millis(5),
            capture_ratio: 4.0,
            seed,
        }
    }

    /// Slotted ALOHA with a fixed per-slot transmit probability.
    pub fn aloha(tx_probability: f64, seed: u64) -> Self {
        ContentionConfig {
            scheme: AccessScheme::SlottedAloha { tx_probability },
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
    senders: BTreeMap<NodeAddr, SenderState>,
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
            senders: BTreeMap::new(),
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
        self.register_sender(addr);
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
        self.senders
            .get(&addr)
            .map(|state| state.collisions)
            .unwrap_or(0)
    }

    fn register_sender(&mut self, addr: NodeAddr) {
        let cw_min = match self.config.scheme {
            AccessScheme::CsmaCa { cw_min, .. } => cw_min,
            _ => 1,
        };
        self.senders.insert(
            addr,
            SenderState {
                rng: endpoint_seed(self.config.seed, addr),
                cw: cw_min,
                counter: None,
                collisions: 0,
            },
        );
    }

    /// Resolves one contention slot among `ready` senders (those with a
    /// frame pending and their device clock caught up to the slot).
    ///
    /// Decrements backoff counters, draws transmit decisions from each
    /// sender's own seeded stream, applies the capture model when frames
    /// overlap, grows losers' contention windows and accounts the wasted
    /// slot. The caller then conveys the winner's frame (if any) through
    /// the [`Radio`] implementation.
    ///
    /// `ready` may arrive in any order; arbitration is order-independent
    /// because every sender draws only from its own stream.
    pub fn resolve_slot(&mut self, ready: &[NodeAddr]) -> SlotOutcome {
        self.slots_elapsed += 1;
        if ready.is_empty() {
            return SlotOutcome::Idle;
        }
        if let AccessScheme::SingleSlot = self.config.scheme {
            let winner = ready.iter().copied().min().unwrap_or(ready[0]);
            return SlotOutcome::Won(winner);
        }
        let mut transmitting: Vec<NodeAddr> = Vec::new();
        let mut sorted: Vec<NodeAddr> = ready.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        for addr in &sorted {
            if !self.senders.contains_key(addr) {
                self.register_sender(*addr);
            }
            let Some(state) = self.senders.get_mut(addr) else {
                continue;
            };
            let transmits = match self.config.scheme {
                AccessScheme::SingleSlot => unreachable!("handled above"),
                AccessScheme::SlottedAloha { tx_probability } => {
                    match state.counter {
                        // Still spending a post-collision retransmission wait.
                        Some(slots_left) if slots_left > 0 => {
                            state.counter = Some(slots_left - 1);
                            false
                        }
                        _ => {
                            state.counter = None;
                            state.next_f64() < tx_probability
                        }
                    }
                }
                AccessScheme::CsmaCa { persistence, .. } => {
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
                        false
                    } else if persistence >= 1.0 || state.next_f64() < persistence {
                        true
                    } else {
                        // Deferred p-persistently: retry next slot.
                        false
                    }
                }
            };
            if transmits {
                transmitting.push(*addr);
            }
        }
        match transmitting.len() {
            0 => SlotOutcome::Idle,
            1 => {
                let winner = transmitting[0];
                self.note_success(winner);
                SlotOutcome::Won(winner)
            }
            _ => self.resolve_collision(transmitting),
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
    /// in any order.
    pub fn skip_idle_slots(&mut self, ready: &[NodeAddr], max_slots: u64) -> u64 {
        let mut slots = max_slots;
        for addr in ready {
            let counter = match self.config.scheme {
                // The lowest-addressed ready sender wins every slot.
                AccessScheme::SingleSlot => None,
                _ => self.senders.get(addr).and_then(|state| state.counter),
            };
            slots = slots.min(counter.map_or(0, u64::from));
        }
        if slots == 0 {
            return 0;
        }
        self.slots_elapsed += slots;
        for addr in ready {
            if let Some(counter) = self
                .senders
                .get_mut(addr)
                .and_then(|state| state.counter.as_mut())
            {
                // `slots` is at most this counter, so it fits.
                *counter -= slots as u32;
            }
        }
        slots
    }

    fn note_success(&mut self, winner: NodeAddr) {
        if let Some(state) = self.senders.get_mut(&winner) {
            if let AccessScheme::CsmaCa { cw_min, .. } = self.config.scheme {
                state.cw = cw_min;
            }
            state.counter = None;
        }
    }

    fn resolve_collision(&mut self, transmitting: Vec<NodeAddr>) -> SlotOutcome {
        // Capture model: each overlapping frame draws a received power
        // from its sender's stream; the strongest survives if it beats
        // the runner-up by the configured ratio.
        let mut powers: Vec<(NodeAddr, f64)> = transmitting
            .iter()
            .map(|addr| {
                let state = self.senders.get_mut(addr).expect("registered above");
                (*addr, state.next_f64())
            })
            .collect();
        powers.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        let captured = match (powers.first(), powers.get(1)) {
            (Some(&(strongest, p0)), Some(&(_, p1)))
                if p1 > 0.0 && p0 / p1 >= self.config.capture_ratio =>
            {
                Some(strongest)
            }
            _ => None,
        };
        let mut lost: Vec<NodeAddr> = Vec::with_capacity(transmitting.len());
        for addr in &transmitting {
            if Some(*addr) == captured {
                self.note_success(*addr);
                continue;
            }
            let Some(state) = self.senders.get_mut(addr) else {
                continue;
            };
            state.collisions += 1;
            match self.config.scheme {
                AccessScheme::CsmaCa { cw_max, .. } => {
                    state.cw = (state.cw.saturating_mul(2)).min(cw_max.max(1));
                    let drawn = state.draw_counter();
                    state.counter = Some(drawn);
                    let (node, cw, slots) = (addr.to_string(), state.cw, drawn);
                    self.tracer.event(|| TraceEvent::Backoff {
                        node,
                        window_slots: cw,
                        wait_slots: slots,
                    });
                }
                AccessScheme::SlottedAloha { .. } => {
                    // Retransmit after a random wait that doubles with
                    // consecutive collisions (capped at 64 slots).
                    state.cw = (state.cw.saturating_mul(2)).min(64);
                    let drawn = state.draw_counter();
                    state.counter = Some(drawn);
                }
                AccessScheme::SingleSlot => {}
            }
            lost.push(*addr);
        }
        lost.sort_unstable();
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
    fn aloha_low_probability_reduces_collisions() {
        let gateway = NodeAddr::new(0xFE);
        let collide_count = |p: f64| {
            let mut medium = ContendingMedium::new(
                gateway,
                LinkConfig::lossless(LinkProfile::Tsch),
                ContentionConfig::aloha(p, 5),
            )
            .unwrap();
            let addrs: Vec<NodeAddr> = (1..=10).map(NodeAddr::new).collect();
            for addr in &addrs {
                medium.attach(*addr).unwrap();
            }
            drain(&mut medium, &addrs, 300);
            medium.collision_events()
        };
        let aggressive = collide_count(0.9);
        let polite = collide_count(0.05);
        assert!(
            polite < aggressive,
            "p=0.05 ({polite} collisions) should collide less than p=0.9 ({aggressive})"
        );
    }

    #[test]
    fn capture_lets_the_strongest_frame_survive_sometimes() {
        let gateway = NodeAddr::new(0xFE);
        let mut config = ContentionConfig::aloha(1.0, 3);
        config.capture_ratio = 1.0; // strongest always captures
        let mut medium =
            ContendingMedium::new(gateway, LinkConfig::lossless(LinkProfile::Tsch), config)
                .unwrap();
        let addrs = [NodeAddr::new(1), NodeAddr::new(2)];
        for addr in &addrs {
            medium.attach(*addr).unwrap();
        }
        // Both always transmit; with ratio 1.0 every overlap is captured.
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

    fn aloha_medium(sensors: u16, seed: u64) -> (ContendingMedium, Vec<NodeAddr>) {
        let mut medium = ContendingMedium::new(
            NodeAddr::new(0xFE),
            LinkConfig::lossless(LinkProfile::Tsch),
            ContentionConfig::aloha(0.6, seed),
        )
        .unwrap();
        let addrs: Vec<NodeAddr> = (1..=sensors).map(NodeAddr::new).collect();
        for addr in &addrs {
            medium.attach(*addr).unwrap();
        }
        (medium, addrs)
    }

    /// Skipping a run of idle slots must leave the medium exactly where
    /// resolving them one by one leaves it: same slot count, same
    /// counters, so every later slot resolves the same way.
    #[test]
    fn skipping_idle_slots_matches_resolving_them_one_by_one() {
        for build in [csma_medium, aloha_medium] {
            for seed in 1..=12u64 {
                let (mut stepped, addrs) = build(6, seed);
                let (mut skipped, _) = build(6, seed);
                let mut jumps = 0;
                for _ in 0..300 {
                    // A capped skip stops early; an uncapped one runs up
                    // to the first slot a sender acts in.
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
