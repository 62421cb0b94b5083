//! The event heap at the core of the discrete-event simulator.
//!
//! Events are keyed by `(time_ns, seq)`: virtual firing time first, then a
//! monotonically increasing sequence number assigned at scheduling time.
//! The sequence number makes tie-breaking *stable* — two events scheduled
//! for the same nanosecond always pop in scheduling order, so a simulation
//! replays byte-identically regardless of heap internals or the host's
//! allocation behaviour.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use tinyevm_device::SimTime;

/// One scheduled entry: the firing time, the tie-breaking sequence number
/// and the payload.
#[derive(Debug, Clone)]
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// A min-heap of simulation events ordered by `(time_ns, seq)`.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedules `event` to fire at `time`, returning the sequence number
    /// that breaks same-nanosecond ties (scheduling order).
    pub fn schedule(&mut self, time: SimTime, event: E) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { time, seq, event });
        seq
    }

    /// Pops the earliest event (stable under ties), with its firing time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|entry| (entry.time, entry.event))
    }

    /// The firing time of the earliest scheduled event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|entry| entry.time)
    }

    /// The `(time, seq)` key of the earliest scheduled event.
    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        self.heap.peek().map(|entry| (entry.time, entry.seq))
    }

    /// The sequence number the next scheduled event will receive. An event
    /// kept outside the queue (a periodic timer, say) that records this
    /// value when it is armed, and fires before any queued key not below
    /// its own, keeps exactly the order it would have had in the queue:
    /// after every event queued earlier for the same instant, before every
    /// event queued later.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn pops_in_time_order_with_stable_ties() {
        let mut queue = EventQueue::new();
        let t1 = SimTime::from_nanos(1_000);
        let t2 = SimTime::from_nanos(2_000);
        queue.schedule(t2, "late-a");
        queue.schedule(t1, "early-a");
        queue.schedule(t1, "early-b");
        queue.schedule(t2, "late-b");
        assert_eq!(queue.len(), 4);
        assert_eq!(queue.peek_time(), Some(t1));
        let order: Vec<&str> = std::iter::from_fn(|| queue.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["early-a", "early-b", "late-a", "late-b"]);
        assert!(queue.is_empty());
    }

    #[test]
    fn peek_key_and_next_seq_expose_the_tie_order() {
        let mut queue = EventQueue::new();
        let t = SimTime::from_nanos(5_000);
        assert_eq!(queue.peek_key(), None);
        queue.schedule(t, "queued");
        let armed = (t, queue.next_seq());
        queue.schedule(t, "queued later");
        // The earlier event precedes a timer armed after it; the later
        // one follows it.
        assert!(queue.peek_key().unwrap() < armed);
        queue.pop();
        assert!(armed <= queue.peek_key().unwrap());
    }

    #[test]
    fn sequence_numbers_are_monotonic_across_mixed_times() {
        let mut queue = EventQueue::new();
        let base = SimTime::ZERO;
        let seqs: Vec<u64> = (0..5)
            .map(|i| queue.schedule(base + Duration::from_nanos(5 - i), i))
            .collect();
        assert_eq!(seqs, [0, 1, 2, 3, 4]);
    }
}
