//! Deterministic discrete-event scheduler.
//!
//! The recursive-resolution simulation needs packets to arrive in a
//! realistic (latency-ordered) sequence, and the fleet harness needs
//! that sequence to be *reproducible*: the same seed must replay the
//! same trace byte for byte at any worker count. Both come from two
//! rules:
//!
//! 1. **Pure latency draws.** Every link delay is a pure function of
//!    `(seed, link, event index)` — no RNG state threads through the
//!    run, so events can be scheduled from any thread in any order and
//!    still draw the same delays. See [`link_latency_us`].
//! 2. **Total event order.** The queue is a binary heap ordered by
//!    `(due time, sequence number)`. The sequence number breaks ties
//!    between events due on the same tick by insertion order, so the
//!    pop order is a total order independent of heap internals.
//!
//! Time is a virtual clock in microseconds; nothing here reads wall
//! clocks, so a simulation is a deterministic function of its inputs.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One tick of simulated time, in microseconds.
pub type SimTime = u64;

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit permutation. The
/// same mixing the fleet runner's `derive_seed` uses, duplicated here
/// because `cml-netsim` sits below `cml-core` in the crate graph.
#[inline]
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Smallest latency any link ever exhibits, in microseconds.
pub const MIN_LATENCY_US: SimTime = 200;

/// Span of the jitter above [`MIN_LATENCY_US`], in microseconds.
pub const JITTER_SPAN_US: SimTime = 1_800;

/// The per-hop latency draw: a pure function of `(seed, link, event
/// index)` in `MIN_LATENCY_US..MIN_LATENCY_US + JITTER_SPAN_US`.
///
/// Because the draw depends only on its arguments, two simulations with
/// the same seed see identical delays regardless of scheduling order,
/// worker count, or how many *other* links exist — the property the
/// determinism suites pin.
#[inline]
pub fn link_latency_us(seed: u64, link: u64, event_index: u64) -> SimTime {
    let h = mix64(seed ^ mix64(link) ^ mix64(event_index.wrapping_mul(0xD1B5_4A32_D192_ED03)));
    MIN_LATENCY_US + h % JITTER_SPAN_US
}

/// An event waiting in the queue: ordered by `(due, seq)` only, so the
/// payload type needs no ordering of its own.
#[derive(Debug)]
struct Pending<E> {
    due: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Pending<E> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}

impl<E> Eq for Pending<E> {}

impl<E> PartialOrd for Pending<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Pending<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due, self.seq).cmp(&(other.due, other.seq))
    }
}

/// A discrete-event queue with a virtual clock.
///
/// [`schedule_in`](Self::schedule_in) enqueues an event at a relative
/// delay; [`pop`](Self::pop) removes the earliest-due event and
/// advances the clock to its due time. Ties on the due tick pop in
/// insertion order, making the dispatch sequence a total order — the
/// foundation of byte-identical traces.
#[derive(Debug)]
pub struct Scheduler<E> {
    heap: BinaryHeap<Reverse<Pending<E>>>,
    now: SimTime,
    seq: u64,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Scheduler::new()
    }
}

impl<E> Scheduler<E> {
    /// An empty scheduler at tick zero.
    pub fn new() -> Self {
        Scheduler {
            heap: BinaryHeap::new(),
            now: 0,
            seq: 0,
        }
    }

    /// The virtual clock: the due time of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Events scheduled so far (also the next sequence number, which
    /// callers use as the `event_index` of a latency draw).
    pub fn events_scheduled(&self) -> u64 {
        self.seq
    }

    /// Events currently queued.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is drained.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Enqueues `event` to fire `delay` microseconds from now. Returns
    /// the event's sequence number.
    pub fn schedule_in(&mut self, delay: SimTime, event: E) -> u64 {
        self.schedule_at(self.now.saturating_add(delay), event)
    }

    /// Enqueues `event` at an absolute due time (clamped to the present
    /// so time never runs backwards). Returns the event's sequence
    /// number.
    fn schedule_at(&mut self, due: SimTime, event: E) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Pending {
            due: due.max(self.now),
            seq,
            event,
        }));
        seq
    }

    /// Removes the earliest-due event, advances the clock to its due
    /// time, and returns `(due, event)`; `None` when drained.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(p) = self.heap.pop()?;
        self.now = p.due;
        Some((p.due, p.event))
    }

    /// Advances the clock to `t` without dispatching anything (used to
    /// model idle time between externally-timed arrivals). Never moves
    /// the clock backwards.
    pub fn advance_to(&mut self, t: SimTime) {
        self.now = self.now.max(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order_with_fifo_ties() {
        let mut s = Scheduler::new();
        s.schedule_at(50, "b-at-50");
        s.schedule_at(10, "first-at-10");
        s.schedule_at(10, "second-at-10");
        s.schedule_at(30, "a-at-30");
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).collect();
        assert_eq!(
            order,
            vec![
                (10, "first-at-10"),
                (10, "second-at-10"),
                (30, "a-at-30"),
                (50, "b-at-50"),
            ]
        );
        assert_eq!(s.now(), 50);
    }

    #[test]
    fn clock_advances_and_relative_delays_stack() {
        let mut s = Scheduler::new();
        s.schedule_in(5, 'a');
        assert_eq!(s.pop(), Some((5, 'a')));
        s.schedule_in(7, 'b');
        assert_eq!(s.pop(), Some((12, 'b')));
        // Scheduling in the past clamps to the present.
        s.schedule_at(3, 'c');
        assert_eq!(s.pop(), Some((12, 'c')));
    }

    #[test]
    fn latency_draw_is_pure_and_bounded() {
        for seed in [0u64, 1, 0xDEAD_BEEF] {
            for link in [0u64, 7, u64::MAX] {
                for idx in [0u64, 1, 1_000_000] {
                    let a = link_latency_us(seed, link, idx);
                    let b = link_latency_us(seed, link, idx);
                    assert_eq!(a, b, "pure function of its arguments");
                    assert!((MIN_LATENCY_US..MIN_LATENCY_US + JITTER_SPAN_US).contains(&a));
                }
            }
        }
    }

    #[test]
    fn latency_draw_varies_by_link_and_index() {
        let base = link_latency_us(42, 1, 0);
        let draws: Vec<_> = (0..16)
            .map(|i| link_latency_us(42, 1, i))
            .chain((1..16).map(|l| link_latency_us(42, l, 0)))
            .collect();
        assert!(
            draws.iter().any(|&d| d != base),
            "jitter must actually jitter: {draws:?}"
        );
    }

    #[test]
    fn sequence_numbers_are_dense() {
        let mut s = Scheduler::new();
        assert_eq!(s.schedule_in(0, ()), 0);
        assert_eq!(s.schedule_in(0, ()), 1);
        assert_eq!(s.events_scheduled(), 2);
    }
}
