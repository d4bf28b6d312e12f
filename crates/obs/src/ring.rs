//! Per-thread event ring: fixed capacity, overwrite-oldest, one lock.
//!
//! One ring has exactly **one writer** (the owning thread) and is read
//! only when a trace is exported. Its lock is therefore uncontended on
//! the recording path, and it buys exact accounting: a snapshot sees
//! the ring between two records, so
//!
//! * `events.len() == min(head, capacity)`, seqs contiguous and ending
//!   at `head - 1`, every payload whole;
//! * `dropped == head - events.len()` — every recorded event is either
//!   in the snapshot or counted dropped, never both and never neither.

use crate::event::{Event, EventKind};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The ring's state, all of it under the one lock.
#[derive(Debug)]
struct Slots {
    /// Power-of-two slot array; event `h` lives at `h & mask`.
    buf: Box<[Event]>,
    /// Next event number to write (== total events ever recorded).
    head: u64,
}

/// Fixed-capacity overwrite-oldest event ring (see module docs).
#[derive(Debug)]
pub struct EventRing {
    slots: Mutex<Slots>, // lock-rank: obs.ring 90
    /// Slot count minus one.
    mask: u64,
}

impl EventRing {
    /// Create a ring with at least `capacity` slots (rounded up to a
    /// power of two, minimum 2).
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        let empty = Event {
            kind: EventKind::Custom,
            ts_ns: 0,
            dur_ns: 0,
            arg: 0,
            seq: 0,
        };
        EventRing {
            slots: Mutex::new(Slots {
                buf: vec![empty; cap].into_boxed_slice(),
                head: 0,
            }),
            mask: cap as u64 - 1,
        }
    }

    /// Slot count.
    pub fn capacity(&self) -> usize {
        self.mask as usize + 1
    }

    /// Nothing panics while a guard is live, so a poisoned lock still
    /// guards a whole ring; the trace path never panics on it.
    fn lock(&self) -> MutexGuard<'_, Slots> {
        self.slots.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Record one event, overwriting the oldest once the ring is full.
    pub fn record(&self, kind: EventKind, ts_ns: u64, dur_ns: u64, arg: u64) {
        let mut s = self.lock();
        let seq = s.head;
        s.buf[(seq & self.mask) as usize] = Event {
            kind,
            ts_ns,
            dur_ns,
            arg,
            seq,
        };
        s.head = seq + 1;
    }

    /// The last `min(head, capacity)` events, oldest first, plus head and
    /// the exact dropped count (see module docs).
    pub fn snapshot(&self) -> RingSnapshot {
        let s = self.lock();
        let start = s.head.saturating_sub(self.mask + 1);
        let events = (start..s.head)
            .map(|i| s.buf[(i & self.mask) as usize])
            .collect();
        RingSnapshot {
            head: s.head,
            dropped: start,
            events,
        }
    }
}

/// Result of [`EventRing::snapshot`].
#[derive(Debug, Clone)]
pub struct RingSnapshot {
    /// Total events recorded at snapshot time.
    pub head: u64,
    /// Events lost to overwrite: `head - events.len()`.
    pub dropped: u64,
    /// The surviving events, oldest first, seqs contiguous.
    pub events: Vec<Event>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        assert_eq!(EventRing::with_capacity(0).capacity(), 2);
        assert_eq!(EventRing::with_capacity(5).capacity(), 8);
        assert_eq!(EventRing::with_capacity(64).capacity(), 64);
    }

    #[test]
    fn records_below_capacity_drop_nothing() {
        let ring = EventRing::with_capacity(8);
        for i in 0..8 {
            ring.record(EventKind::Custom, 100 + i, 0, i);
        }
        let snap = ring.snapshot();
        assert_eq!(snap.head, 8);
        assert_eq!(snap.dropped, 0);
        assert_eq!(snap.events.len(), 8);
        for (i, ev) in snap.events.iter().enumerate() {
            assert_eq!(ev.seq, i as u64);
            assert_eq!(ev.ts_ns, 100 + i as u64);
            assert_eq!(ev.arg, i as u64);
        }
    }

    #[test]
    fn overflow_drops_oldest_and_counts_every_drop() {
        let ring = EventRing::with_capacity(4);
        for i in 0..10u64 {
            ring.record(EventKind::Put, 1000 + i, 0, i);
        }
        let snap = ring.snapshot();
        assert_eq!(snap.head, 10);
        // 10 events into 4 slots: the oldest 6 are gone and accounted.
        assert_eq!(snap.dropped, 6);
        assert_eq!(snap.events.len(), 4);
        let seqs: Vec<u64> = snap.events.iter().map(|e| e.seq).collect();
        assert_eq!(
            seqs,
            vec![6, 7, 8, 9],
            "survivors are the newest, oldest first"
        );
    }

    /// A writer records until told to stop while the reader takes
    /// 100 000 snapshots once the ring has wrapped many times. Every
    /// snapshot must be exact, not merely conservative: the newest
    /// `min(head, cap)` events, contiguous, untorn, and
    /// `events.len() + dropped == head`.
    #[test]
    fn every_snapshot_under_a_running_writer_is_exact() {
        use std::sync::mpsc::{channel, TryRecvError};
        use std::sync::Arc;
        const CAP: u64 = 16;
        let ring = Arc::new(EventRing::with_capacity(CAP as usize));
        let (stop, stopped) = channel::<()>();
        let writer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                let mut i = 0u64;
                while let Err(TryRecvError::Empty) = stopped.try_recv() {
                    // ts == dur == arg == seq: a torn or misplaced slot shows.
                    ring.record(EventKind::Custom, i, i, i);
                    i += 1;
                }
            })
        };
        while ring.snapshot().head < 1000 {
            std::thread::yield_now();
        }
        let mut inexact = 0u32;
        for _ in 0..100_000 {
            let snap = ring.snapshot();
            let n = snap.events.len() as u64;
            if n != snap.head.min(CAP) || n + snap.dropped != snap.head {
                inexact += 1;
                continue;
            }
            for (k, ev) in snap.events.iter().enumerate() {
                assert_eq!(ev.seq, snap.dropped + k as u64, "seqs not contiguous");
                assert_eq!(ev.ts_ns, ev.seq, "slot holds another event's payload");
                assert_eq!(ev.dur_ns, ev.seq, "torn slot");
                assert_eq!(ev.arg, ev.seq, "torn slot");
            }
        }
        drop(stop);
        writer.join().unwrap();
        assert_eq!(inexact, 0, "{inexact} of 100000 snapshots were inexact");
    }
}
