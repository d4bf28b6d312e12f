//! [`Scheduler`] — per-affinity FIFO message queues over an
//! [`ExclusionState`].
//!
//! This is the pure scheduling core: it owns no threads and makes no
//! timing decisions. The real-thread [`pool`](crate::pool) locks one of
//! these behind a mutex; the discrete-event simulator embeds one directly
//! and advances it under virtual time. Both therefore make *identical*
//! scheduling decisions, which is what lets the simulator stand in for the
//! missing 20-core testbed.

use crate::hierarchy::AffinityId;
use crate::state::ExclusionState;
use std::collections::VecDeque;

/// Per-affinity FIFO queues plus exclusion tracking.
#[derive(Debug)]
pub struct Scheduler<M> {
    state: ExclusionState,
    queues: Vec<VecDeque<M>>,
    queued: usize,
    /// Rotating scan start, for fairness across affinities.
    cursor: u32,
    executed: u64,
}

impl<M> Scheduler<M> {
    /// New scheduler over a topology's exclusion state.
    pub fn new(state: ExclusionState) -> Self {
        let n = state.topology().len();
        Self {
            state,
            queues: (0..n).map(|_| VecDeque::new()).collect(),
            queued: 0,
            cursor: 0,
            executed: 0,
        }
    }

    /// The exclusion state (e.g., for `active()` introspection).
    #[inline]
    pub fn state(&self) -> &ExclusionState {
        &self.state
    }

    /// Messages waiting in queues (not yet started).
    #[inline]
    pub fn queued(&self) -> usize {
        self.queued
    }

    /// Messages started over the scheduler's lifetime.
    #[inline]
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// True when no message is queued or running.
    #[inline]
    pub fn is_idle(&self) -> bool {
        self.queued == 0 && self.state.active() == 0
    }

    /// Enqueue a message for an affinity.
    pub fn enqueue(&mut self, id: AffinityId, msg: M) {
        self.queues[id.0 as usize].push_back(msg);
        self.queued += 1;
    }

    /// Pop one runnable message, marking its affinity started. Returns
    /// `None` if every queued message is currently excluded (or nothing is
    /// queued). The caller must call [`complete`](Self::complete) when the
    /// message finishes.
    pub fn pop_runnable(&mut self) -> Option<(AffinityId, M)> {
        if self.queued == 0 {
            return None;
        }
        let n = self.queues.len() as u32;
        for off in 0..n {
            let idx = (self.cursor + off) % n;
            let id = AffinityId(idx);
            if !self.queues[idx as usize].is_empty() && self.state.can_run(id) {
                let msg = self.queues[idx as usize].pop_front().unwrap();
                self.state.start(id);
                self.queued -= 1;
                self.executed += 1;
                self.cursor = (idx + 1) % n;
                return Some((id, msg));
            }
        }
        None
    }

    /// Mark a previously popped message finished, unblocking excluded
    /// affinities.
    pub fn complete(&mut self, id: AffinityId) {
        self.state.finish(id);
    }

    /// Number of messages queued for one affinity.
    pub fn queue_len(&self, id: AffinityId) -> usize {
        self.queues[id.0 as usize].len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::{Affinity, Model, Topology};
    use std::sync::Arc;

    fn sched() -> Scheduler<u32> {
        let topo = Arc::new(Topology::symmetric(Model::Hierarchical, 1, 2, 4, 2));
        Scheduler::new(ExclusionState::new(topo))
    }

    #[test]
    fn fifo_within_one_affinity() {
        let mut s = sched();
        let t = Arc::clone(s.state().topology());
        let a = t.id(Affinity::Stripe(0, 0));
        s.enqueue(a, 1);
        s.enqueue(a, 2);
        let (id, m) = s.pop_runnable().unwrap();
        assert_eq!((id, m), (a, 1));
        assert!(s.pop_runnable().is_none(), "same affinity serializes");
        s.complete(a);
        assert_eq!(s.pop_runnable().unwrap().1, 2);
    }

    #[test]
    fn disjoint_affinities_pop_concurrently() {
        let mut s = sched();
        let t = Arc::clone(s.state().topology());
        s.enqueue(t.id(Affinity::Stripe(0, 0)), 1);
        s.enqueue(t.id(Affinity::Stripe(0, 1)), 2);
        s.enqueue(t.id(Affinity::VolumeVbn(0)), 3);
        s.enqueue(t.id(Affinity::Volume(1)), 4);
        let mut popped = Vec::new();
        while let Some((_, m)) = s.pop_runnable() {
            popped.push(m);
        }
        popped.sort_unstable();
        assert_eq!(popped, vec![1, 2, 3, 4]);
        assert_eq!(s.state().active(), 4);
    }

    #[test]
    fn excluded_message_waits_for_completion() {
        let mut s = sched();
        let t = Arc::clone(s.state().topology());
        let vl = t.id(Affinity::VolumeLogical(0));
        let stripe = t.id(Affinity::Stripe(0, 3));
        s.enqueue(vl, 1);
        let _ = s.pop_runnable().unwrap();
        s.enqueue(stripe, 2);
        assert!(s.pop_runnable().is_none());
        s.complete(vl);
        assert_eq!(s.pop_runnable().unwrap(), (stripe, 2));
    }

    #[test]
    fn serial_message_drains_the_system_first() {
        let mut s = sched();
        let t = Arc::clone(s.state().topology());
        let stripe = t.id(Affinity::Stripe(1, 0));
        let serial = t.id(Affinity::Serial);
        s.enqueue(stripe, 1);
        let _ = s.pop_runnable().unwrap();
        s.enqueue(serial, 2);
        assert!(s.pop_runnable().is_none(), "Serial waits for the stripe");
        s.complete(stripe);
        assert_eq!(s.pop_runnable().unwrap(), (serial, 2));
        // While Serial runs, nothing else does.
        s.enqueue(stripe, 3);
        assert!(s.pop_runnable().is_none());
        s.complete(serial);
        assert_eq!(s.pop_runnable().unwrap(), (stripe, 3));
    }

    #[test]
    fn idle_and_counters() {
        let mut s = sched();
        let t = Arc::clone(s.state().topology());
        assert!(s.is_idle());
        let a = t.id(Affinity::VolVbnRange(0, 1));
        s.enqueue(a, 7);
        assert!(!s.is_idle());
        assert_eq!(s.queued(), 1);
        assert_eq!(s.queue_len(a), 1);
        let _ = s.pop_runnable().unwrap();
        assert!(!s.is_idle(), "running counts as non-idle");
        s.complete(a);
        assert!(s.is_idle());
        assert_eq!(s.executed(), 1);
    }

    #[test]
    fn rotating_cursor_gives_rough_fairness() {
        let mut s = sched();
        let t = Arc::clone(s.state().topology());
        let a = t.id(Affinity::Stripe(0, 0));
        let b = t.id(Affinity::Stripe(0, 1));
        for i in 0..10 {
            s.enqueue(a, i);
            s.enqueue(b, 100 + i);
        }
        // Pop-complete one at a time: both queues should drain together,
        // not a-then-b.
        let mut first_ten = Vec::new();
        for _ in 0..10 {
            let (id, m) = s.pop_runnable().unwrap();
            s.complete(id);
            first_ten.push(m);
        }
        assert!(
            first_ten.iter().any(|&m| m >= 100) && first_ten.iter().any(|&m| m < 100),
            "both affinities make progress: {first_ten:?}"
        );
    }
}
