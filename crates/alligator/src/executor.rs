//! Where infrastructure messages execute.
//!
//! The White Alligator infrastructure "runs as messages in Waffinity"
//! (§IV). The allocator is agnostic to *how* those messages are executed:
//!
//! * [`PoolExecutor`] sends them to a real [`WaffinityPool`] — the
//!   production-like configuration, used by the real-thread stack and the
//!   MP-safety tests;
//! * [`InlineExecutor`] runs them synchronously on the calling thread —
//!   used by deterministic unit tests and by the discrete-event simulator,
//!   which performs its own affinity-aware scheduling under virtual time
//!   and only needs the message *bodies*.

use std::sync::Arc;
use waffinity::{Affinity, WaffinityPool};

/// An executor for infrastructure messages.
pub trait Executor: Send + Sync {
    /// Run `f` in affinity `a` (possibly asynchronously).
    fn submit(&self, a: Affinity, f: Box<dyn FnOnce() + Send>);

    /// Block until all previously submitted messages have completed.
    fn drain(&self);
}

/// Runs every message synchronously on the calling thread.
#[derive(Debug, Default, Clone, Copy)]
pub struct InlineExecutor;

impl Executor for InlineExecutor {
    fn submit(&self, _a: Affinity, f: Box<dyn FnOnce() + Send>) {
        f();
    }

    fn drain(&self) {}
}

/// Sends messages to a shared Waffinity thread pool.
#[derive(Debug, Clone)]
pub struct PoolExecutor {
    pool: Arc<WaffinityPool>,
}

impl PoolExecutor {
    /// Wrap a pool.
    pub fn new(pool: Arc<WaffinityPool>) -> Self {
        Self { pool }
    }

    /// The underlying pool.
    pub fn pool(&self) -> &Arc<WaffinityPool> {
        &self.pool
    }
}

impl Executor for PoolExecutor {
    fn submit(&self, a: Affinity, f: Box<dyn FnOnce() + Send>) {
        self.pool.send(a, f);
    }

    fn drain(&self) {
        self.pool.wait_idle();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use waffinity::{Model, Topology};

    #[test]
    fn inline_runs_immediately() {
        let hits = Arc::new(AtomicU32::new(0));
        let h = Arc::clone(&hits);
        let e = InlineExecutor;
        e.submit(
            Affinity::Serial,
            Box::new(move || {
                // ordering: statistics counter; staleness is acceptable.
                h.fetch_add(1, Ordering::Relaxed);
            }),
        );
        // ordering: test readback.
        assert_eq!(hits.load(Ordering::Relaxed), 1);
        e.drain();
    }

    #[test]
    fn pool_executor_drains() {
        let topo = Arc::new(Topology::symmetric(Model::Hierarchical, 1, 1, 2, 2));
        let pool = Arc::new(WaffinityPool::new(topo, 2));
        let e = PoolExecutor::new(pool);
        let hits = Arc::new(AtomicU32::new(0));
        for i in 0..10u32 {
            let h = Arc::clone(&hits);
            e.submit(
                Affinity::AggrVbnRange(0, i % 2),
                Box::new(move || {
                    // ordering: statistics counter; staleness is acceptable.
                    h.fetch_add(1, Ordering::Relaxed);
                }),
            );
        }
        e.drain();
        // ordering: test readback.
        assert_eq!(hits.load(Ordering::Relaxed), 10);
    }
}
