//! Shutdown must not lose its wakeup. A worker tests the shutdown flag
//! with the scheduler lock held and releases the lock only inside `wait`;
//! a flag raised and notified *without* that lock can land between the
//! test and the wait, and the worker then sleeps through shutdown while
//! `Drop` waits in `join` forever. Seen as a hang of whichever test or
//! benchmark run dropped a pooled `Filesystem` last; 30 000 pools
//! reproduce it within seconds when the flag is raised outside the lock.

use std::sync::Arc;
use waffinity::{Affinity, Model, Topology, WaffinityPool};

#[test]
fn drop_right_after_work_never_hangs() {
    let topo = Arc::new(Topology::symmetric(Model::Hierarchical, 1, 2, 4, 2));
    for i in 0..30_000u32 {
        let pool = WaffinityPool::new(Arc::clone(&topo), 2);
        pool.send(Affinity::Stripe(0, i % 4), || {});
        pool.wait_idle();
        // Both workers are now on their way back to `wait`.
        drop(pool);
    }
}
