//! `mc` — an in-repo deterministic concurrency model checker.
//!
//! A loom/shuttle-style controlled scheduler with no external
//! dependencies: test closures run under a virtual scheduler where every
//! shimmed atomic access, lock acquisition, and condvar operation is a
//! yield point, so the checker — not the OS — decides every
//! interleaving. Schedules are explored either pseudo-randomly with
//! replayable per-schedule seeds, or exhaustively with sleep-set
//! pruning (DPOR-lite). Along the way a vector-clock race detector
//! checks tracked `UnsafeCell` accesses, and an allowed-stale model for
//! `Relaxed` loads catches ordering bugs that pass every test on x86.
//!
//! See `crates/mc/README.md` for the replay workflow
//! (`MC_SEED`/`MC_SCHEDULES`/`MC_REPLAY`) and the model's documented
//! soundness gaps.
//!
//! ```
//! use mc::sync::atomic::{AtomicU64, Ordering};
//! use std::sync::Arc;
//!
//! let report = mc::Checker::new("counter").schedules(64).check(|| {
//!     let c = Arc::new(AtomicU64::new(0));
//!     let c2 = Arc::clone(&c);
//!     let t = mc::thread::spawn(move || {
//!         // ordering: model-checked example; Relaxed RMWs still count.
//!         c2.fetch_add(1, Ordering::Relaxed);
//!     });
//!     // ordering: as above.
//!     c.fetch_add(1, Ordering::Relaxed);
//!     t.join().unwrap();
//!     // ordering: as above.
//!     assert_eq!(c.load(Ordering::SeqCst), 2);
//! });
//! assert!(report.schedules_run >= 1);
//! ```

#![warn(missing_docs)]

pub mod cell;
mod checker;
mod clock;
mod exec;
// The shims hand out `&T`/`&mut T` from an `UnsafeCell` under the
// scheduler's exclusion; the crate's only `unsafe`.
#[allow(unsafe_code)]
pub mod sync_impl;
pub mod thread;

pub use checker::{timeouts_fired, Checker, Failure, Report};
pub use clock::MAX_THREADS;

/// Model-aware `Mutex`/`Condvar` and atomics (`mc::sync::atomic::*`).
pub mod sync {
    pub use crate::sync_impl::{Condvar, Mutex, MutexGuard, WaitTimeoutResult};

    /// Model-aware atomic integers.
    pub mod atomic {
        pub use crate::sync_impl::{AtomicU64, AtomicUsize};
        pub use std::sync::atomic::Ordering;
    }
}
