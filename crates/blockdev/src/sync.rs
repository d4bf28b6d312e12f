//! Synchronization shim: the single import point for the atomic and the
//! cell used by the lock-free completion ring (`aio.rs`).
//!
//! * Default build: zero-cost re-exports of `std::sync::atomic` and a
//!   thin `UnsafeCell` wrapper — identical codegen to using them
//!   directly.
//! * `--features mc`: the same names resolve to the `mc` crate's
//!   model-checker shims, turning every operation into a yield point of
//!   a controlled scheduler (see `crates/mc`). The checker's test suite
//!   builds this crate that way to explore submit/poll/drain
//!   interleavings of the completion-queue protocol exhaustively.
//!
//! Code under check must come through this module (never `std::sync`
//! directly) for the model to see its memory accesses. This mirrors
//! `alligator::sync`, which plays the same role for the bucket cache.

/// Atomics: `std::sync::atomic` types or their model-aware doubles.
pub mod atomic {
    #[cfg(feature = "mc")]
    pub use mc::sync::atomic::AtomicU64;
    #[cfg(not(feature = "mc"))]
    pub use std::sync::atomic::AtomicU64;
    pub use std::sync::atomic::Ordering;
}

/// Interior mutability with loom-style `with`/`with_mut` accessors, so
/// the model checker can race-check every shared cell access.
pub mod cell {
    #[cfg(feature = "mc")]
    pub use mc::cell::UnsafeCell;

    /// Zero-cost `UnsafeCell` wrapper exposing the same `with`/`with_mut`
    /// closure API the `mc` shim uses for race tracking.
    #[cfg(not(feature = "mc"))]
    #[derive(Debug)]
    pub struct UnsafeCell<T>(std::cell::UnsafeCell<T>);

    #[cfg(not(feature = "mc"))]
    impl<T> UnsafeCell<T> {
        /// Create a cell holding `t`.
        pub const fn new(t: T) -> Self {
            Self(std::cell::UnsafeCell::new(t))
        }

        /// Shared access via raw pointer (caller upholds aliasing rules).
        #[inline]
        pub fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
            f(self.0.get())
        }

        /// Exclusive access via raw pointer (caller upholds exclusivity).
        #[inline]
        pub fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
            f(self.0.get())
        }
    }
}
