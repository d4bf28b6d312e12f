//! Race-tracked interior mutability: a loom-style `UnsafeCell` whose
//! `with`/`with_mut` accessors feed the vector-clock race detector.

use crate::exec::{current, Execution};
use std::panic::Location;
use std::sync::Arc;

/// Lazily-registered model id, epoch-stamped like the atomics' ids.
#[derive(Debug, Default)]
struct LazyId(std::sync::atomic::AtomicU64);

impl LazyId {
    const fn new() -> Self {
        LazyId(std::sync::atomic::AtomicU64::new(0))
    }

    fn get(&self, ex: &Execution) -> u32 {
        // ordering: the token-passing scheduler serializes model-thread code.
        let packed = self.0.load(std::sync::atomic::Ordering::Relaxed);
        let (ep, id) = ((packed >> 32) as u32, packed as u32);
        if ep == ex.epoch && id != 0 {
            return id;
        }
        let id = ex.register_cell();
        // ordering: the token-passing scheduler serializes model-thread code.
        self.0.store(
            ((ex.epoch as u64) << 32) | id as u64,
            std::sync::atomic::Ordering::Relaxed,
        );
        id
    }
}

/// An `UnsafeCell` whose shared (`with`) and exclusive (`with_mut`)
/// accesses are checked for data races under the model, and compile to
/// plain pointer access otherwise.
#[derive(Debug)]
pub struct UnsafeCell<T> {
    real: std::cell::UnsafeCell<T>,
    id: LazyId,
}

impl<T> UnsafeCell<T> {
    /// Create a cell holding `t`.
    pub const fn new(t: T) -> Self {
        Self {
            real: std::cell::UnsafeCell::new(t),
            id: LazyId::new(),
        }
    }

    fn model(&self) -> Option<(Arc<Execution>, usize, u32)> {
        let (ex, tid) = current()?;
        if ex.is_ended() || std::thread::panicking() {
            return None;
        }
        let id = self.id.get(&ex);
        Some((ex, tid, id))
    }

    /// Shared access: a model read event (races with concurrent writes
    /// are reported with both source locations).
    #[track_caller]
    pub fn with<R>(&self, f: impl FnOnce(*const T) -> R) -> R {
        let loc = Location::caller();
        if let Some((ex, tid, id)) = self.model() {
            ex.cell_read(tid, id, loc);
        }
        f(self.real.get())
    }

    /// Exclusive access: a model write event.
    #[track_caller]
    pub fn with_mut<R>(&self, f: impl FnOnce(*mut T) -> R) -> R {
        let loc = Location::caller();
        if let Some((ex, tid, id)) = self.model() {
            ex.cell_write(tid, id, loc);
        }
        f(self.real.get())
    }
}
