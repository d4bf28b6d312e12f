//! Model-aware drop-in replacements for `std::sync::atomic`, `Mutex`,
//! and `Condvar`.
//!
//! Every type here has two modes, decided per operation:
//!
//! * **model**: the calling thread belongs to a live [`Execution`] —
//!   the op becomes a scheduler yield point and its semantics come from
//!   the model (stale-`Relaxed` loads, virtual timeouts, …);
//! * **passthrough**: no execution context (plain `cargo test` with the
//!   `mc` feature unified on), the run has ended, or the thread is
//!   unwinding — the op delegates to the real std primitive.
//!
//! Atomics keep a real std atomic mirroring the *latest* model value, so
//! passthrough reads after a run observe a consistent final state, and
//! lazy registration can seed the model from values written before the
//! execution started (e.g. in `const` initialisers).

use crate::exec::{current, Execution, MOrd};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

fn mord(o: Ordering) -> MOrd {
    match o {
        // ordering: this match *translates* orderings; it performs no access.
        Ordering::Relaxed => MOrd::Relaxed,
        Ordering::Acquire => MOrd::Acquire,
        Ordering::Release => MOrd::Release,
        Ordering::AcqRel => MOrd::AcqRel,
        _ => MOrd::SeqCst,
    }
}

/// Lazily-assigned model object id, stamped with the execution epoch so
/// ids from a previous run are never trusted (objects can outlive one
/// schedule via statics or leaks).
#[derive(Debug, Default)]
struct LazyId(std::sync::atomic::AtomicU64);

impl LazyId {
    const fn new() -> Self {
        LazyId(std::sync::atomic::AtomicU64::new(0))
    }

    fn get(&self, ex: &Execution, register: impl FnOnce() -> u32) -> u32 {
        // ordering: the token-passing scheduler serializes model-thread code.
        let packed = self.0.load(Ordering::Relaxed);
        let (ep, id) = ((packed >> 32) as u32, packed as u32);
        if ep == ex.epoch && id != 0 {
            return id;
        }
        // Only the token-holding thread executes user code, so lazy
        // registration cannot race another model thread.
        let id = register();
        // ordering: the token-passing scheduler serializes model-thread code.
        self.0
            .store(((ex.epoch as u64) << 32) | id as u64, Ordering::Relaxed);
        id
    }
}

/// Model context for this op, or `None` → passthrough.
fn model_ctx() -> Option<(Arc<Execution>, usize)> {
    let (ex, tid) = current()?;
    if ex.is_ended() || std::thread::panicking() {
        return None;
    }
    Some((ex, tid))
}

macro_rules! atomic_int {
    ($name:ident, $raw:ty, $prim:ty) => {
        /// Model-aware atomic integer (see module docs for mode rules).
        #[derive(Debug, Default)]
        pub struct $name {
            real: $raw,
            id: LazyId,
        }

        impl $name {
            /// Create with an initial value (const, like std).
            pub const fn new(v: $prim) -> Self {
                Self {
                    real: <$raw>::new(v),
                    id: LazyId::new(),
                }
            }

            fn model(&self) -> Option<(Arc<Execution>, usize, u32)> {
                let (ex, tid) = model_ctx()?;
                let id = self.id.get(&ex, || {
                    // ordering: non-model mirror; the model layer owns it.
                    ex.register_atomic(tid, self.real.load(Ordering::Relaxed) as u64)
                });
                Some((ex, tid, id))
            }

            /// Atomic load; under the model a `Relaxed` load may return
            /// any coherence-allowed stale value.
            pub fn load(&self, ord: Ordering) -> $prim {
                match self.model() {
                    Some((ex, tid, id)) => ex.atomic_load(tid, id, mord(ord)) as $prim,
                    None => self.real.load(ord),
                }
            }

            /// Atomic store.
            pub fn store(&self, v: $prim, ord: Ordering) {
                match self.model() {
                    Some((ex, tid, id)) => {
                        ex.atomic_store(tid, id, v as u64, mord(ord));
                        self.real.store(v, Ordering::Relaxed); // ordering: non-model mirror; the model layer owns ordering.
                    }
                    None => self.real.store(v, ord),
                }
            }

            /// Atomic swap; returns the previous value.
            pub fn swap(&self, v: $prim, ord: Ordering) -> $prim {
                match self.model() {
                    Some((ex, tid, id)) => {
                        let old = ex.atomic_rmw(tid, id, |_| v as u64, mord(ord)) as $prim;
                        self.real.store(v, Ordering::Relaxed); // ordering: non-model mirror; the model layer owns ordering.
                        old
                    }
                    None => self.real.swap(v, ord),
                }
            }

            /// Atomic add; returns the previous value.
            pub fn fetch_add(&self, v: $prim, ord: Ordering) -> $prim {
                match self.model() {
                    Some((ex, tid, id)) => {
                        let old = ex.atomic_rmw(
                            tid,
                            id,
                            |x| (x as $prim).wrapping_add(v) as u64,
                            mord(ord),
                        ) as $prim;
                        self.real.store(old.wrapping_add(v), Ordering::Relaxed); // ordering: non-model mirror; the model layer owns ordering.
                        old
                    }
                    None => self.real.fetch_add(v, ord),
                }
            }

            /// Atomic subtract; returns the previous value.
            pub fn fetch_sub(&self, v: $prim, ord: Ordering) -> $prim {
                match self.model() {
                    Some((ex, tid, id)) => {
                        let old = ex.atomic_rmw(
                            tid,
                            id,
                            |x| (x as $prim).wrapping_sub(v) as u64,
                            mord(ord),
                        ) as $prim;
                        self.real.store(old.wrapping_sub(v), Ordering::Relaxed); // ordering: non-model mirror; the model layer owns ordering.
                        old
                    }
                    None => self.real.fetch_sub(v, ord),
                }
            }

            /// Atomic max; returns the previous value.
            pub fn fetch_max(&self, v: $prim, ord: Ordering) -> $prim {
                match self.model() {
                    Some((ex, tid, id)) => {
                        let old = ex.atomic_rmw(tid, id, |x| (x as $prim).max(v) as u64, mord(ord))
                            as $prim;
                        self.real.store(old.max(v), Ordering::Relaxed); // ordering: non-model mirror; the model layer owns ordering.
                        old
                    }
                    None => self.real.fetch_max(v, ord),
                }
            }

            /// Strong compare-exchange.
            pub fn compare_exchange(
                &self,
                cur: $prim,
                new: $prim,
                ok: Ordering,
                fail: Ordering,
            ) -> Result<$prim, $prim> {
                match self.model() {
                    Some((ex, tid, id)) => {
                        let r =
                            ex.atomic_cas(tid, id, cur as u64, new as u64, mord(ok), mord(fail));
                        if r.is_ok() {
                            self.real.store(new, Ordering::Relaxed); // ordering: non-model mirror; the model layer owns ordering.
                        }
                        r.map(|v| v as $prim).map_err(|v| v as $prim)
                    }
                    None => self.real.compare_exchange(cur, new, ok, fail),
                }
            }

            /// Weak compare-exchange (modelled identically to the strong
            /// one — the model has no spurious failures).
            pub fn compare_exchange_weak(
                &self,
                cur: $prim,
                new: $prim,
                ok: Ordering,
                fail: Ordering,
            ) -> Result<$prim, $prim> {
                self.compare_exchange(cur, new, ok, fail)
            }
        }
    };
}

atomic_int!(AtomicU64, std::sync::atomic::AtomicU64, u64);
atomic_int!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);

// ---------------------------------------------------------------------------
// Mutex / Condvar (parking_lot-flavoured API)
// ---------------------------------------------------------------------------

/// Model-aware mutex with a `parking_lot`-style infallible API.
pub struct Mutex<T> {
    /// Passthrough exclusion; the model uses the scheduler instead.
    raw: std::sync::Mutex<()>,
    data: std::cell::UnsafeCell<T>,
    id: LazyId,
}

impl<T> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mutex").finish_non_exhaustive()
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

// SAFETY: in passthrough mode `raw` provides exclusion for `data`; in
// model mode the scheduler's held-map does (only the token-holding
// thread runs, and the model grants a lock only while it is free).
unsafe impl<T: Send> Send for Mutex<T> {}
// SAFETY: as above — `&Mutex<T>` only hands out `&T`/`&mut T` through a
// guard whose uniqueness is enforced by `raw` or by the model.
unsafe impl<T: Send> Sync for Mutex<T> {}

/// RAII guard for [`Mutex`]; unlocks (as a model yield point) on drop.
pub struct MutexGuard<'a, T> {
    m: &'a Mutex<T>,
    raw: Option<std::sync::MutexGuard<'a, ()>>,
    model: Option<(Arc<Execution>, usize, u32)>,
}

impl<T> Mutex<T> {
    /// Create a mutex protecting `t`.
    pub const fn new(t: T) -> Self {
        Self {
            raw: std::sync::Mutex::new(()),
            data: std::cell::UnsafeCell::new(t),
            id: LazyId::new(),
        }
    }

    fn model(&self) -> Option<(Arc<Execution>, usize, u32)> {
        let (ex, tid) = model_ctx()?;
        let id = self.id.get(&ex, || ex.register_sync_obj());
        Some((ex, tid, id))
    }

    /// Lock, blocking (a scheduler-visible blocking op under the model).
    pub fn lock(&self) -> MutexGuard<'_, T> {
        match self.model() {
            Some((ex, tid, id)) => {
                ex.mutex_lock(tid, id);
                MutexGuard {
                    m: self,
                    raw: None,
                    model: Some((ex, tid, id)),
                }
            }
            None => MutexGuard {
                m: self,
                raw: Some(self.raw.lock().unwrap_or_else(|p| p.into_inner())),
                model: None,
            },
        }
    }

    /// Non-blocking lock attempt.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.model() {
            Some((ex, tid, id)) => {
                if ex.mutex_try_lock(tid, id) {
                    Some(MutexGuard {
                        m: self,
                        raw: None,
                        model: Some((ex, tid, id)),
                    })
                } else {
                    None
                }
            }
            None => match self.raw.try_lock() {
                Ok(g) => Some(MutexGuard {
                    m: self,
                    raw: Some(g),
                    model: None,
                }),
                Err(std::sync::TryLockError::WouldBlock) => None,
                Err(std::sync::TryLockError::Poisoned(p)) => Some(MutexGuard {
                    m: self,
                    raw: Some(p.into_inner()),
                    model: None,
                }),
            },
        }
    }

    /// Exclusive access without locking.
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the guard's existence proves exclusion (raw lock held
        // in passthrough; model grant in model mode).
        unsafe { &*self.m.data.get() }
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in `deref` — exclusive while the guard lives.
        unsafe { &mut *self.m.data.get() }
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if let Some((ex, tid, id)) = self.model.take() {
            if ex.is_ended() || std::thread::panicking() {
                // Teardown: release scheduler state without yielding
                // (yielding could panic inside this Drop).
                ex.mutex_unlock_abort(tid, id);
            } else {
                ex.mutex_unlock(tid, id);
            }
        }
    }
}

/// Result of a timed condvar wait.
pub struct WaitTimeoutResult(pub(crate) bool);

impl WaitTimeoutResult {
    /// True iff the wait ended by timeout rather than notification.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// Model-aware condition variable. Under the model, timed waits use
/// *virtual* time: they only time out when no other thread is runnable,
/// so a fired timeout is a scheduler-proven liveness fact, not a race
/// against the wall clock.
#[derive(Default)]
pub struct Condvar {
    real: std::sync::Condvar,
    id: LazyId,
}

impl std::fmt::Debug for Condvar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Condvar").finish_non_exhaustive()
    }
}

impl Condvar {
    /// Create a condvar.
    pub const fn new() -> Self {
        Self {
            real: std::sync::Condvar::new(),
            id: LazyId::new(),
        }
    }

    fn model_for<T>(&self, guard: &MutexGuard<'_, T>) -> Option<(Arc<Execution>, usize, u32, u32)> {
        let (ex, tid, mid) = guard.model.clone()?;
        if ex.is_ended() || std::thread::panicking() {
            return None;
        }
        let cid = self.id.get(&ex, || ex.register_sync_obj());
        Some((ex, tid, mid, cid))
    }

    /// Block until notified, releasing the guard's mutex while waiting.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        match self.model_for(guard) {
            Some((ex, tid, mid, cid)) => {
                ex.cv_wait(tid, cid, mid, false);
            }
            None => {
                if let Some(raw) = guard.raw.take() {
                    guard.raw = Some(self.real.wait(raw).unwrap_or_else(|p| p.into_inner()));
                }
            }
        }
    }

    /// Block until notified or the deadline passes (virtual under the
    /// model: fires only when nothing else can run).
    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Instant,
    ) -> WaitTimeoutResult {
        match self.model_for(guard) {
            Some((ex, tid, mid, cid)) => WaitTimeoutResult(ex.cv_wait(tid, cid, mid, true)),
            None => {
                let Some(raw) = guard.raw.take() else {
                    // Model guard on an ended run: nothing to wait for.
                    return WaitTimeoutResult(true);
                };
                let dur = deadline.saturating_duration_since(Instant::now());
                let (raw, r) = self
                    .real
                    .wait_timeout(raw, dur)
                    .unwrap_or_else(|p| p.into_inner());
                guard.raw = Some(raw);
                WaitTimeoutResult(r.timed_out())
            }
        }
    }

    /// Wake one waiter (scheduler-chosen under the model).
    pub fn notify_one(&self) {
        match model_ctx() {
            Some((ex, tid)) => {
                let cid = self.id.get(&ex, || ex.register_sync_obj());
                ex.cv_notify(tid, cid, false);
            }
            None => self.real.notify_one(),
        }
    }

    /// Wake all waiters; returns how many were woken (0 in passthrough,
    /// where std does not report a count).
    pub fn notify_all(&self) -> usize {
        match model_ctx() {
            Some((ex, tid)) => {
                let cid = self.id.get(&ex, || ex.register_sync_obj());
                ex.cv_notify(tid, cid, true)
            }
            None => {
                self.real.notify_all();
                0
            }
        }
    }
}
