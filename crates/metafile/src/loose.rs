//! Loose accounting: batched per-thread counter updates.
//!
//! From §III-C of the paper: "cleaner threads were extended to use *loose
//! accounting*, wherein counter updates were staged in a local token that
//! was later applied to the global counters in a batched fashion … Loose
//! accounting allowed the counters' values to deviate from their
//! instantaneous logical values, and all counter accesses had to be
//! audited and corrected to deal with temporary discrepancies."
//!
//! [`LooseCounter`] is the shared global; each cleaner thread holds a
//! [`LooseToken`] and stages deltas locally, flushing to the global only
//! when the staged magnitude reaches the batch threshold (or on drop).
//! `value_loose()` may therefore lag reality by up to
//! `threshold × tokens`; `flush`-then-read (`reconcile`) is exact.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// A shared counter updated loosely through per-thread tokens.
///
/// ```
/// use wafl_metafile::LooseCounter;
///
/// let free_blocks = LooseCounter::new(1_000);
/// let mut token = free_blocks.token(64); // one per cleaner thread
/// for _ in 0..10 {
///     token.add(-1); // allocation decrements, staged locally
/// }
/// // The global lags until the batch threshold (or a flush):
/// assert_eq!(free_blocks.value_loose(), 1_000);
/// token.flush();
/// assert_eq!(free_blocks.value_loose(), 990);
/// ```
#[derive(Debug, Default)]
pub struct LooseCounter {
    global: AtomicI64,
    /// Number of batched applications (fewer global RMWs = less
    /// contention).
    applies: AtomicU64,
}

impl LooseCounter {
    /// New counter with initial value.
    pub fn new(initial: i64) -> Arc<Self> {
        Arc::new(Self {
            global: AtomicI64::new(initial),
            applies: AtomicU64::new(0),
        })
    }

    /// The *loose* value: excludes deltas still staged in tokens.
    #[inline]
    pub fn value_loose(&self) -> i64 {
        // ordering: loose accounting by design (DESIGN.md) — staleness is the feature.
        self.global.load(Ordering::Relaxed)
    }

    /// How many batched applications have hit the global so far.
    #[inline]
    pub fn apply_count(&self) -> u64 {
        // ordering: loose accounting by design (DESIGN.md) — staleness is the feature.
        self.applies.load(Ordering::Relaxed)
    }

    /// Apply a batched delta directly (the token flush path, but also
    /// usable for strict accounting with `threshold = 0` semantics).
    #[inline]
    pub fn apply(&self, delta: i64) {
        if delta != 0 {
            // ordering: loose accounting by design (DESIGN.md) — staleness is the feature.
            self.global.fetch_add(delta, Ordering::Relaxed);
            // ordering: loose accounting by design (DESIGN.md) — staleness is the feature.
            self.applies.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Create a token that batches up to `threshold` magnitude before
    /// flushing. `threshold = 0` degenerates to strict (every update goes
    /// straight to the global — the pre-loose-accounting behaviour used as
    /// the M4 baseline). Negative thresholds batch by magnitude;
    /// `i64::MIN` is fine (`unsigned_abs`, unlike `abs`, cannot overflow).
    pub fn token(self: &Arc<Self>, threshold: i64) -> LooseToken {
        LooseToken {
            counter: Arc::clone(self),
            staged: 0,
            threshold: threshold.unsigned_abs(),
        }
    }
}

/// A per-thread staging token for a [`LooseCounter`].
///
/// Not `Sync`: exactly one thread owns a token, which is the whole point —
/// updates to `staged` are unsynchronized.
#[derive(Debug)]
pub struct LooseToken {
    counter: Arc<LooseCounter>,
    staged: i64,
    threshold: u64,
}

impl LooseToken {
    /// Stage a delta; flushes automatically when the staged magnitude
    /// reaches the threshold. Staging never overflows: if the running sum
    /// would wrap, the old stage is flushed first and `delta` starts a
    /// fresh one, so no update is ever lost or distorted.
    #[inline]
    pub fn add(&mut self, delta: i64) {
        let (sum, overflowed) = self.staged.overflowing_add(delta);
        if overflowed {
            self.flush();
            self.staged = delta;
        } else {
            self.staged = sum;
        }
        if self.threshold == 0 || self.staged.unsigned_abs() >= self.threshold {
            self.flush();
        }
    }

    /// Currently staged (unapplied) delta.
    #[inline]
    pub fn staged(&self) -> i64 {
        self.staged
    }

    /// Apply the staged delta to the global counter now.
    pub fn flush(&mut self) {
        if self.staged != 0 {
            self.counter.apply(self.staged);
            self.staged = 0;
        }
    }
}

impl Drop for LooseToken {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strict_token_applies_every_update() {
        let c = LooseCounter::new(0);
        let mut t = c.token(0);
        for _ in 0..10 {
            t.add(1);
        }
        assert_eq!(c.value_loose(), 10);
        assert_eq!(c.apply_count(), 10);
    }

    #[test]
    fn loose_token_batches() {
        let c = LooseCounter::new(100);
        let mut t = c.token(8);
        for _ in 0..7 {
            t.add(1);
        }
        // Below threshold: global lags.
        assert_eq!(c.value_loose(), 100);
        assert_eq!(t.staged(), 7);
        t.add(1); // hits threshold → flush
        assert_eq!(c.value_loose(), 108);
        assert_eq!(c.apply_count(), 1);
    }

    #[test]
    fn negative_deltas_batch_by_magnitude() {
        let c = LooseCounter::new(0);
        let mut t = c.token(4);
        t.add(-3);
        assert_eq!(c.value_loose(), 0);
        t.add(-1);
        assert_eq!(c.value_loose(), -4);
    }

    #[test]
    fn drop_flushes_remainder() {
        let c = LooseCounter::new(0);
        {
            let mut t = c.token(1000);
            t.add(5);
            assert_eq!(c.value_loose(), 0);
        }
        assert_eq!(c.value_loose(), 5);
    }

    #[test]
    fn mixed_signs_can_cancel_without_applying() {
        let c = LooseCounter::new(0);
        let mut t = c.token(10);
        t.add(5);
        t.add(-5);
        t.flush();
        assert_eq!(c.value_loose(), 0);
        assert_eq!(c.apply_count(), 0, "net-zero flush is free");
    }

    #[test]
    fn concurrent_tokens_reconcile_exactly() {
        let c = LooseCounter::new(0);
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                let mut t = c.token(64);
                for i in 0..10_000i64 {
                    t.add(if i % 3 == 0 { -1 } else { 1 });
                }
                // Token drop flushes the tail.
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Per thread: 3334 negative, 6666 positive → +3332.
        assert_eq!(c.value_loose(), 8 * 3332);
    }

    #[test]
    fn extreme_threshold_does_not_panic() {
        // Regression: `threshold.abs()` panicked on i64::MIN. The token
        // must treat it as its magnitude (2^63) and simply never flush
        // early.
        let c = LooseCounter::new(0);
        let mut t = c.token(i64::MIN);
        t.add(100);
        assert_eq!(c.value_loose(), 0, "staged, threshold unreachable");
        t.flush();
        assert_eq!(c.value_loose(), 100);
    }

    #[test]
    fn staged_sum_overflow_flushes_instead_of_wrapping() {
        // Regression: `staged += delta` overflowed in debug builds. The
        // running stage must flush and restart rather than wrap, losing
        // nothing.
        let c = LooseCounter::new(0);
        let mut t = c.token(i64::MIN); // magnitude 2^63: never reached by
                                       // any single staged sum below
        t.add(i64::MAX);
        assert_eq!(c.value_loose(), 0, "MAX stays staged");
        t.add(1); // MAX + 1 would wrap: flush MAX first, then stage 1
        assert_eq!(c.value_loose(), i64::MAX);
        assert_eq!(t.staged(), 1);
        t.add(-3); // staged -2
        t.add(i64::MIN); // -2 + MIN would wrap: flush -2, stage MIN —
                         // which hits the 2^63 threshold and flushes too
        assert_eq!(c.value_loose(), -3, "MAX - 2 + MIN");
        assert_eq!(t.staged(), 0);
    }

    #[test]
    fn batching_reduces_global_rmw_count() {
        let strict = LooseCounter::new(0);
        let loose = LooseCounter::new(0);
        let mut ts = strict.token(0);
        let mut tl = loose.token(64);
        for _ in 0..1000 {
            ts.add(1);
            tl.add(1);
        }
        ts.flush();
        tl.flush();
        assert_eq!(strict.value_loose(), loose.value_loose());
        assert!(loose.apply_count() * 10 < strict.apply_count());
    }
}
