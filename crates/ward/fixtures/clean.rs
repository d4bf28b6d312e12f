// Fixture: a file every per-file check must pass untouched — correctly
// justified orderings, a closed pairs-with label, and ranked locks
// acquired in order.
struct Seed {
    // lock-rank: fixture-clean.outer 10
    outer: std::sync::Mutex<u32>,
    // lock-rank: fixture-clean.inner 20
    inner: std::sync::Mutex<u32>,
    flag: std::sync::atomic::AtomicBool,
}

impl Seed {
    fn publish(&self) {
        use std::sync::atomic::Ordering;
        // ordering: Release publish of the ready flag; the consumer's
        // Acquire load below completes the edge. pairs-with: fixture-clean.ready.
        self.flag.store(true, Ordering::Release);
    }

    fn consume(&self) -> bool {
        use std::sync::atomic::Ordering;
        // ordering: Acquire observe; pairs-with: fixture-clean.ready.
        self.flag.load(Ordering::Acquire)
    }

    fn nested(&self) {
        let outer = self.outer.lock().unwrap();
        let inner = self.inner.lock().unwrap();
        drop(inner);
        drop(outer);
    }
}
