// Fixture: a file every per-file check must pass untouched — correctly
// justified orderings and a closed pairs-with label.
struct Seed {
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
}
