//! Event taxonomy: the typed vocabulary every trace point in the
//! workspace records into its thread's ring (see DESIGN.md §11).
//!
//! Kinds are deliberately coarse — one per lifecycle edge the paper's
//! evaluation cares about — so a trace stays readable in Perfetto and
//! one fixed-size [`Event`] (kind + ts + dur + one argument word) suffices.

use serde::Serialize;

/// What happened. `arg` meaning is per-kind (documented on each variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum EventKind {
    /// Span: a cleaner blocked in `get_bucket_many` until buckets
    /// arrived. `arg` = buckets granted.
    Get,
    /// Instant: a GET found the cache empty and had to wait on the
    /// refill condvar. `arg` = buckets still wanted.
    GetStall,
    /// Instant: USE activity on a bucket, recorded once per PUT at
    /// bucket granularity (the per-block USE path is intentionally
    /// untraced — it has zero synchronization; §IV-C). `arg` = blocks
    /// consumed from the bucket.
    Use,
    /// Instant: a bucket was PUT (returned or retired). `arg` =
    /// blocks consumed.
    Put,
    /// Span: infrastructure commit of a PUT bucket (used-queue walk +
    /// release of leftovers). `arg` = blocks committed to used queues.
    CommitBucket,
    /// Span: one infrastructure refill round. `arg` = buckets built.
    Refill,
    /// Instant: a collective `insert_all` handed a refill round's
    /// buckets to the cache in one call. `arg` = bucket count.
    InsertAll,
    /// Span: tetris fired a full stripe write to a RAID group.
    /// `arg` = blocks in the stripe.
    StripeFire,
    /// Span: a stage of deferred frees committed to the metafiles.
    /// `arg` = VBNs freed.
    StageCommit,
    /// Span: a cleaner-pool worker processed one work item.
    /// `arg` = cleaning jobs in the item.
    CleanItem,
    /// Span: one checkpoint phase (freeze / clean / apply / metafile
    /// flush / I/O barrier / superblock commit). `arg` = phase number,
    /// 1-based, indexing `wafl::cp::CP_PHASE_NAMES`.
    CpPhase,
    /// Instant: the fault injector fired on an I/O. `arg` = decision
    /// code (1 slow, 2 drive-failed, 3 transient, 4 torn write).
    Fault,
    /// Catch-all for tests and ad-hoc probes. `arg` is caller-defined.
    Custom,
    /// Span: one scrub range message (an allocation-area unit walked by
    /// the online scrubber). `arg` = blocks checked in the unit.
    Scrub,
    /// Span: one asynchronous write I/O serviced by an `aio` worker
    /// (submit-ring pop → media completion). `arg` = blocks written.
    Io,
}

impl EventKind {
    /// Stable lowercase name, used by the Chrome exporter and text dumps.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Get => "get",
            EventKind::GetStall => "get_stall",
            EventKind::Use => "use",
            EventKind::Put => "put",
            EventKind::CommitBucket => "commit_bucket",
            EventKind::Refill => "refill",
            EventKind::InsertAll => "insert_all",
            EventKind::StripeFire => "stripe_fire",
            EventKind::StageCommit => "stage_commit",
            EventKind::CleanItem => "clean_item",
            EventKind::CpPhase => "cp_phase",
            EventKind::Fault => "fault",
            EventKind::Custom => "custom",
            EventKind::Scrub => "scrub",
            EventKind::Io => "io",
        }
    }
}

/// One ring event, as returned by `EventRing::snapshot`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Event {
    /// Event type.
    pub kind: EventKind,
    /// Start timestamp, nanoseconds since the process trace epoch.
    pub ts_ns: u64,
    /// Duration in nanoseconds; 0 for instants.
    pub dur_ns: u64,
    /// Per-kind argument word (see `EventKind` variant docs).
    pub arg: u64,
    /// Position in the thread's event sequence (0-based, monotonically
    /// increasing; gaps never occur — overwritten events are counted in
    /// the snapshot's `dropped` instead).
    pub seq: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_are_unique() {
        use EventKind::*;
        let kinds = [
            Get,
            GetStall,
            Use,
            Put,
            CommitBucket,
            Refill,
            InsertAll,
            StripeFire,
            StageCommit,
            CleanItem,
            CpPhase,
            Fault,
            Custom,
            Scrub,
            Io,
        ];
        let mut names: Vec<_> = kinds.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), kinds.len());
    }
}
