//! The discrete-event simulation engine.
//!
//! State machine summary (see the crate docs for the couplings):
//!
//! ```text
//! client: Issue ──(admission gate)──▶ Protocol ──▶ ClientMsg ──▶ Reply ─┐
//!    ▲                                   (core)    (core, Stripe aff.)  │
//!    └────────────────────── think time ◀──────────────────────────────┘
//!
//! dirty pool ──▶ cleaner quantum (core, needs bucket) ──▶ CommitUsed msg
//!                      │                                  CommitFrees msg
//!                      └── bucket cache ◀── Refill msg (Range/serial aff.)
//! ```
//!
//! Cores are a counted resource; Waffinity-gated tasks flow through the
//! *real* [`waffinity::Scheduler`], so infrastructure concurrency obeys
//! the same exclusion rules as the real-thread stack.

use crate::config::{CleanerSetting, Era, SimConfig};
use crate::metrics::{CoreUsage, LatencyStats};
use crate::workload::{distinct_mf_blocks, OpShape, Workload};
use alligator::InfraMode;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use serde::Serialize;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;
use waffinity::{Affinity, AffinityId, ExclusionState, Model, Scheduler, Topology};
use wafl::DynamicTuner;

/// Aggregated outcome of one simulation run.
#[derive(Debug, Clone, Serialize)]
pub struct SimResult {
    /// Measured window (ns).
    pub measured_ns: u64,
    /// Ops completed in the window.
    pub ops_completed: u64,
    /// Blocks written in the window.
    pub blocks_written: u64,
    /// Throughput, ops/s.
    pub throughput_ops: f64,
    /// Throughput per client, ops/s (the paper's y-axis).
    pub throughput_per_client: f64,
    /// Latency distribution.
    pub latency: LatencyStats,
    /// Component core usage.
    pub usage: CoreUsage,
    /// Mean active cleaner threads over the window.
    pub avg_active_cleaners: f64,
    /// GETs that found the bucket cache empty.
    pub bucket_stalls: u64,
    /// Refill rounds executed.
    pub refills: u64,
    /// Cleaner messages executed (for §V-C accounting).
    pub cleaner_messages: u64,
    /// Distinct metafile blocks charged to free commits.
    pub free_mf_blocks: u64,
    /// Tuner activations + deactivations (0 for fixed settings).
    pub tuner_changes: u64,
    /// Ops that hit an injected media fault (error or latency spike).
    pub injected_faults: u64,
    /// Retry round-trips paid by faulted ops.
    pub fault_retries: u64,
    /// Buckets handed out by GETs that found the cache non-empty.
    pub cache_get_fast: u64,
    /// Modeled time cleaners spent waiting on the contended cache lock
    /// (the extra bucket-sync cost beyond the uncontended baseline).
    pub cache_lock_waits_ns: u64,
    /// Bucket GETs that found the cache empty (the §IV-D starvation
    /// case; same events as `bucket_stalls`, named for the cache layer).
    pub cache_blocked_gets: u64,
    /// Extra buckets (beyond the first) obtained by batched `get_many`
    /// pops — each one is a GET synchronization the cleaner did not pay.
    pub cache_get_batched: u64,
    /// High-water mark of used-bucket commits outstanding at the
    /// infrastructure — the PUT-side convoy depth (§IV-C: one metafile
    /// commit per bucket; a slow infrastructure backs this queue up).
    pub put_commit_queue_len: u64,
    /// Total infrastructure time spent committing used buckets.
    pub commit_batch_ns: u64,
    /// Modeled async writes (used-bucket commits submitted to the
    /// infrastructure) still awaiting completion when the run ended —
    /// the DES analog of `blockdev::aio`'s `io_inflight` gauge.
    pub io_inflight: u64,
    /// High-water mark of modeled async writes in flight during the
    /// measured window (the sim's `io_queue_depth` high-water).
    pub io_queue_depth_peak: u64,
    /// Total modeled submit→complete time over the window: queue wait
    /// at the infrastructure plus each commit's service cost, the DES
    /// analog of the aio engine's `io_submit_to_complete_ns` histogram.
    pub io_submit_to_complete_ns: u64,
}

impl SimResult {
    /// Cores used by write allocation (cleaners + infrastructure).
    pub fn write_alloc_cores(&self) -> f64 {
        self.usage.write_alloc_cores(self.measured_ns)
    }

    /// Total cores used.
    pub fn total_cores(&self) -> f64 {
        self.usage.total_cores(self.measured_ns)
    }
}

#[derive(Debug, Clone, Copy)]
enum InfraKind {
    Refill { take: u64 },
    CommitUsed { vbns: u64 },
    CommitFrees { frees: u64, mf_blocks: u64 },
}

#[derive(Debug, Clone, Copy)]
enum Task {
    Protocol {
        client: u32,
        op: OpShape,
        issued: u64,
    },
    ClientMsg {
        client: u32,
        op: OpShape,
        issued: u64,
        aff: AffinityId,
    },
    Infra {
        kind: InfraKind,
        aff: AffinityId,
    },
    CleanerQuantum {
        cleaner: usize,
        bufs: u64,
        inodes: u64,
        msgs: u64,
        /// Set when the quantum executes as a Waffinity message (pre-2008
        /// eras where cleaning ran in the Serial affinity) rather than on
        /// a dedicated cleaner thread.
        via: Option<AffinityId>,
        /// Set on the first quantum after a bucket GET: only that quantum
        /// pays the GET+PUT synchronization cost. Batched `get_many` pops
        /// hand out several buckets per synchronization, so follow-on
        /// buckets run sync-free quanta.
        synced: bool,
    },
}

#[derive(Debug, Clone, Copy)]
enum Event {
    Issue { client: u32 },
    Done { task: Task },
    Reply { client: u32, issued: u64 },
    TunerTick,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CleanerState {
    Idle,
    Running,
    WaitingBucket,
}

/// The simulator: build with a [`SimConfig`], call [`Simulator::run`].
pub struct Simulator {
    cfg: SimConfig,
}

impl Simulator {
    /// New simulator.
    pub fn new(cfg: SimConfig) -> Self {
        Self { cfg }
    }

    /// Run to completion and summarize.
    pub fn run(&self) -> SimResult {
        Engine::new(&self.cfg).run()
    }
}

struct Engine<'c> {
    cfg: &'c SimConfig,
    now: u64,
    seq: u64,
    events: BinaryHeap<Reverse<(u64, u64, usize)>>,
    event_slab: Vec<Event>,
    free_cores: u32,
    ready: VecDeque<Task>,
    /// Cleaner quanta dispatch ahead of client work: cleaner threads are
    /// dedicated threads that bypass Waffinity and "can run at any time"
    /// (§IV), so they are not queued behind client message bursts.
    ready_cleaner: VecDeque<Task>,
    waff: Scheduler<Task>,
    topo: Arc<Topology>,
    workload: Workload,

    // Dirty pool / admission.
    dirty: u64,
    claimed: u64,
    committed_blocks: u64,
    pending_inodes: f64,
    admission_q: VecDeque<(u32, OpShape, u64)>,

    // Buckets / infra.
    bucket_cache: u64,
    /// Resolved `get_many` batch bound (1 before White Alligator).
    get_batch: u64,
    /// Per-cleaner flag: the next quantum is the first since a bucket
    /// GET and must pay the synchronization cost.
    sync_pending: Vec<bool>,
    /// Used-bucket commit messages in flight at the infrastructure.
    commit_outstanding: u64,
    /// Buckets committed and awaiting a refill round (Figure 2's cycle).
    free_pool: u64,
    refill_outstanding: u32,
    range_rr: u32,

    // Cleaners.
    cleaners: Vec<CleanerState>,
    active_limit: usize,
    /// VBNs remaining in each cleaner's current bucket (cleaners hold a
    /// bucket across quanta until it is exhausted, as in §IV-A).
    bucket_rem: Vec<u64>,
    /// VBNs consumed from the current bucket (committed in one message at
    /// PUT time, amortizing the metafile update, §IV-C).
    bucket_used: Vec<u64>,
    /// CP hysteresis: cleaning runs from `cp_trigger_blocks` down to zero.
    cleaning_active: bool,
    stages: Vec<u64>,
    tuner: Option<DynamicTuner>,
    cleaner_busy_tick: u64,
    last_tick: u64,
    active_integral: f64,
    last_active_change: u64,

    // Measurement.
    latency: obs::LogHistogram,
    usage: CoreUsage,
    ops_completed: u64,
    blocks_written: u64,
    bucket_stalls: u64,
    refills: u64,
    cleaner_messages: u64,
    free_mf_blocks: u64,
    tuner_changes: u64,
    cache_get_fast: u64,
    cache_lock_waits_ns: u64,
    cache_get_batched: u64,
    put_commit_queue_len: u64,
    commit_batch_ns: u64,
    io_queue_depth_peak: u64,
    io_submit_to_complete_ns: u64,
    /// Submission timestamps of modeled async writes still in flight
    /// (FIFO — the summed latency is pairing-invariant, so FIFO
    /// matching against completions is exact even when infra
    /// affinities service commits out of submission order).
    io_submit_times: VecDeque<u64>,

    // Fault injection. The ordinal is a dedicated counter hashed with the
    // seed, so the fault stream is deterministic and independent of the
    // workload RNG (enabling faults does not reshuffle op shapes).
    fault_ordinal: u64,
    injected_faults: u64,
    fault_retries: u64,
}

impl<'c> Engine<'c> {
    fn new(cfg: &'c SimConfig) -> Self {
        let topo = Arc::new(Topology::symmetric(
            Model::Hierarchical,
            1,
            4,
            32,
            cfg.infra_ranges,
        ));
        let waff = Scheduler::new(ExclusionState::new(Arc::clone(&topo)));
        let single_cleaner_era = cfg.era != Era::WhiteAlligator;
        let initial_cleaners = if single_cleaner_era {
            1
        } else {
            match cfg.cleaners {
                CleanerSetting::Fixed(n) => n,
                CleanerSetting::Dynamic(c) => c.min_threads,
            }
        };
        let max_cleaners = if single_cleaner_era {
            1
        } else {
            cfg.cleaners.max_threads()
        };
        let tuner = match (single_cleaner_era, cfg.cleaners) {
            (true, _) | (_, CleanerSetting::Fixed(_)) => None,
            (false, CleanerSetting::Dynamic(c)) => Some(DynamicTuner::new(c, initial_cleaners)),
        };
        // Pre-White-Alligator eras predate batched GETs: one bucket per
        // pop.
        let get_batch = if single_cleaner_era {
            1
        } else {
            cfg.cache_get_batch.max(1)
        };
        let initial_cache = (2 * cfg.drives as u64).min(cfg.total_buckets);
        Self {
            cfg,
            now: 0,
            seq: 0,
            events: BinaryHeap::new(),
            event_slab: Vec::new(),
            free_cores: cfg.cores,
            ready: VecDeque::new(),
            ready_cleaner: VecDeque::new(),
            waff,
            topo,
            workload: Workload::new(cfg.workload, ChaCha12Rng::seed_from_u64(cfg.seed)),
            dirty: 0,
            claimed: 0,
            committed_blocks: 0,
            pending_inodes: 0.0,
            admission_q: VecDeque::new(),
            bucket_cache: initial_cache,
            get_batch,
            sync_pending: vec![false; max_cleaners],
            commit_outstanding: 0,
            free_pool: cfg.total_buckets.saturating_sub(2 * cfg.drives as u64),
            refill_outstanding: 0,
            range_rr: 0,
            cleaners: vec![CleanerState::Idle; max_cleaners],
            active_limit: initial_cleaners,
            bucket_rem: vec![0; max_cleaners],
            bucket_used: vec![0; max_cleaners],
            cleaning_active: false,
            stages: vec![0; max_cleaners],
            tuner,
            cleaner_busy_tick: 0,
            last_tick: 0,
            active_integral: 0.0,
            last_active_change: 0,
            latency: obs::LogHistogram::new(),
            usage: CoreUsage::default(),
            ops_completed: 0,
            blocks_written: 0,
            bucket_stalls: 0,
            refills: 0,
            cleaner_messages: 0,
            free_mf_blocks: 0,
            tuner_changes: 0,
            cache_get_fast: 0,
            cache_lock_waits_ns: 0,
            cache_get_batched: 0,
            put_commit_queue_len: 0,
            commit_batch_ns: 0,
            io_queue_depth_peak: 0,
            io_submit_to_complete_ns: 0,
            io_submit_times: VecDeque::new(),
            fault_ordinal: 0,
            injected_faults: 0,
            fault_retries: 0,
        }
    }

    fn schedule(&mut self, at: u64, ev: Event) {
        let idx = self.event_slab.len();
        self.event_slab.push(ev);
        self.seq += 1;
        self.events.push(Reverse((at, self.seq, idx)));
    }

    fn run(mut self) -> SimResult {
        for c in 0..self.cfg.clients {
            for _ in 0..self.cfg.outstanding_per_client.max(1) {
                self.schedule(0, Event::Issue { client: c });
            }
        }
        if self.tuner.is_some() {
            let interval = self.tuner.as_ref().unwrap().config().interval_ns;
            self.schedule(interval, Event::TunerTick);
        }
        while let Some(Reverse((t, _, idx))) = self.events.pop() {
            if t > self.cfg.duration_ns {
                break;
            }
            self.now = t;
            let ev = self.event_slab[idx];
            self.handle(ev);
            self.dispatch();
        }
        self.finish()
    }

    fn measuring(&self) -> bool {
        self.now >= self.cfg.warmup_ns
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    fn handle(&mut self, ev: Event) {
        match ev {
            Event::Issue { client } => self.on_issue(client),
            Event::Reply { client, issued } => self.on_reply(client, issued),
            Event::TunerTick => self.on_tuner_tick(),
            Event::Done { task } => self.on_done(task),
        }
    }

    fn on_issue(&mut self, client: u32) {
        let op = self.workload.next_op();
        if op.write_blocks > 0 && self.committed_blocks + op.write_blocks > self.cfg.dirty_limit {
            // Admission throttle: the write-allocation backpressure.
            self.admission_q.push_back((client, op, self.now));
            self.ensure_cleaning();
            return;
        }
        self.admit(client, op, self.now);
    }

    fn admit(&mut self, client: u32, op: OpShape, issued: u64) {
        if op.write_blocks > 0 {
            self.committed_blocks += op.write_blocks;
        }
        self.ready.push_back(Task::Protocol { client, op, issued });
    }

    fn on_reply(&mut self, client: u32, issued: u64) {
        if self.measuring() {
            // Throughput counts completions inside the window; latency
            // samples only ops issued after warmup (their queueing is
            // steady-state).
            self.ops_completed += 1;
            if issued >= self.cfg.warmup_ns {
                self.latency.record(self.now - issued);
            }
        }
        self.schedule(self.now + self.cfg.think_ns, Event::Issue { client });
    }

    fn on_tuner_tick(&mut self) {
        let interval = self.tuner.as_ref().unwrap().config().interval_ns;
        let window = (self.now - self.last_tick).max(1);
        let active = self.active_limit.max(1) as u64;
        let util = (self.cleaner_busy_tick as f64 / (window * active) as f64).clamp(0.0, 1.0);
        self.cleaner_busy_tick = 0;
        self.last_tick = self.now;
        let tuner = self.tuner.as_mut().unwrap();
        let before = tuner.active();
        let target = tuner.decide(util);
        if target != before {
            self.tuner_changes += 1;
            self.set_active_limit(target);
        }
        self.schedule(self.now + interval, Event::TunerTick);
    }

    fn set_active_limit(&mut self, n: usize) {
        self.active_integral +=
            self.active_limit as f64 * (self.now - self.last_active_change) as f64;
        self.last_active_change = self.now;
        self.active_limit = n.clamp(1, self.cleaners.len());
        self.ensure_cleaning();
    }

    fn on_done(&mut self, task: Task) {
        self.free_cores += 1;
        match task {
            Task::Protocol { client, op, issued } => {
                let aff = self.client_affinity(client);
                self.charge_protocol();
                self.waff.enqueue(
                    aff,
                    Task::ClientMsg {
                        client,
                        op,
                        issued,
                        aff,
                    },
                );
            }
            Task::ClientMsg {
                client,
                op,
                issued,
                aff,
            } => {
                self.waff.complete(aff);
                self.charge_client_msg(&op);
                let is_write = op.write_blocks > 0;
                let fault_extra = self.fault_extra_latency(is_write);
                if is_write {
                    self.dirty += op.write_blocks;
                    self.pending_inodes += op.inodes_touched as f64;
                    if self.measuring() {
                        self.blocks_written += op.write_blocks;
                    }
                    self.ensure_cleaning();
                    self.schedule(
                        self.now + self.cfg.costs.reply_latency + fault_extra,
                        Event::Reply { client, issued },
                    );
                } else {
                    self.schedule(
                        self.now + self.cfg.costs.read_media_latency + fault_extra,
                        Event::Reply { client, issued },
                    );
                }
            }
            Task::Infra { kind, aff } => {
                self.waff.complete(aff);
                self.charge_infra(kind);
                match kind {
                    InfraKind::Refill { take } => {
                        self.bucket_cache += take;
                        self.refill_outstanding -= 1;
                        self.refills += 1;
                        self.wake_waiting_cleaners();
                        if self.bucket_cache < self.cfg.bucket_low_watermark && self.free_pool > 0 {
                            self.maybe_refill();
                        }
                    }
                    InfraKind::CommitUsed { vbns } => {
                        // Step 6 done: the bucket re-enters circulation.
                        self.commit_outstanding -= 1;
                        // The modeled async write completes: charge
                        // submit→complete (queue wait + service) to the
                        // io latency total, as the aio worker does per
                        // completion.
                        if let Some(submitted) = self.io_submit_times.pop_front() {
                            if self.measuring() {
                                self.io_submit_to_complete_ns += self.now - submitted;
                            }
                        }
                        if self.measuring() {
                            self.commit_batch_ns += self.cost_of(&Task::Infra {
                                kind: InfraKind::CommitUsed { vbns },
                                aff,
                            });
                        }
                        self.free_pool += 1;
                        if self.bucket_cache < self.cfg.bucket_low_watermark {
                            self.maybe_refill();
                        }
                    }
                    InfraKind::CommitFrees { .. } => {}
                }
            }
            Task::CleanerQuantum {
                cleaner,
                bufs,
                inodes,
                msgs,
                via,
                synced,
            } => {
                if let Some(aff) = via {
                    self.waff.complete(aff);
                }
                self.charge_cleaner(bufs, inodes, msgs, synced);
                self.cleaner_messages += msgs;
                self.cleaners[cleaner] = CleanerState::Idle;
                self.claimed -= bufs;
                self.dirty -= bufs;
                self.committed_blocks -= bufs;
                self.pending_inodes = (self.pending_inodes - inodes as f64).max(0.0);
                // Steps 5/6: PUT + commit happen when each bucket is
                // exhausted — one metafile commit per bucket (§IV-C). A
                // batched GET grants several buckets at once, but they
                // are still committed (and returned to circulation)
                // bucket by bucket as the cleaner crosses each chunk
                // boundary.
                self.bucket_used[cleaner] += bufs;
                while self.bucket_used[cleaner] >= self.cfg.chunk {
                    self.bucket_used[cleaner] -= self.cfg.chunk;
                    let aff = self.infra_affinity();
                    self.commit_outstanding += 1;
                    // The modeled async write submits here; it is in
                    // flight until its CommitUsed completion fires.
                    self.io_submit_times.push_back(self.now);
                    if self.measuring() {
                        // PUT-convoy depth: commits waiting at the
                        // infrastructure when this one joined the queue.
                        self.put_commit_queue_len =
                            self.put_commit_queue_len.max(self.commit_outstanding);
                        self.io_queue_depth_peak = self
                            .io_queue_depth_peak
                            .max(self.io_submit_times.len() as u64);
                    }
                    self.waff.enqueue(
                        aff,
                        Task::Infra {
                            kind: InfraKind::CommitUsed {
                                vbns: self.cfg.chunk,
                            },
                            aff,
                        },
                    );
                }
                // Stage the frees of overwritten blocks.
                let frees = (bufs as f64 * self.overwrite_fraction()) as u64;
                self.stages[cleaner] += frees;
                if self.stages[cleaner] >= self.cfg.stage_capacity {
                    let f = self.stages[cleaner];
                    self.stages[cleaner] = 0;
                    let mf = distinct_mf_blocks(
                        f,
                        self.cfg.workload.frees_are_sequential(),
                        self.cfg.aggregate_mf_blocks,
                    );
                    self.free_mf_blocks += mf;
                    let aff = self.infra_affinity();
                    self.waff.enqueue(
                        aff,
                        Task::Infra {
                            kind: InfraKind::CommitFrees {
                                frees: f,
                                mf_blocks: mf,
                            },
                            aff,
                        },
                    );
                }
                self.release_admissions();
                self.ensure_cleaning();
            }
        }
    }

    // ------------------------------------------------------------------
    // Cleaner management
    // ------------------------------------------------------------------

    fn ensure_cleaning(&mut self) {
        // CP cadence: start cleaning at the trigger level, drain to zero.
        if !self.cleaning_active {
            if self.dirty >= self.cfg.cp_trigger_blocks
                || self.committed_blocks >= self.cfg.dirty_limit
            {
                self.cleaning_active = true;
            } else {
                return;
            }
        } else if self.dirty == 0 {
            self.cleaning_active = false;
            return;
        }
        for i in 0..self.cleaners.len() {
            if i >= self.active_limit {
                // Deactivated cleaners that were waiting go idle.
                if self.cleaners[i] == CleanerState::WaitingBucket {
                    self.cleaners[i] = CleanerState::Idle;
                }
                continue;
            }
            if self.cleaners[i] != CleanerState::Idle {
                continue;
            }
            let unclaimed = self.dirty - self.claimed;
            if unclaimed == 0 {
                break;
            }
            // GET a bucket if the cleaner's current one is exhausted.
            if self.bucket_rem[i] == 0 {
                if self.bucket_cache == 0 {
                    self.cleaners[i] = CleanerState::WaitingBucket;
                    if self.measuring() {
                        self.bucket_stalls += 1;
                    }
                    self.maybe_refill();
                    continue;
                }
                let got = self.cache_pop();
                self.bucket_rem[i] = got * self.cfg.chunk;
                self.sync_pending[i] = true;
            }
            self.start_quantum(i);
        }
        if self.bucket_cache < self.cfg.bucket_low_watermark {
            self.maybe_refill();
        }
    }

    fn start_quantum(&mut self, cleaner: usize) {
        let unclaimed = self.dirty - self.claimed;
        let bufs = unclaimed.min(self.bucket_rem[cleaner]);
        debug_assert!(bufs > 0);
        self.bucket_rem[cleaner] -= bufs;
        self.claimed += bufs;
        // Inodes drawn proportionally from the pending pool.
        let per_buf = if self.dirty > 0 {
            self.pending_inodes / self.dirty as f64
        } else {
            0.0
        };
        let inodes = ((bufs as f64 * per_buf).round() as u64).max(1);
        let msgs = if self.cfg.batching {
            inodes.div_ceil(self.cfg.batch_max_inodes)
        } else {
            inodes
        };
        self.cleaners[cleaner] = CleanerState::Running;
        let via = self.cleaning_via();
        let synced = std::mem::take(&mut self.sync_pending[cleaner]);
        let task = Task::CleanerQuantum {
            cleaner,
            bufs,
            inodes,
            msgs,
            via,
            synced,
        };
        match via {
            Some(aff) => self.waff.enqueue(aff, task),
            None => self.ready_cleaner.push_back(task),
        }
    }

    fn wake_waiting_cleaners(&mut self) {
        for i in 0..self.cleaners.len() {
            if self.cleaners[i] == CleanerState::WaitingBucket {
                self.cleaners[i] = CleanerState::Idle;
            }
        }
        self.ensure_cleaning();
    }

    fn release_admissions(&mut self) {
        while let Some(&(client, op, issued)) = self.admission_q.front() {
            if self.committed_blocks + op.write_blocks > self.cfg.dirty_limit {
                break;
            }
            self.admission_q.pop_front();
            self.admit(client, op, issued);
        }
    }

    fn maybe_refill(&mut self) {
        // Up to four refill rounds pipeline, so in-service rounds can
        // overlap the queueing delay of the next (WAFL prefetches bucket
        // refills to keep GET from blocking, §IV-D). A round refills at
        // most one bucket per data drive (§IV-D); the committed buckets
        // it will fill are reserved out of the pool here.
        if self.refill_outstanding >= 4 || self.free_pool == 0 {
            return;
        }
        let take = self.free_pool.min(self.cfg.drives as u64);
        self.free_pool -= take;
        self.refill_outstanding += 1;
        let aff = self.infra_affinity();
        self.waff.enqueue(
            aff,
            Task::Infra {
                kind: InfraKind::Refill { take },
                aff,
            },
        );
    }

    /// GET for one cleaner: up to `get_batch` buckets in one acquisition
    /// of the cache lock, as `BucketCache::get_many`. Returns the buckets
    /// granted; the caller guarantees `bucket_cache > 0`.
    fn cache_pop(&mut self) -> u64 {
        debug_assert!(self.bucket_cache > 0);
        let got = self.get_batch.min(self.bucket_cache);
        self.bucket_cache -= got;
        if self.measuring() {
            self.cache_get_fast += got;
            self.cache_get_batched += got - 1;
        }
        got
    }

    fn overwrite_fraction(&self) -> f64 {
        match self.cfg.workload {
            crate::workload::WorkloadKind::NfsMix { .. } => 0.5,
            _ => 1.0,
        }
    }

    // ------------------------------------------------------------------
    // Affinity mapping
    // ------------------------------------------------------------------

    fn client_affinity(&self, client: u32) -> AffinityId {
        match self.cfg.era {
            // Pre-Waffinity: every message serializes.
            Era::SerialWafl => self.topo.id(Affinity::Serial),
            _ => {
                let vol = client % 4;
                let stripe = (client / 4) % 32;
                self.topo.id(Affinity::Stripe(vol, stripe))
            }
        }
    }

    /// Where cleaning executes in this era: `None` = dedicated cleaner
    /// threads; `Some(aff)` = as Waffinity messages in that affinity.
    fn cleaning_via(&self) -> Option<AffinityId> {
        match self.cfg.era {
            Era::SerialWafl | Era::ClassicalSerialCleaning => Some(self.topo.id(Affinity::Serial)),
            Era::ClassicalCleanerThread | Era::WhiteAlligator => None,
        }
    }

    fn infra_affinity(&mut self) -> AffinityId {
        if self.cfg.era == Era::SerialWafl || self.cfg.era == Era::ClassicalSerialCleaning {
            // Metafile updates were made by the (serial) cleaning context
            // itself; model them as Serial-affinity messages.
            return self.topo.id(Affinity::Serial);
        }
        let mode = if self.cfg.era == Era::ClassicalCleanerThread {
            InfraMode::Serial
        } else {
            self.cfg.infra_mode
        };
        match mode {
            // Serialized infrastructure: every message in one affinity —
            // at most one runs at a time (but client stripes continue).
            InfraMode::Serial => self.topo.id(Affinity::AggrVbn(0)),
            InfraMode::Parallel => {
                self.range_rr = (self.range_rr + 1) % self.cfg.infra_ranges;
                self.topo.id(Affinity::AggrVbnRange(0, self.range_rr))
            }
        }
    }

    // ------------------------------------------------------------------
    // Cost charging
    // ------------------------------------------------------------------

    fn cost_of(&self, task: &Task) -> u64 {
        let c = &self.cfg.costs;
        match *task {
            Task::Protocol { .. } => c.protocol_per_op,
            Task::ClientMsg { op, .. } => {
                c.client_msg_fixed + c.client_msg_per_block * (op.write_blocks + op.read_blocks)
            }
            Task::Infra { kind, .. } => match kind {
                InfraKind::Refill { take } => {
                    take * (c.infra_refill_fixed + self.cfg.chunk * c.infra_refill_per_vbn)
                }
                InfraKind::CommitUsed { vbns } => {
                    c.infra_commit_fixed + vbns * c.infra_commit_per_vbn + c.infra_per_mf_block
                }
                InfraKind::CommitFrees { frees, mf_blocks } => {
                    c.infra_frees_fixed
                        + frees * c.infra_free_per_vbn
                        + mf_blocks * c.infra_per_mf_block
                }
            },
            Task::CleanerQuantum {
                bufs,
                inodes,
                msgs,
                synced,
                ..
            } => {
                let sync = if synced { self.bucket_sync_cost() } else { 0 };
                bufs * c.cleaner_per_buffer
                    + sync
                    + msgs * c.cleaner_msg_overhead
                    + inodes * c.cleaner_inode_overhead
            }
        }
    }

    /// Portion of a just-completed task's cost that ran inside the
    /// measurement window. Tasks are charged at completion; one that
    /// started before the warmup boundary must not be billed in full, or
    /// a saturated single-core run can book more than one core-second
    /// per second.
    fn measured_portion(&self, cost: u64) -> u64 {
        if self.now < self.cfg.warmup_ns {
            0
        } else {
            (self.now - self.cfg.warmup_ns).min(cost)
        }
    }

    fn charge_protocol(&mut self) {
        self.usage.protocol_ns += self.measured_portion(self.cfg.costs.protocol_per_op);
    }

    fn charge_client_msg(&mut self, op: &OpShape) {
        let cost = self.cfg.costs.client_msg_fixed
            + self.cfg.costs.client_msg_per_block * (op.write_blocks + op.read_blocks);
        self.usage.client_msg_ns += self.measured_portion(cost);
    }

    fn charge_infra(&mut self, kind: InfraKind) {
        let cost = self.cost_of(&Task::Infra {
            kind,
            aff: AffinityId(0),
        });
        self.usage.infra_ns += self.measured_portion(cost);
    }

    /// Cleaner CPU per GET. Every active cleaner shares the one cache
    /// lock, so contention scales with their number (§V-B's "more threads
    /// come with additional lock contention").
    fn bucket_sync_cost(&self) -> u64 {
        let c = &self.cfg.costs;
        let sharers = self.active_limit as u64;
        let contention = 1.0 + c.cleaner_contention_factor * sharers.saturating_sub(1) as f64;
        (c.cleaner_bucket_sync as f64 * contention) as u64
    }

    fn charge_cleaner(&mut self, bufs: u64, inodes: u64, msgs: u64, synced: bool) {
        let cost = self.cost_of(&Task::CleanerQuantum {
            cleaner: 0,
            bufs,
            inodes,
            msgs,
            via: None,
            synced,
        });
        self.cleaner_busy_tick += cost;
        self.usage.cleaner_ns += self.measured_portion(cost);
        if self.measuring() {
            // The contention surcharge *is* the modeled lock wait, paid
            // only on quanta that actually synchronized.
            if synced {
                self.cache_lock_waits_ns +=
                    self.bucket_sync_cost() - self.cfg.costs.cleaner_bucket_sync;
            }
        }
    }

    // ------------------------------------------------------------------
    // Core dispatch
    // ------------------------------------------------------------------

    fn dispatch(&mut self) {
        while self.free_cores > 0 {
            if let Some(task) = self.ready_cleaner.pop_front() {
                self.start_task(task);
                continue;
            }
            if let Some(task) = self.ready.pop_front() {
                self.start_task(task);
                continue;
            }
            if let Some((_aff, task)) = self.waff.pop_runnable() {
                self.start_task(task);
                continue;
            }
            break;
        }
    }

    /// Extra reply latency injected for this op by the fault model, and
    /// counter bookkeeping. Mirrors `wafl_blockdev::FaultPlan::decide`:
    /// a counter-based SplitMix64 draw keyed on (seed, ordinal, op kind),
    /// banded into transient-error and latency-spike ranges. Transient
    /// errors cost 1..=max_retries media round-trips (bounded retry with
    /// backoff at the drive layer); spikes cost a flat `latency_spike_ns`.
    fn fault_extra_latency(&mut self, is_write: bool) -> u64 {
        let f = &self.cfg.faults;
        if f.is_quiet() {
            return 0;
        }
        self.fault_ordinal += 1;
        let salt: u64 = if is_write { 0x57 } else { 0x52 };
        let mut z = self
            .cfg
            .seed
            .wrapping_add(self.fault_ordinal.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(salt);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let draw = z % 1_000_000;
        let error_band = if is_write {
            f.write_error_ppm as u64
        } else {
            f.read_error_ppm as u64
        };
        if draw < error_band {
            self.injected_faults += 1;
            let retries = 1 + z.rotate_right(17) % f.max_retries.max(1) as u64;
            self.fault_retries += retries;
            retries * self.cfg.costs.read_media_latency
        } else if draw < error_band + f.latency_spike_ppm as u64 {
            self.injected_faults += 1;
            f.latency_spike_ns
        } else {
            0
        }
    }

    fn start_task(&mut self, task: Task) {
        debug_assert!(self.free_cores > 0);
        self.free_cores -= 1;
        let cost = self.cost_of(&task);
        self.schedule(self.now + cost, Event::Done { task });
    }

    // ------------------------------------------------------------------
    // Wrap-up
    // ------------------------------------------------------------------

    fn finish(mut self) -> SimResult {
        self.active_integral +=
            self.active_limit as f64 * (self.now - self.last_active_change) as f64;
        let measured_ns = self.cfg.duration_ns - self.cfg.warmup_ns;
        let secs = measured_ns as f64 / 1e9;
        let throughput_ops = self.ops_completed as f64 / secs;
        SimResult {
            measured_ns,
            ops_completed: self.ops_completed,
            blocks_written: self.blocks_written,
            throughput_ops,
            throughput_per_client: throughput_ops / self.cfg.clients.max(1) as f64,
            latency: LatencyStats::from(&self.latency),
            usage: self.usage,
            avg_active_cleaners: self.active_integral / self.now.max(1) as f64,
            bucket_stalls: self.bucket_stalls,
            refills: self.refills,
            cleaner_messages: self.cleaner_messages,
            free_mf_blocks: self.free_mf_blocks,
            tuner_changes: self.tuner_changes,
            injected_faults: self.injected_faults,
            fault_retries: self.fault_retries,
            cache_get_fast: self.cache_get_fast,
            cache_lock_waits_ns: self.cache_lock_waits_ns,
            cache_blocked_gets: self.bucket_stalls,
            cache_get_batched: self.cache_get_batched,
            put_commit_queue_len: self.put_commit_queue_len,
            commit_batch_ns: self.commit_batch_ns,
            io_inflight: self.io_submit_times.len() as u64,
            io_queue_depth_peak: self.io_queue_depth_peak,
            io_submit_to_complete_ns: self.io_submit_to_complete_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadKind;

    fn base(workload: WorkloadKind) -> SimConfig {
        let mut c = SimConfig::paper_platform(workload);
        c.duration_ns = 300_000_000;
        c.warmup_ns = 60_000_000;
        c
    }

    #[test]
    fn simulation_completes_and_is_deterministic() {
        let cfg = base(WorkloadKind::sequential_write());
        let a = Simulator::new(cfg.clone()).run();
        let b = Simulator::new(cfg).run();
        assert!(a.ops_completed > 0);
        assert_eq!(a.ops_completed, b.ops_completed);
        assert_eq!(a.latency.mean_ns, b.latency.mean_ns);
    }

    #[test]
    fn injected_faults_add_latency_without_changing_workload() {
        let quiet = base(WorkloadKind::sequential_write());
        let mut noisy = quiet.clone();
        noisy.faults.write_error_ppm = 50_000; // 5 % of writes retry
        noisy.faults.latency_spike_ppm = 20_000;
        noisy.faults.latency_spike_ns = 5_000_000;
        let rq = Simulator::new(quiet).run();
        let rn = Simulator::new(noisy).run();
        assert_eq!(rq.injected_faults, 0);
        assert_eq!(rq.fault_retries, 0);
        assert!(
            rn.injected_faults > 0,
            "fault bands armed but nothing fired"
        );
        assert!(rn.fault_retries > 0, "error band should force retries");
        // Faults only delay replies; the op mix is untouched, so the
        // latency tail of the faulted run is strictly worse.
        assert!(rn.latency.p99_ns > rq.latency.p99_ns);
    }

    #[test]
    fn fault_stream_is_deterministic() {
        let mut cfg = base(WorkloadKind::oltp());
        cfg.faults.read_error_ppm = 30_000;
        cfg.faults.write_error_ppm = 30_000;
        let a = Simulator::new(cfg.clone()).run();
        let b = Simulator::new(cfg).run();
        assert_eq!(a.injected_faults, b.injected_faults);
        assert_eq!(a.fault_retries, b.fault_retries);
        assert_eq!(a.latency.mean_ns, b.latency.mean_ns);
    }

    #[test]
    fn core_usage_never_exceeds_core_count() {
        let cfg = base(WorkloadKind::sequential_write());
        let r = Simulator::new(cfg).run();
        assert!(r.total_cores() <= 20.0 + 1e-6, "got {}", r.total_cores());
        assert!(r.total_cores() > 1.0, "system does real work");
    }

    #[test]
    fn more_cleaners_increase_seq_write_throughput() {
        // The Figure 5 direction: 1 → 4 cleaners with parallel infra.
        let mut c1 = base(WorkloadKind::sequential_write());
        c1.cleaners = CleanerSetting::Fixed(1);
        let mut c4 = base(WorkloadKind::sequential_write());
        c4.cleaners = CleanerSetting::Fixed(4);
        let r1 = Simulator::new(c1).run();
        let r4 = Simulator::new(c4).run();
        assert!(
            r4.throughput_ops > r1.throughput_ops * 1.3,
            "4 cleaners {} vs 1 cleaner {}",
            r4.throughput_ops,
            r1.throughput_ops
        );
    }

    #[test]
    fn figure7_inversion_random_write_is_infra_bound() {
        // Figs 4 vs 7: from the fully serialized baseline, sequential
        // write gains more from parallel *cleaners*, random write gains
        // more from parallel *infrastructure* ("this inverted result
        // reveals that random write is more limited by the processing in
        // the infrastructure").
        let gains = |wl: WorkloadKind| {
            let run = |infra: InfraMode, cleaners: usize| {
                let mut c = base(wl);
                c.infra_mode = infra;
                c.cleaners = CleanerSetting::Fixed(cleaners);
                Simulator::new(c).run().throughput_ops
            };
            let baseline = run(InfraMode::Serial, 1);
            let infra_only = run(InfraMode::Parallel, 1) / baseline;
            let cleaners_only = run(InfraMode::Serial, 4) / baseline;
            (infra_only, cleaners_only)
        };
        let (seq_infra, seq_cleaners) = gains(WorkloadKind::sequential_write());
        let (rand_infra, rand_cleaners) = gains(WorkloadKind::random_write());
        assert!(
            seq_cleaners > seq_infra,
            "seq write is cleaner-bound: cleaners {seq_cleaners:.2} vs infra {seq_infra:.2}"
        );
        assert!(
            rand_infra > rand_cleaners,
            "random write is infra-bound: infra {rand_infra:.2} vs cleaners {rand_cleaners:.2}"
        );
    }

    #[test]
    fn dirty_limit_throttles_throughput() {
        let mut small = base(WorkloadKind::sequential_write());
        small.dirty_limit = 64;
        small.cleaners = CleanerSetting::Fixed(1);
        let mut large = base(WorkloadKind::sequential_write());
        large.dirty_limit = 16_384;
        large.cleaners = CleanerSetting::Fixed(1);
        let rs = Simulator::new(small).run();
        let rl = Simulator::new(large).run();
        assert!(rs.throughput_ops <= rl.throughput_ops * 1.05);
    }

    #[test]
    fn dynamic_tuner_activates_under_load() {
        let mut cfg = base(WorkloadKind::sequential_write());
        cfg.cleaners = CleanerSetting::dynamic_default(6);
        let r = Simulator::new(cfg).run();
        assert!(r.tuner_changes > 0, "tuner reacted to saturation");
        assert!(r.avg_active_cleaners > 1.0);
    }

    #[test]
    fn reads_do_not_dirty() {
        let mut cfg = base(WorkloadKind::Oltp {
            op_blocks: 2,
            write_fraction: 0.0,
        });
        cfg.clients = 4;
        let r = Simulator::new(cfg).run();
        assert_eq!(r.blocks_written, 0);
        assert!(r.ops_completed > 0);
        assert_eq!(r.usage.cleaner_ns, 0);
    }

    #[test]
    fn eras_strictly_improve_throughput() {
        // §III: each parallelization step relaxes a real constraint.
        let run = |era: Era| {
            let mut cfg = base(WorkloadKind::sequential_write());
            cfg.era = era;
            cfg.cleaners = CleanerSetting::Fixed(4);
            Simulator::new(cfg).run().throughput_ops
        };
        let serial = run(Era::SerialWafl);
        let classical = run(Era::ClassicalSerialCleaning);
        let cleaner_thread = run(Era::ClassicalCleanerThread);
        let white_alligator = run(Era::WhiteAlligator);
        assert!(
            classical > serial,
            "Classical Waffinity beats serial: {classical} vs {serial}"
        );
        assert!(
            cleaner_thread > classical * 1.5,
            "the dedicated cleaner thread is a big step: {cleaner_thread} vs {classical}"
        );
        assert!(
            white_alligator > cleaner_thread * 2.0,
            "White Alligator dominates: {white_alligator} vs {cleaner_thread}"
        );
    }

    #[test]
    fn serial_era_runs_on_one_core_total() {
        let mut cfg = base(WorkloadKind::sequential_write());
        cfg.era = Era::SerialWafl;
        let r = Simulator::new(cfg).run();
        // Serial affinity serializes client msgs, cleaning, and infra;
        // only protocol work and pipelining overlap.
        assert!(
            r.total_cores() < 2.5,
            "pre-Waffinity WAFL cannot use many cores: {:.2}",
            r.total_cores()
        );
    }

    #[test]
    fn classical_era_cleaning_excludes_client_work() {
        // With cleaning in the Serial affinity, raising the configured
        // cleaner count must change nothing (it is forced to 1 message
        // stream).
        let mut a = base(WorkloadKind::sequential_write());
        a.era = Era::ClassicalSerialCleaning;
        a.cleaners = CleanerSetting::Fixed(1);
        let mut b = base(WorkloadKind::sequential_write());
        b.era = Era::ClassicalSerialCleaning;
        b.cleaners = CleanerSetting::Fixed(6);
        let ra = Simulator::new(a).run();
        let rb = Simulator::new(b).run();
        let ratio = rb.throughput_ops / ra.throughput_ops;
        assert!(
            (0.95..1.05).contains(&ratio),
            "cleaner count is irrelevant before 2008: ratio {ratio:.3}"
        );
    }

    #[test]
    fn cache_lock_contention_scales_with_active_cleaners() {
        // Every active cleaner shares the one cache lock: one cleaner
        // pays the uncontended cost, eight pay a surcharge.
        let mut one = base(WorkloadKind::sequential_write());
        one.cleaners = CleanerSetting::Fixed(1);
        let mut eight = one.clone();
        eight.cleaners = CleanerSetting::Fixed(8);
        let r1 = Simulator::new(one).run();
        let r8 = Simulator::new(eight).run();
        assert!(r1.cache_get_fast > 0 && r8.cache_get_fast > 0);
        assert_eq!(r1.cache_lock_waits_ns, 0, "a lone cleaner never waits");
        assert!(r8.cache_lock_waits_ns > 0, "eight sharers contend");
        assert_eq!(r8.cache_blocked_gets, r8.bucket_stalls);
    }

    #[test]
    fn pre_white_alligator_eras_force_unbatched_gets() {
        let mut cfg = base(WorkloadKind::sequential_write());
        cfg.era = Era::ClassicalCleanerThread;
        cfg.cache_get_batch = 8; // ignored: the era predates get_many
        let r = Simulator::new(cfg).run();
        assert!(r.cache_get_fast > 0);
        assert_eq!(r.cache_get_batched, 0, "get_many is forced to 1");
    }

    #[test]
    fn batched_get_many_amortizes_synchronization() {
        // A batched GET takes several buckets per lock acquisition;
        // get_many(1) never batches.
        let mut b8 = base(WorkloadKind::sequential_write());
        b8.cache_get_batch = 8;
        let mut b1 = b8.clone();
        b1.cache_get_batch = 1;
        let r8 = Simulator::new(b8).run();
        let r1 = Simulator::new(b1).run();
        assert!(r8.cache_get_batched > 0, "a deep cache yields batches");
        assert_eq!(r1.cache_get_batched, 0, "get_many(1) cannot batch");
        // The claim is about synchronization, not end-to-end throughput:
        // fewer synced quanta must show up as strictly less cleaner time,
        // while throughput (not GET-bound here) stays within noise.
        assert!(
            r8.usage.cleaner_ns < r1.usage.cleaner_ns,
            "batching amortizes sync: {} vs {}",
            r8.usage.cleaner_ns,
            r1.usage.cleaner_ns
        );
        assert!(r8.throughput_ops >= r1.throughput_ops * 0.98);
    }

    #[test]
    fn commit_convoy_counters_populate() {
        let r = Simulator::new(base(WorkloadKind::sequential_write())).run();
        assert!(
            r.put_commit_queue_len >= 1,
            "used-bucket commits must queue at least once"
        );
        assert!(r.commit_batch_ns > 0, "commit time accumulates");
    }

    #[test]
    fn io_pipeline_counters_populate() {
        let r = Simulator::new(base(WorkloadKind::sequential_write())).run();
        assert!(
            r.io_queue_depth_peak >= 1,
            "modeled async writes must overlap at least once"
        );
        assert!(
            r.io_submit_to_complete_ns > 0,
            "submit→complete latency accumulates"
        );
        // The queue-depth peak sees every in-flight commit the convoy
        // counter sees (same increment/decrement sites).
        assert!(r.io_queue_depth_peak >= r.put_commit_queue_len);
    }

    #[test]
    fn warmup_work_does_not_leak_into_cache_counters() {
        // All cache_rows inputs must cover the same (measured) window: a
        // run that ends before warmup completes reports them all as zero.
        let mut cfg = base(WorkloadKind::sequential_write());
        cfg.duration_ns = cfg.warmup_ns;
        let r = Simulator::new(cfg).run();
        assert_eq!(r.cache_get_fast, 0, "warmup GETs leaked");
        assert_eq!(r.cache_get_batched, 0, "warmup batches leaked");
        assert_eq!(r.bucket_stalls, 0, "warmup stalls leaked");
        assert_eq!(r.cache_lock_waits_ns, 0);
        assert_eq!(r.commit_batch_ns, 0);
        assert_eq!(r.put_commit_queue_len, 0);
        assert_eq!(r.io_queue_depth_peak, 0, "warmup io depth leaked");
        assert_eq!(r.io_submit_to_complete_ns, 0, "warmup io latency leaked");
    }

    #[test]
    fn batching_reduces_cleaner_messages_on_nfs_mix() {
        let mut on = base(WorkloadKind::nfs_mix());
        on.batching = true;
        let mut off = base(WorkloadKind::nfs_mix());
        off.batching = false;
        let r_on = Simulator::new(on).run();
        let r_off = Simulator::new(off).run();
        assert!(
            r_on.cleaner_messages < r_off.cleaner_messages,
            "batching {} vs unbatched {}",
            r_on.cleaner_messages,
            r_off.cleaner_messages
        );
        assert!(r_on.throughput_ops >= r_off.throughput_ops * 0.98);
    }
}
