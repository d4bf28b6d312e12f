//! # e2e — the end-to-end ledger
//!
//! One command drives the real-thread write path — `wafl::Filesystem`,
//! the real `CleanerPool`, `WaffinityPool` and `AioEngine`, no simulator —
//! through four named workloads, checks every acknowledged write, and
//! reports the end-to-end metrics of `BENCHMARK.json`; a separate traced
//! run reports the per-layer table. See `README.md` for the glossary.

#![warn(missing_docs)]

pub mod config;
pub mod host;
pub mod metrics;
pub mod probes;
pub mod record;
mod rng;
pub mod run;
mod trace;
