//! # portopt-core
//!
//! The primary contribution of Dubach et al. (MICRO 2009): a **portable
//! optimising compiler** that, given a microarchitecture description and
//! the performance counters from a single `-O3` run of a program, predicts
//! the compiler optimisation passes that maximise its performance — for
//! programs *and* microarchitectures never seen in training.
//!
//! * [`dataset`] — training-data generation (§3.2): one [`Sweep`] plan
//!   names the programs × settings × microarchitectures grid, and
//!   optionally an on-disk profile cache (`portopt_exec::cache`, reused
//!   across process invocations) and a checkpoint journal.
//! * [`checkpoint`] — resumable in-shard checkpoints: a versioned
//!   append-only journal of completed `(program, setting)` results, so a
//!   sweep killed mid-shard resumes without re-pricing finished work and
//!   still produces a byte-identical dataset.
//! * [`shard`] — deterministic multi-rig sweep planning: contiguous
//!   program slices whose per-rig datasets recombine, byte-identically,
//!   with [`Dataset::merge`].
//! * [`compiler`] — model building (§3.3) and deployment (§3.4):
//!   [`PortableCompiler`] wraps good-set extraction, per-pair IID
//!   distribution fitting, and the KNN predictive distribution, decoded at
//!   its mode.
//!
//! The leave-one-out evaluation harness and every figure of the paper live
//! in `portopt-experiments`.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod compiler;
pub mod dataset;
pub mod shard;

pub use checkpoint::{CheckpointJournal, JournalError, JOURNAL_FORMAT_VERSION, JOURNAL_MAGIC};
pub use compiler::{PortableCompiler, TrainOptions, GOOD_FRACTION};
pub use dataset::{
    generate_with_uarchs, open_profile_cache, open_sweep_journal, CachedProfile, Dataset,
    GenOptions, MergeError, Sweep, SweepReport, SweepScale, PROFILE_CACHE_KIND,
    PROFILE_CACHE_PAYLOAD_VERSION,
};
pub use portopt_ml::{Model, ModelKind, ModelOptions};
pub use shard::{ShardError, ShardSpec};
