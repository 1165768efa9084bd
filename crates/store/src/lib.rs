//! # cqfd-store — persistent result cache and resumable chase
//!
//! The determinacy oracle is a semi-decision procedure: individual jobs
//! can take unbounded time, and experiment sweeps re-run the same jobs
//! across parameter grids constantly. This crate makes both cheap to
//! repeat:
//!
//! * [`canon`] — a **canonical job hash**: the job (rule set, views,
//!   query, worm program, budget-relevant knobs — never thread counts or
//!   emission flags) is rendered into a normalized text and hashed with a
//!   vendored SHA-256 ([`sha`]). Permuted-but-equivalent inputs land on
//!   the same key.
//! * [`cache`] — a **disk-backed content-addressed cache** mapping job
//!   hash to result line + certificate. Hits are served only after the
//!   stored certificate re-passes the trusted `cqfd-cert` checker, so a
//!   corrupt or tampered store costs a re-chase, never a wrong answer.
//! * [`log`] — a **write-ahead stage log**: the chase checkpoints at
//!   stage boundaries in the certificate wire format; after a crash or
//!   cancellation the run resumes from the last committed stage and is
//!   byte-identical (structures, stages, firings, certificate) to an
//!   uninterrupted run, at any thread count.
//!
//! Everything is hand-rolled and offline — no external dependencies, in
//! keeping with the workspace's `shims/` policy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod canon;
pub mod log;
pub mod sha;

pub use cache::{Entry, EvictReport, GcReport, InsertGuard, Lookup, Store, StoreStat};
pub use canon::{canonical_cq, JobKey, KeyBuilder};
pub use log::{resume_point, StageLogWriter};
pub use sha::sha256_hex;
