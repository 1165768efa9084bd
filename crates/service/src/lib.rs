//! # cqfd-service — concurrent job execution for determinacy workloads
//!
//! Everything interesting in this workspace is a *semi-decision*
//! procedure: the determinacy oracle may chase forever (Theorem 1), a
//! rainworm may creep forever (Lemma 21), a counter-example search may
//! exhaust any box you put it in. That shape — batches of jobs, each of
//! which might not come back — is what this crate serves:
//!
//! * [`Job`] — a typed description of one unit of work (determine,
//!   rewrite, reduce, creep, separate, counter-example search) with a
//!   [`JobBudget`]: stage/step/node limits plus a wall-clock timeout;
//! * [`Pool`] — a fixed-size worker pool on plain `std` threads with a
//!   *bounded* submission queue (backpressure, not unbounded memory) and
//!   cooperative cancellation: every [`JobHandle`] carries a
//!   [`CancelToken`](cqfd_core::CancelToken) that the chase polls at stage
//!   and trigger boundaries (`ChaseBudget::should_stop`) and the creep
//!   polls every step;
//! * [`JobResult`] — the verdict plus [`JobMetrics`] harvested from the
//!   instrumentation counters in `cqfd-chase` (stages, triggers) and
//!   `cqfd-core::hom` (search nodes);
//! * [`proto`] — the line protocol of `cqfd batch` job files and of the
//!   `cqfd serve` gateway (crate `cqfd-gateway`), whose control words
//!   (`metrics`, `flight`, `profile`, `quit`, …) live in one table in
//!   [`debug`].
//!
//! ```
//! use cqfd_service::{parse_job, Pool, PoolConfig};
//!
//! let pool = Pool::new(PoolConfig::default().with_workers(2));
//! let job = parse_job("determine instance=path:2x2").unwrap().unwrap();
//! let result = pool.submit(job).unwrap().wait();
//! assert_eq!(result.outcome.verdict(), "determined");
//! pool.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod debug;
pub mod dispatch;
pub mod exec;
pub mod job;
pub mod lint;
pub mod outcome;
pub mod pool;
pub mod proto;

pub use debug::PROTOCOL_VERSION;
pub use dispatch::{Dispatch, Route};
pub use exec::{execute, execute_stored, job_key};
pub use job::{Job, JobBudget};
pub use lint::lint_job;
pub use outcome::{parse_result_line, JobMetrics, JobOutcome, JobResult};
pub use pool::{JobHandle, Pool, PoolConfig, SubmitError};
pub use proto::{parse_job, parse_jobs, parse_request, JobRequest, Priority, DEFAULT_TENANT};
