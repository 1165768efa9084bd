//! # cqfd-gateway — the epoll-reactor server behind `cqfd serve`
//!
//! The one network front end of the determinacy service, built to put
//! it in front of many tenants:
//!
//! * [`reactor`] — a single-threaded epoll event loop (over the vendored
//!   [`polling`] shim, the workspace's one `unsafe` enclave) multiplexing
//!   thousands of connections: nonblocking accept/read/write,
//!   per-connection state machines, read deadlines against slow-loris
//!   stalls, and zero idle polling (job completions and trace records
//!   wake the loop through the poller's eventfd);
//! * two transports on the same loop — the **line protocol** (jobs plus
//!   the control words of [`cqfd_service::debug`]) and an **HTTP/1.1
//!   JSON** ingress (`POST /v1/jobs`, `GET /metrics`, `GET /healthz`,
//!   `GET /debug/*`) — both compiling to the same
//!   [`cqfd_service::Job`], so answers are byte-identical across
//!   transports;
//! * [`admission`] — multi-tenant token-bucket quotas and two bounded
//!   priority lanes; saturation **sheds** with a retry-after hint
//!   (`busy retry-after-ms=` / HTTP 429) instead of queueing without
//!   bound;
//! * [`stream`] — live streaming of `cqfd-obs` trace records to
//!   `stream=1` requests (`trace_event` lines / chunked NDJSON);
//! * [`http`] and [`json`] — the hand-rolled, bounded HTTP/1.1 codec and
//!   flat-JSON parser behind the ingress (the build is offline; no
//!   dependency to lean on).
//!
//! ```no_run
//! use cqfd_gateway::{Gateway, GatewayConfig};
//!
//! let gw = Gateway::bind(Some("127.0.0.1:0"), Some("127.0.0.1:0"),
//!                        GatewayConfig::default()).unwrap();
//! let handle = gw.spawn().unwrap();
//! // ... speak either protocol to handle.line_addr() / handle.http_addr()
//! handle.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod http;
pub mod json;
pub mod reactor;
pub mod stream;

pub use admission::{Admission, Decision, Quota};
pub use reactor::{Gateway, GatewayConfig, GatewayHandle};
pub use stream::TraceRouter;
