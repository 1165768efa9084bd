//! The epoll reactor: one thread, many connections, two protocols.
//!
//! A thread per connection would cost megabytes of stacks and a
//! scheduler fight at a few thousand mostly-idle clients, so `cqfd serve`
//! multiplexes every connection onto a single event loop over the
//! [`polling`] shim's level-triggered epoll wrapper:
//!
//! * two listeners — the **line protocol** of [`cqfd_service::proto`]
//!   and an **HTTP/1.1 JSON** ingress — share the loop; both compile
//!   requests to the same [`cqfd_service::Job`], so a job answers
//!   byte-identically on either transport, and both dispatch control
//!   words and debug paths through the one table in
//!   [`cqfd_service::debug`];
//! * each connection is a small state machine (read buffer, write
//!   buffer, one in-flight job) with nonblocking reads/writes and a
//!   **read deadline** that cuts off mid-request stalls without ever
//!   timing out idle keep-alive connections;
//! * admitted jobs pass **per-tenant token buckets**
//!   ([`crate::admission`]) and wait in two bounded **priority lanes**
//!   (interactive drains before batch) in front of the worker pool;
//!   when a bucket or lane is exhausted the request is **shed** with a
//!   retry-after hint (`busy retry-after-ms=` / HTTP 429) instead of
//!   queueing unboundedly;
//! * the loop never polls: the pool's completion hook
//!   ([`cqfd_service::PoolConfig::on_complete`]) pokes the poller's
//!   eventfd when a result is ready, and the [`crate::stream`] router
//!   does the same for live trace records, so the reactor sleeps in
//!   `epoll_wait` whenever there is nothing to do.

use crate::admission::{Admission, Decision, Quota};
use crate::http;
use crate::json;
use crate::stream::TraceRouter;
use cqfd_service::debug::{self as svc_debug, Control};
use cqfd_service::{
    lint_job, parse_request, Job, JobHandle, JobRequest, Pool, PoolConfig, Priority, SubmitError,
    PROTOCOL_VERSION,
};
use polling::{Event, Poller};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Event key of the line-protocol listener.
const LINE_LISTENER: usize = 0;
/// Event key of the HTTP listener.
const HTTP_LISTENER: usize = 1;
/// First key handed to an accepted connection.
const FIRST_CONN_KEY: usize = 2;
/// Stop reading from a connection whose buffered input outgrows this
/// (backpressure toward the peer; parsing drains it back down).
const READ_HIGH_WATER: usize = 4 * 1024 * 1024;

/// Everything the gateway can be told at bind time.
pub struct GatewayConfig {
    /// Worker-pool sizing (and optionally a result store). The gateway
    /// installs its own completion hook on top.
    pub pool: PoolConfig,
    /// Bounded depth of **each** priority lane; a full lane sheds.
    pub lane_capacity: usize,
    /// Per-tenant token-bucket quotas.
    pub quotas: Vec<(String, Quota)>,
    /// Quota for tenants without an explicit one (`None` = unlimited).
    pub default_quota: Option<Quota>,
    /// HTTP head/body size bounds.
    pub http_limits: http::Limits,
    /// Line-protocol request-line size bound.
    pub max_line_bytes: usize,
    /// How long a *started* request may stall before the connection is
    /// cut (the reactor's slow-loris guard). Idle connections with no
    /// partial request pending never time out.
    pub read_deadline: Duration,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            pool: PoolConfig::default(),
            lane_capacity: 1024,
            quotas: Vec::new(),
            default_quota: None,
            http_limits: http::Limits::default(),
            max_line_bytes: 64 * 1024,
            read_deadline: Duration::from_secs(10),
        }
    }
}

impl GatewayConfig {
    /// Replaces the pool configuration.
    pub fn with_pool(mut self, pool: PoolConfig) -> Self {
        self.pool = pool;
        self
    }

    /// Sets the per-lane queue bound.
    pub fn with_lane_capacity(mut self, cap: usize) -> Self {
        self.lane_capacity = cap.max(1);
        self
    }

    /// Adds a per-tenant quota.
    pub fn with_quota(mut self, tenant: impl Into<String>, quota: Quota) -> Self {
        self.quotas.push((tenant.into(), quota));
        self
    }

    /// Sets the default quota for tenants without an explicit one.
    pub fn with_default_quota(mut self, quota: Quota) -> Self {
        self.default_quota = Some(quota);
        self
    }

    /// Sets the mid-request stall deadline.
    pub fn with_read_deadline(mut self, deadline: Duration) -> Self {
        self.read_deadline = deadline;
        self
    }

    /// Sets the line-protocol request-line bound.
    pub fn with_max_line_bytes(mut self, bytes: usize) -> Self {
        self.max_line_bytes = bytes.max(1024);
        self
    }

    /// Sets the HTTP parsing limits.
    pub fn with_http_limits(mut self, limits: http::Limits) -> Self {
        self.http_limits = limits;
        self
    }
}

/// A bound, not-yet-running gateway (bind first, learn the port, then
/// [`run`](Gateway::run) or [`spawn`](Gateway::spawn)).
pub struct Gateway {
    line_listener: Option<TcpListener>,
    http_listener: Option<TcpListener>,
    config: GatewayConfig,
    poller: Arc<Poller>,
    stop: Arc<AtomicBool>,
}

/// Handle to a gateway running on a background thread.
pub struct GatewayHandle {
    line_addr: Option<SocketAddr>,
    http_addr: Option<SocketAddr>,
    stop: Arc<AtomicBool>,
    poller: Arc<Poller>,
    thread: JoinHandle<()>,
}

impl Gateway {
    /// Binds the requested listeners (at least one of `line_addr` /
    /// `http_addr`) and sets up the poller. Addresses are `host:port`
    /// strings; port 0 binds an ephemeral port.
    pub fn bind(
        line_addr: Option<&str>,
        http_addr: Option<&str>,
        config: GatewayConfig,
    ) -> io::Result<Gateway> {
        if line_addr.is_none() && http_addr.is_none() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "gateway needs at least one listener (line and/or http)",
            ));
        }
        let poller = Arc::new(Poller::new()?);
        let bind_one = |addr: &str, key: usize| -> io::Result<TcpListener> {
            let l = TcpListener::bind(addr)?;
            l.set_nonblocking(true)?;
            poller.add(&l, Event::readable(key))?;
            Ok(l)
        };
        let line_listener = line_addr.map(|a| bind_one(a, LINE_LISTENER)).transpose()?;
        let http_listener = http_addr.map(|a| bind_one(a, HTTP_LISTENER)).transpose()?;
        Ok(Gateway {
            line_listener,
            http_listener,
            config,
            poller,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound line-protocol address, if that listener was requested.
    pub fn line_addr(&self) -> Option<SocketAddr> {
        self.line_listener
            .as_ref()
            .and_then(|l| l.local_addr().ok())
    }

    /// The bound HTTP address, if that listener was requested.
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.http_listener
            .as_ref()
            .and_then(|l| l.local_addr().ok())
    }

    /// Runs the reactor on the calling thread until a client sends
    /// `shutdown` or [`GatewayHandle::shutdown`] fires. All connections,
    /// pool workers, and in-flight jobs are drained/joined on return.
    pub fn run(self) {
        let Gateway {
            line_listener,
            http_listener,
            config,
            poller,
            stop,
        } = self;
        // Job completions must wake the sleeping reactor: the pool's
        // workers poke the eventfd after every result send, and eventfd
        // readability persists until drained, so the wakeup can never be
        // lost between a `try_wait` miss and the next `epoll_wait`.
        let wake = Arc::clone(&poller);
        let pool_config = config.pool.clone().with_completion_hook(Arc::new(move || {
            let _ = wake.notify();
        }));
        let mut reactor = Reactor {
            pool: Pool::new(pool_config),
            poller,
            stop,
            line_listener,
            http_listener,
            conns: HashMap::new(),
            next_key: FIRST_CONN_KEY,
            lanes: [VecDeque::new(), VecDeque::new()],
            pending: Vec::new(),
            profiles: Vec::new(),
            admission: Admission::new(config.quotas.clone(), config.default_quota),
            submit_calls: 0,
            deadline_count: 0,
            meters: Meters::new(),
            config,
        };
        reactor.run();
    }

    /// Runs the gateway on a background thread.
    pub fn spawn(self) -> io::Result<GatewayHandle> {
        let line_addr = self.line_addr();
        let http_addr = self.http_addr();
        let stop = Arc::clone(&self.stop);
        let poller = Arc::clone(&self.poller);
        let thread = std::thread::Builder::new()
            .name("cqfd-gateway".into())
            .spawn(move || self.run())?;
        Ok(GatewayHandle {
            line_addr,
            http_addr,
            stop,
            poller,
            thread,
        })
    }
}

impl GatewayHandle {
    /// The line-protocol address, if that listener exists.
    pub fn line_addr(&self) -> Option<SocketAddr> {
        self.line_addr
    }

    /// The HTTP address, if that listener exists.
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.http_addr
    }

    /// Stops the reactor and joins it (and, transitively, the pool).
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.poller.notify();
        let _ = self.thread.join();
    }

    /// Waits for the reactor to stop on its own (a client's `shutdown`).
    pub fn join(self) {
        let _ = self.thread.join();
    }
}

/// Which wire protocol a connection speaks (fixed by the listener that
/// accepted it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Proto {
    Line,
    Http,
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    key: usize,
    proto: Proto,
    /// Bytes read but not yet parsed.
    rbuf: Vec<u8>,
    /// Bytes rendered but not yet written; `wpos` marks the flushed
    /// prefix.
    wbuf: Vec<u8>,
    wpos: usize,
    /// When the currently-started (partial) request must complete.
    read_deadline: Option<Instant>,
    /// A job is in flight for this connection; requests behind it stay
    /// buffered (natural pipelining).
    busy: bool,
    /// The in-flight HTTP response is chunked (streaming): finish with a
    /// result chunk + terminator instead of a full response.
    http_streaming: bool,
    /// No further requests; close once the write buffer drains and no
    /// job is in flight.
    closing: bool,
    /// Tear down now (I/O error / EOF).
    dead: bool,
    /// Interest last registered with the poller `(readable, writable)`.
    interest: (bool, bool),
}

impl Conn {
    fn push(&mut self, bytes: &[u8]) {
        self.wbuf.extend_from_slice(bytes);
    }

    fn push_line(&mut self, line: &str) {
        self.wbuf.extend_from_slice(line.as_bytes());
        self.wbuf.push(b'\n');
    }

    /// Nonblocking flush of the write buffer.
    fn flush(&mut self) {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        }
    }

    fn has_unsent(&self) -> bool {
        self.wpos < self.wbuf.len()
    }
}

/// A job admitted past quota, waiting in a priority lane for a pool slot.
struct Queued {
    conn_key: usize,
    job: Job,
    tenant: String,
    stream: bool,
    enqueued: Instant,
}

/// A job submitted to the pool, awaiting its result.
struct Pending {
    conn_key: usize,
    handle: JobHandle,
    /// Live trace lines from the [`TraceRouter`], for `stream=1` jobs.
    stream_rx: Option<Receiver<String>>,
    /// The connection died; discard the result when it lands.
    orphaned: bool,
}

/// A sampling-profile window running on a detached `cqfd-profiler`
/// thread for one connection. The reactor must never block for the
/// window (it is the only thread serving every other connection), so the
/// sampler publishes its folded-stack text here and pokes the poller;
/// the reactor delivers it on the next loop turn.
struct ProfileWait {
    conn_key: usize,
    /// Close the connection after delivering (HTTP `Connection: close`).
    close_after: bool,
    /// `Some(text)` once the window finished.
    done: Arc<Mutex<Option<String>>>,
}

/// The gateway's obs instruments.
struct Meters {
    conns_line: cqfd_obs::Gauge,
    conns_http: cqfd_obs::Gauge,
    requests_line: cqfd_obs::Counter,
    requests_http: cqfd_obs::Counter,
    sheds_quota: cqfd_obs::Counter,
    sheds_overload: cqfd_obs::Counter,
}

impl Meters {
    fn new() -> Meters {
        let reg = cqfd_obs::global();
        let conns = |proto| {
            reg.gauge(
                "cqfd_gateway_connections",
                "Open gateway connections by protocol.",
                &[("proto", proto)],
            )
        };
        let requests = |proto| {
            reg.counter(
                "cqfd_gateway_requests_total",
                "Job requests received by the gateway, by protocol.",
                &[("proto", proto)],
            )
        };
        let sheds = |reason| {
            reg.counter(
                "cqfd_gateway_sheds_total",
                "Requests shed with a retry-after hint, by cause.",
                &[("reason", reason)],
            )
        };
        Meters {
            conns_line: conns("line"),
            conns_http: conns("http"),
            requests_line: requests("line"),
            requests_http: requests("http"),
            sheds_quota: sheds("quota"),
            sheds_overload: sheds("overload"),
        }
    }

    fn conns(&self, proto: Proto) -> &cqfd_obs::Gauge {
        match proto {
            Proto::Line => &self.conns_line,
            Proto::Http => &self.conns_http,
        }
    }

    fn requests(&self, proto: Proto) -> &cqfd_obs::Counter {
        match proto {
            Proto::Line => &self.requests_line,
            Proto::Http => &self.requests_http,
        }
    }

    /// Per-tenant queue-wait observation; the registry dedupes the lazy
    /// per-tenant family registration.
    fn observe_queue_wait(&self, tenant: &str, wait: Duration) {
        cqfd_obs::global()
            .histogram(
                "cqfd_gateway_queue_wait_seconds",
                "Time a job waited in the gateway's priority lanes before pool dispatch.",
                &[("tenant", tenant)],
                cqfd_obs::Unit::Seconds,
            )
            .observe_duration(wait);
    }
}

/// One decision about an arriving job request.
enum Verdict {
    /// Queued into a lane; the connection is now busy.
    Queued,
    /// Answer `text` (an error or shed reply) and keep the connection.
    Reply(ReplyKind),
}

enum ReplyKind {
    /// A request-level error (`error:` line / HTTP 400).
    Error(String),
    /// Shed with a retry hint.
    Shed { retry_after: Duration },
}

struct Reactor {
    pool: Pool,
    poller: Arc<Poller>,
    stop: Arc<AtomicBool>,
    line_listener: Option<TcpListener>,
    http_listener: Option<TcpListener>,
    conns: HashMap<usize, Conn>,
    next_key: usize,
    /// `lanes[0]` interactive, `lanes[1]` batch; interactive drains first.
    lanes: [VecDeque<Queued>; 2],
    pending: Vec<Pending>,
    /// Profile windows in flight on detached sampler threads.
    profiles: Vec<ProfileWait>,
    admission: Admission,
    /// Mirror of the pool's id counter: the reactor is the pool's only
    /// submitter and every `submit` call consumes exactly one id, so the
    /// next job's id is predictable — which lets a streaming job's trace
    /// route be registered *before* the submit, closing the window where
    /// an early record could slip past the router.
    submit_calls: u64,
    /// How many connections currently carry a read deadline (skips the
    /// deadline scan when zero).
    deadline_count: usize,
    meters: Meters,
    config: GatewayConfig,
}

fn lane_index(p: Priority) -> usize {
    match p {
        Priority::Interactive => 0,
        Priority::Batch => 1,
    }
}

fn valid_tenant(t: &str) -> bool {
    !t.is_empty()
        && t.bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
}

/// Does the raw job line already carry this `key=` routing token?
fn has_meta(line: &str, key: &str) -> bool {
    line.split_whitespace().skip(1).any(|t| t.starts_with(key))
}

impl Reactor {
    fn run(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        while !self.stop.load(Ordering::SeqCst) {
            let timeout = self.next_deadline().map(|d| {
                d.checked_duration_since(Instant::now())
                    .unwrap_or(Duration::ZERO)
            });
            events.clear();
            if self.poller.wait(&mut events, timeout).is_err() {
                break;
            }
            let mut touched: Vec<usize> = Vec::new();
            for ev in &events {
                match ev.key {
                    LINE_LISTENER => self.accept(Proto::Line, &mut touched),
                    HTTP_LISTENER => self.accept(Proto::Http, &mut touched),
                    key => {
                        if ev.readable {
                            self.read_conn(key);
                            self.process_input(key);
                        }
                        if ev.writable {
                            if let Some(conn) = self.conns.get_mut(&key) {
                                conn.flush();
                            }
                        }
                        touched.push(key);
                    }
                }
            }
            self.drain_pending(&mut touched);
            self.drain_profiles(&mut touched);
            self.dispatch_lanes();
            self.enforce_deadlines(&mut touched);
            touched.sort_unstable();
            touched.dedup();
            for key in touched {
                self.finish_conn(key);
            }
        }
        // Shutdown: cancel in-flight jobs (cooperative — the chase/creep
        // loops stop at their next poll), tear down routes, and let the
        // pool drain and join on drop.
        for p in &self.pending {
            p.handle.cancel();
            if p.stream_rx.is_some() {
                TraceRouter::global().unregister(p.handle.id);
            }
        }
    }

    /// The soonest read deadline across connections, if any.
    fn next_deadline(&self) -> Option<Instant> {
        if self.deadline_count == 0 {
            return None;
        }
        self.conns.values().filter_map(|c| c.read_deadline).min()
    }

    fn accept(&mut self, proto: Proto, touched: &mut Vec<usize>) {
        loop {
            let listener = match proto {
                Proto::Line => self.line_listener.as_ref(),
                Proto::Http => self.http_listener.as_ref(),
            };
            let Some(listener) = listener else { return };
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let key = self.next_key;
                    self.next_key += 1;
                    let mut conn = Conn {
                        stream,
                        key,
                        proto,
                        rbuf: Vec::new(),
                        wbuf: Vec::new(),
                        wpos: 0,
                        read_deadline: None,
                        busy: false,
                        http_streaming: false,
                        closing: false,
                        dead: false,
                        interest: (true, false),
                    };
                    if proto == Proto::Line {
                        conn.push_line(&format!("cqfd-service {PROTOCOL_VERSION}"));
                        conn.flush();
                    }
                    if self.poller.add(&conn.stream, Event::readable(key)).is_err() {
                        continue;
                    }
                    self.meters.conns(proto).inc();
                    self.conns.insert(key, conn);
                    touched.push(key);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// Nonblocking read into the connection's buffer, up to the
    /// high-water mark.
    fn read_conn(&mut self, key: usize) {
        let Some(conn) = self.conns.get_mut(&key) else {
            return;
        };
        let mut chunk = [0u8; 16 * 1024];
        while conn.rbuf.len() < READ_HIGH_WATER {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.dead = true;
                    return;
                }
                Ok(n) => conn.rbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.dead = true;
                    return;
                }
            }
        }
    }

    /// Parses and answers as many buffered requests as possible. Stops at
    /// a partial request, a queued job (one in flight per connection), or
    /// a closing/dead connection.
    fn process_input(&mut self, key: usize) {
        loop {
            let Some(conn) = self.conns.get_mut(&key) else {
                return;
            };
            // A dead connection (EOF already seen) still gets its buffered
            // requests parsed: a client that writes `shutdown` and closes in
            // one breath must not have the command dropped just because the
            // FIN rode in with the data. Replies are discarded at reap.
            if conn.busy || conn.closing {
                break;
            }
            let made_progress = match conn.proto {
                Proto::Line => self.process_line(key),
                Proto::Http => self.process_http(key),
            };
            if !made_progress {
                break;
            }
        }
        // Deadline bookkeeping: a partial request pending on an otherwise
        // idle connection starts the stall clock; anything else clears it.
        if let Some(conn) = self.conns.get_mut(&key) {
            let stalled = !conn.rbuf.is_empty() && !conn.busy && !conn.closing && !conn.dead;
            match (conn.read_deadline, stalled) {
                (None, true) => {
                    conn.read_deadline = Some(Instant::now() + self.config.read_deadline);
                    self.deadline_count += 1;
                }
                (Some(_), false) => {
                    conn.read_deadline = None;
                    self.deadline_count -= 1;
                }
                _ => {}
            }
        }
    }

    /// Handles one line-protocol request from the buffer. Returns whether
    /// a full line was consumed.
    fn process_line(&mut self, key: usize) -> bool {
        let line = {
            let Some(conn) = self.conns.get_mut(&key) else {
                return false;
            };
            let Some(pos) = conn.rbuf.iter().position(|&b| b == b'\n') else {
                if conn.rbuf.len() > self.config.max_line_bytes {
                    conn.push_line(&format!(
                        "error: request line exceeds {} bytes",
                        self.config.max_line_bytes
                    ));
                    conn.closing = true;
                }
                return false;
            };
            let raw: Vec<u8> = conn.rbuf.drain(..=pos).collect();
            String::from_utf8_lossy(&raw[..pos])
                .trim_end_matches('\r')
                .trim()
                .to_string()
        };
        if let Some(word) = svc_debug::control(&line) {
            let conn = self.conns.get_mut(&key).expect("conn alive");
            match word {
                Control::Reply(reply) => conn.push_line(&reply),
                Control::Close(reply) => {
                    conn.push_line(&reply);
                    conn.closing = true;
                }
                Control::Shutdown => {
                    conn.push_line("bye");
                    conn.closing = true;
                    self.stop.store(true, Ordering::SeqCst);
                }
                Control::Profile { seconds, hz } => self.start_profile(key, seconds, hz, false),
            }
            return true;
        }
        match parse_request(&line) {
            Ok(None) => true, // blank / comment: no reply
            Ok(Some(req)) => {
                match self.admit(key, req, Proto::Line) {
                    Verdict::Queued => {}
                    Verdict::Reply(kind) => {
                        let conn = self.conns.get_mut(&key).expect("conn alive");
                        match kind {
                            ReplyKind::Error(e) => conn.push_line(&format!("error: {e}")),
                            ReplyKind::Shed { retry_after } => conn.push_line(&format!(
                                "busy retry-after-ms={}",
                                retry_after.as_millis().max(1)
                            )),
                        }
                    }
                }
                true
            }
            Err(e) => {
                let conn = self.conns.get_mut(&key).expect("conn alive");
                conn.push_line(&format!("error: {e}"));
                true
            }
        }
    }

    /// Handles one HTTP request from the buffer. Returns whether a full
    /// request was consumed.
    fn process_http(&mut self, key: usize) -> bool {
        let parsed = {
            let Some(conn) = self.conns.get_mut(&key) else {
                return false;
            };
            http::parse_request(&conn.rbuf, &self.config.http_limits)
        };
        let req = match parsed {
            http::Parse::Partial => return false,
            http::Parse::Bad { status, reason } => {
                let conn = self.conns.get_mut(&key).expect("conn alive");
                let body = format!("{{\"error\":\"{}\"}}", json::escape(&reason));
                conn.push(&http::response(
                    status,
                    status_reason(status),
                    "application/json",
                    &[("Connection", "close")],
                    body.as_bytes(),
                ));
                conn.closing = true;
                return false;
            }
            http::Parse::Complete { value, consumed } => {
                let conn = self.conns.get_mut(&key).expect("conn alive");
                conn.rbuf.drain(..consumed);
                value
            }
        };
        let close_after = req
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"));
        let (path, query) = req
            .target
            .split_once('?')
            .unwrap_or((req.target.as_str(), ""));
        if let Some(s) = svc_debug::surface_at(path).filter(|_| req.method == "GET") {
            let text = (s.text)();
            self.respond(key, 200, s.content_type, text.as_bytes(), close_after);
            return true;
        }
        match (req.method.as_str(), path) {
            ("GET", "/healthz") => {
                let body = self.healthz_body();
                self.respond(key, 200, "text/plain", body.as_bytes(), close_after);
            }
            ("GET", "/debug/profile") => {
                // Query string reuses the control-word grammar: `&`-joined
                // `seconds=N`/`hz=N` pairs become whitespace-joined tokens.
                match svc_debug::parse_profile_args(&query.replace('&', " ")) {
                    Ok((seconds, hz)) => self.start_profile(key, seconds, hz, close_after),
                    Err(e) => {
                        let body = format!("{{\"error\":\"{}\"}}", json::escape(&e));
                        self.respond_with(
                            key,
                            400,
                            "application/json",
                            &[],
                            body.as_bytes(),
                            close_after,
                        );
                    }
                }
            }
            ("POST", "/v1/jobs") => match self.http_job_request(&req) {
                Ok(jr) => {
                    let streaming = jr.stream;
                    match self.admit(key, jr, Proto::Http) {
                        Verdict::Queued => {
                            let conn = self.conns.get_mut(&key).expect("conn alive");
                            conn.closing = close_after; // still answers the in-flight job
                            if streaming {
                                conn.http_streaming = true;
                                conn.push(&http::chunked_head(
                                    200,
                                    "OK",
                                    "application/x-ndjson",
                                    &[],
                                ));
                            }
                        }
                        Verdict::Reply(ReplyKind::Error(e)) => {
                            let body = format!("{{\"error\":\"{}\"}}", json::escape(&e));
                            self.respond_with(
                                key,
                                400,
                                "application/json",
                                &[],
                                body.as_bytes(),
                                close_after,
                            );
                        }
                        Verdict::Reply(ReplyKind::Shed { retry_after }) => {
                            let ms = retry_after.as_millis().max(1);
                            let secs = retry_after.as_secs_f64().ceil().max(1.0) as u64;
                            let body = format!("{{\"error\":\"busy\",\"retry_after_ms\":{ms}}}");
                            self.respond_with(
                                key,
                                429,
                                "application/json",
                                &[("Retry-After", &secs.to_string())],
                                body.as_bytes(),
                                close_after,
                            );
                        }
                    }
                }
                Err(e) => {
                    let body = format!("{{\"error\":\"{}\"}}", json::escape(&e));
                    self.respond_with(
                        key,
                        400,
                        "application/json",
                        &[],
                        body.as_bytes(),
                        close_after,
                    );
                }
            },
            _ => {
                let body = format!(
                    "{{\"error\":\"no such endpoint: {} {}\"}}",
                    json::escape(&req.method),
                    json::escape(&req.target)
                );
                self.respond_with(
                    key,
                    404,
                    "application/json",
                    &[],
                    body.as_bytes(),
                    close_after,
                );
            }
        }
        true
    }

    /// Builds the [`JobRequest`] for a `POST /v1/jobs` body, merging the
    /// three metadata channels: tokens inside the job line win, then JSON
    /// body fields, then `X-Cqfd-*` headers.
    fn http_job_request(&self, req: &http::Request) -> Result<JobRequest, String> {
        let pairs = json::parse_object(&req.body).map_err(|e| format!("bad JSON body: {e}"))?;
        let job_line = json::get(&pairs, "job")
            .and_then(|v| v.as_str())
            .ok_or("body needs a string `job` field")?;
        let mut jr = parse_request(job_line)?.ok_or("`job` is empty (blank line or comment)")?;
        if !has_meta(job_line, "tenant=") {
            let fallback = json::get(&pairs, "tenant")
                .and_then(|v| v.as_str())
                .map(str::to_string)
                .or_else(|| req.header("x-cqfd-tenant").map(str::to_string));
            if let Some(t) = fallback {
                if !valid_tenant(&t) {
                    return Err(format!("bad tenant `{t}`"));
                }
                jr.tenant = t;
            }
        }
        if !has_meta(job_line, "priority=") {
            let fallback = json::get(&pairs, "priority")
                .and_then(|v| v.as_str())
                .map(str::to_string)
                .or_else(|| req.header("x-cqfd-priority").map(str::to_string));
            if let Some(p) = fallback {
                jr.priority = Priority::parse(&p)?;
            }
        }
        if !has_meta(job_line, "stream=") {
            let body_stream = json::get(&pairs, "stream").map(|v| v.truthy());
            let header_stream = req
                .header("x-cqfd-stream")
                .map(|v| v == "1" || v.eq_ignore_ascii_case("true"));
            if let Some(s) = body_stream.or(header_stream) {
                jr.stream = s;
            }
        }
        Ok(jr)
    }

    /// The admission pipeline: lint gate → tenant token bucket → lane
    /// capacity. On success the job is queued and the connection marked
    /// busy.
    fn admit(&mut self, key: usize, req: JobRequest, proto: Proto) -> Verdict {
        self.meters.requests(proto).inc();
        // A job whose rule set carries error-severity diagnostics would
        // chase garbage; reject it before it costs a quota token.
        let report = lint_job(&req.job);
        if let Some(d) = report.first_error() {
            return Verdict::Reply(ReplyKind::Error(format!("lint: {}", d.render_human())));
        }
        match self.admission.check(&req.tenant, Instant::now()) {
            Decision::Shed { retry_after } => {
                self.meters.sheds_quota.inc();
                return Verdict::Reply(ReplyKind::Shed { retry_after });
            }
            Decision::Admit => {}
        }
        let lane = lane_index(req.priority);
        if self.lanes[lane].len() >= self.config.lane_capacity {
            self.meters.sheds_overload.inc();
            // No bucket to consult here; hint proportionally to how much
            // work is already waiting.
            let depth = self.lanes[0].len() + self.lanes[1].len();
            let retry_after = Duration::from_millis((50 + 2 * depth as u64).min(2_000));
            return Verdict::Reply(ReplyKind::Shed { retry_after });
        }
        self.lanes[lane].push_back(Queued {
            conn_key: key,
            job: req.job,
            tenant: req.tenant,
            stream: req.stream,
            enqueued: Instant::now(),
        });
        if let Some(conn) = self.conns.get_mut(&key) {
            conn.busy = true;
        }
        Verdict::Queued
    }

    /// Moves queued jobs into the pool, interactive lane first, until the
    /// pool pushes back.
    fn dispatch_lanes(&mut self) {
        for lane in [0, 1] {
            while let Some(q) = self.lanes[lane].front() {
                // Submit a clone: `Pool::submit` consumes its job even
                // when the bounded queue rejects it.
                let job = q.job.clone();
                let predicted_id = self.submit_calls + 1;
                let rx = q.stream.then(|| {
                    TraceRouter::global().register(predicted_id, Arc::clone(&self.poller))
                });
                self.submit_calls += 1;
                match self.pool.submit(job) {
                    Ok(handle) => {
                        debug_assert_eq!(
                            handle.id, predicted_id,
                            "reactor is the pool's only submitter"
                        );
                        let q = self.lanes[lane].pop_front().expect("front exists");
                        self.meters
                            .observe_queue_wait(&q.tenant, q.enqueued.elapsed());
                        self.pending.push(Pending {
                            conn_key: q.conn_key,
                            handle,
                            stream_rx: rx,
                            orphaned: false,
                        });
                    }
                    Err(SubmitError::QueueFull) => {
                        if rx.is_some() {
                            TraceRouter::global().unregister(predicted_id);
                        }
                        return; // pool full: batch lane can't help either
                    }
                }
            }
        }
    }

    /// Forwards live trace lines and delivers finished results.
    fn drain_pending(&mut self, touched: &mut Vec<usize>) {
        let mut i = 0;
        while i < self.pending.len() {
            self.forward_stream(i, touched);
            let done = self.pending[i].handle.try_wait();
            match done {
                Some(result) => {
                    // Records can land between the drain above and the
                    // result send; catch the stragglers before finishing.
                    self.forward_stream(i, touched);
                    let p = self.pending.swap_remove(i);
                    if p.stream_rx.is_some() {
                        TraceRouter::global().unregister(p.handle.id);
                    }
                    if !p.orphaned {
                        self.deliver_result(p.conn_key, &result);
                        touched.push(p.conn_key);
                    }
                }
                None => i += 1,
            }
        }
    }

    /// Drains `pending[i]`'s trace channel into its connection.
    fn forward_stream(&mut self, i: usize, touched: &mut Vec<usize>) {
        let p = &self.pending[i];
        let Some(rx) = &p.stream_rx else { return };
        let conn_key = p.conn_key;
        let orphaned = p.orphaned;
        let mut lines: Vec<String> = Vec::new();
        while let Ok(line) = rx.try_recv() {
            lines.push(line);
        }
        if lines.is_empty() || orphaned {
            return;
        }
        if let Some(conn) = self.conns.get_mut(&conn_key) {
            for line in lines {
                match conn.proto {
                    Proto::Line => conn.push_line(&format!("trace_event {line}")),
                    Proto::Http => {
                        let mut data = line.into_bytes();
                        data.push(b'\n');
                        conn.push(&http::chunk(&data));
                    }
                }
            }
            touched.push(conn_key);
        }
    }

    /// Renders a finished job's answer onto its connection and resumes
    /// parsing any pipelined requests behind it.
    fn deliver_result(&mut self, key: usize, result: &cqfd_service::JobResult) {
        let Some(conn) = self.conns.get_mut(&key) else {
            return;
        };
        match conn.proto {
            Proto::Line => {
                conn.push_line(&result.render_protocol());
            }
            Proto::Http => {
                let body = format!(
                    "{{\"id\":{},\"kind\":\"{}\",\"verdict\":\"{}\",\"result\":\"{}\"}}",
                    result.id,
                    result.kind,
                    result.outcome.verdict(),
                    json::escape(&result.render_protocol()),
                );
                if conn.http_streaming {
                    let mut data = body.into_bytes();
                    data.push(b'\n');
                    conn.push(&http::chunk(&data));
                    conn.push(http::CHUNK_END);
                    conn.http_streaming = false;
                } else {
                    let close = conn.closing;
                    conn.push(&http::response(
                        200,
                        "OK",
                        "application/json",
                        if close {
                            &[("Connection", "close")]
                        } else {
                            &[]
                        },
                        body.as_bytes(),
                    ));
                }
            }
        }
        conn.busy = false;
        self.process_input(key);
    }

    /// Cuts off connections whose started request missed its deadline.
    fn enforce_deadlines(&mut self, touched: &mut Vec<usize>) {
        if self.deadline_count == 0 {
            return;
        }
        let now = Instant::now();
        let expired: Vec<usize> = self
            .conns
            .values()
            .filter(|c| c.read_deadline.is_some_and(|d| d <= now))
            .map(|c| c.key)
            .collect();
        for key in expired {
            let ms = self.config.read_deadline.as_millis();
            let conn = self.conns.get_mut(&key).expect("conn alive");
            conn.read_deadline = None;
            self.deadline_count -= 1;
            match conn.proto {
                Proto::Line => {
                    conn.push_line(&format!("error: request line not completed within {ms} ms"));
                }
                Proto::Http => {
                    let body = format!("{{\"error\":\"request not completed within {ms} ms\"}}");
                    conn.push(&http::response(
                        408,
                        "Request Timeout",
                        "application/json",
                        &[("Connection", "close")],
                        body.as_bytes(),
                    ));
                }
            }
            conn.closing = true;
            touched.push(key);
        }
    }

    /// Flushes, re-registers interest, and reaps a connection after any
    /// activity touched it.
    fn finish_conn(&mut self, key: usize) {
        let Some(conn) = self.conns.get_mut(&key) else {
            return;
        };
        conn.flush();
        let drained = !conn.has_unsent();
        if conn.dead || (conn.closing && drained && !conn.busy) {
            self.reap(key);
            return;
        }
        let conn = self.conns.get_mut(&key).expect("conn alive");
        let want = (
            !conn.closing && conn.rbuf.len() < READ_HIGH_WATER,
            conn.has_unsent(),
        );
        if want != conn.interest {
            let ev = Event {
                key,
                readable: want.0,
                writable: want.1,
            };
            if self.poller.modify(&conn.stream, ev).is_err() {
                conn.dead = true;
                self.reap(key);
                return;
            }
            conn.interest = want;
        }
    }

    /// Removes a connection: deregisters it, frees its deadline slot, and
    /// orphans any job still in flight for it (cancelled cooperatively;
    /// the result is discarded when it lands).
    fn reap(&mut self, key: usize) {
        let Some(conn) = self.conns.remove(&key) else {
            return;
        };
        let _ = self.poller.delete(&conn.stream);
        if conn.read_deadline.is_some() {
            self.deadline_count -= 1;
        }
        self.meters.conns(conn.proto).dec();
        self.lanes
            .iter_mut()
            .for_each(|lane| lane.retain(|q| q.conn_key != key));
        for p in &mut self.pending {
            if p.conn_key == key && !p.orphaned {
                p.orphaned = true;
                p.handle.cancel();
                if p.stream_rx.take().is_some() {
                    TraceRouter::global().unregister(p.handle.id);
                }
            }
        }
    }

    /// The `/healthz` readiness payload. The first line stays the bare
    /// `ok` the original liveness probe promised; the rest is one
    /// `key=value` per line so load balancers can gate on queue depth or
    /// store reachability without parsing JSON.
    fn healthz_body(&self) -> String {
        let store = match self.pool.store() {
            None => "absent",
            Some(s) => {
                if s.stat().is_ok() {
                    "ok"
                } else {
                    "error"
                }
            }
        };
        format!(
            "ok\nworkers={}\nqueue_depth={}\nlane_interactive_depth={}\nlane_batch_depth={}\nstore={store}\n",
            self.pool.worker_count(),
            self.pool.queue_depth(),
            self.lanes[0].len(),
            self.lanes[1].len(),
        )
    }

    /// Kicks off a sampling window for one connection on a detached
    /// `cqfd-profiler` thread. The connection is marked busy for the
    /// window so pipelined requests behind it queue up (same rule as a
    /// job); `drain_profiles` delivers the folded stacks when the sampler
    /// pokes the poller.
    fn start_profile(&mut self, key: usize, seconds: u64, hz: u32, close_after: bool) {
        let Some(conn) = self.conns.get_mut(&key) else {
            return;
        };
        conn.busy = true;
        let done: Arc<Mutex<Option<String>>> = Arc::new(Mutex::new(None));
        let slot = Arc::clone(&done);
        let poller = Arc::clone(&self.poller);
        let spawned = std::thread::Builder::new()
            .name("cqfd-profiler".into())
            .spawn(move || {
                let text = svc_debug::profile_folded(seconds, hz);
                *slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(text);
                let _ = poller.notify();
            });
        match spawned {
            Ok(_) => self.profiles.push(ProfileWait {
                conn_key: key,
                close_after,
                done,
            }),
            Err(_) => {
                // Could not spawn the sampler; fail the request rather
                // than leave the connection busy forever.
                let conn = self.conns.get_mut(&key).expect("conn alive");
                conn.busy = false;
                match conn.proto {
                    Proto::Line => conn.push_line("error: could not start profiler thread"),
                    Proto::Http => {
                        let body = b"{\"error\":\"could not start profiler thread\"}";
                        self.respond(key, 500, "application/json", body, close_after);
                    }
                }
            }
        }
    }

    /// Delivers finished profile windows to their connections.
    fn drain_profiles(&mut self, touched: &mut Vec<usize>) {
        let mut i = 0;
        while i < self.profiles.len() {
            let text = {
                let pw = &self.profiles[i];
                pw.done.lock().unwrap_or_else(|e| e.into_inner()).take()
            };
            let Some(text) = text else {
                i += 1;
                continue;
            };
            let pw = self.profiles.swap_remove(i);
            let Some(conn) = self.conns.get_mut(&pw.conn_key) else {
                continue; // connection died mid-window; drop the text
            };
            match conn.proto {
                Proto::Line => {
                    let reply = svc_debug::framed_reply("profile", &text);
                    conn.push_line(&reply);
                    conn.busy = false;
                }
                Proto::Http => {
                    conn.busy = false;
                    self.respond(
                        pw.conn_key,
                        200,
                        "text/plain",
                        text.as_bytes(),
                        pw.close_after,
                    );
                }
            }
            touched.push(pw.conn_key);
            self.process_input(pw.conn_key);
        }
    }

    /// Sends a plain (non-streaming) HTTP response.
    fn respond(&mut self, key: usize, status: u16, ctype: &str, body: &[u8], close: bool) {
        self.respond_with(key, status, ctype, &[], body, close);
    }

    fn respond_with(
        &mut self,
        key: usize,
        status: u16,
        ctype: &str,
        extra: &[(&str, &str)],
        body: &[u8],
        close: bool,
    ) {
        let Some(conn) = self.conns.get_mut(&key) else {
            return;
        };
        let mut headers: Vec<(&str, &str)> = extra.to_vec();
        if close {
            headers.push(("Connection", "close"));
        }
        conn.push(&http::response(
            status,
            status_reason(status),
            ctype,
            &headers,
            body,
        ));
        if close {
            conn.closing = true;
        }
    }
}

fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        505 => "HTTP Version Not Supported",
        _ => "Error",
    }
}
