//! The load generator: one client process, two connections.
//!
//! The client opens exactly [`crate::CONNECTIONS`] connections to the
//! gateway — one line protocol, one HTTP/JSON — and drives them from one
//! epoll loop:
//!
//! * **closed loop** — each connection sends its next request as soon as
//!   its previous reply is in, so a slow server receives less load;
//! * **open loop** — a second thread writes every request at its
//!   scheduled due time whatever the replies are doing, alternating the
//!   connections; the gateway queues pipelined requests per connection,
//!   and each request is timed from when it was **due**, so a stall shows
//!   in the latency of every request queued behind it.
//!
//! Every reply goes through a [`Verifier`]: errors, sheds and missing
//! replies are failures, and every reply to a line must equal the first
//! one after [`normalize`](crate::normalize::normalize). The first reply
//! is later compared with a reference computed in-process.

use crate::layers::SpanTotals;
use crate::normalize;
use crate::prom::Scrape;
use crate::workload::{traceable, Arrival, DeckGen, Lines, Planned, Workload};
use cqfd_gateway::http as ghttp;
use cqfd_gateway::json as gjson;
use polling::{Event, Poller};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Which transport a connection speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proto {
    /// The newline-framed job protocol.
    Line,
    /// `POST /v1/jobs` with a JSON body.
    Http,
}

/// What came back for one request.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// A result: the protocol rendering, payload lines included.
    Answer(String),
    /// An `error:` line or a non-2xx, non-429 HTTP response.
    Error(String),
    /// Shed with a retry-after hint (`busy retry-after-ms=` / HTTP 429).
    Shed,
}

/// Client-side HTTP bounds: certificates of the separating chase run to
/// hundreds of kilobytes.
const HTTP_LIMITS: ghttp::Limits = ghttp::Limits {
    max_head_bytes: 16 * 1024,
    max_body_bytes: 256 * 1024 * 1024,
};

/// How long a phase may overrun its own length before the missing
/// replies are given up as failed.
const GRACE: Duration = Duration::from_secs(60);

/// The request bytes for one job line.
pub fn encode(proto: Proto, line: &str) -> Vec<u8> {
    match proto {
        Proto::Line => format!("{line}\n").into_bytes(),
        Proto::Http => ghttp::render_request(&http_post(line), false),
    }
}

fn http_post(line: &str) -> ghttp::Request {
    ghttp::Request {
        method: "POST".into(),
        target: "/v1/jobs".into(),
        headers: Vec::new(),
        body: format!("{{\"job\":\"{}\"}}", gjson::escape(line)).into_bytes(),
    }
}

/// Removes one complete reply from the front of `rbuf`, if one is there.
pub fn take_reply(proto: Proto, rbuf: &mut Vec<u8>) -> Option<Reply> {
    match proto {
        Proto::Line => {
            let first_end = rbuf.iter().position(|&b| b == b'\n')?;
            let first = String::from_utf8_lossy(&rbuf[..first_end]).into_owned();
            if first.starts_with("busy retry-after-ms=") {
                rbuf.drain(..=first_end);
                return Some(Reply::Shed);
            }
            if !first.starts_with("job=") {
                rbuf.drain(..=first_end);
                return Some(Reply::Error(first));
            }
            let need = normalize::Payload::of(&first).reply_lines();
            let mut end = first_end;
            for _ in 1..need {
                end += 1 + rbuf[end + 1..].iter().position(|&b| b == b'\n')?;
            }
            let text = String::from_utf8_lossy(&rbuf[..end]).into_owned();
            rbuf.drain(..=end);
            Some(Reply::Answer(text))
        }
        Proto::Http => match take_http_response(rbuf)? {
            Err(e) => Some(Reply::Error(e)),
            Ok(resp) if resp.status == 200 => {
                let result = gjson::parse_object(&resp.body).ok().and_then(|pairs| {
                    gjson::get(&pairs, "result")
                        .and_then(|v| v.as_str())
                        .map(str::to_string)
                });
                Some(match result {
                    Some(text) => Reply::Answer(text),
                    None => Reply::Error(String::from_utf8_lossy(&resp.body).into_owned()),
                })
            }
            Ok(resp) if resp.status == 429 => Some(Reply::Shed),
            Ok(resp) => Some(Reply::Error(format!(
                "HTTP {}: {}",
                resp.status,
                String::from_utf8_lossy(&resp.body)
            ))),
        },
    }
}

/// Removes one complete HTTP response from the front of `rbuf`. A
/// malformed response empties the buffer (the stream cannot be
/// re-synchronised) and is returned as an error.
fn take_http_response(rbuf: &mut Vec<u8>) -> Option<Result<ghttp::Response, String>> {
    match ghttp::parse_response(rbuf, &HTTP_LIMITS) {
        ghttp::Parse::Complete { value, consumed } => {
            rbuf.drain(..consumed);
            Some(Ok(value))
        }
        ghttp::Parse::Partial => None,
        ghttp::Parse::Bad { status, reason } => {
            rbuf.clear();
            Some(Err(format!("malformed response ({status}): {reason}")))
        }
    }
}

#[derive(Debug, Default)]
struct Seen {
    /// The normalised first reply, once one has arrived.
    first: Option<String>,
    /// Requests of this line accounted for (answered, failed or missing).
    requests: u64,
    /// Of those, how many already count as failed.
    failed: u64,
}

/// Checks replies line by line.
#[derive(Debug)]
pub struct Verifier {
    mask_homs: bool,
    require_cached: bool,
    seen: HashMap<usize, Seen>,
    failed: u64,
    problems: Vec<String>,
}

/// Keep this many failure descriptions for the report.
const MAX_PROBLEMS: usize = 8;

impl Verifier {
    /// A verifier masking `homs=` when the workload has a store, and
    /// requiring the `cached=1` marker on a warm store.
    pub fn new(mask_homs: bool, require_cached: bool) -> Verifier {
        Verifier {
            mask_homs,
            require_cached,
            seen: HashMap::new(),
            failed: 0,
            problems: Vec::new(),
        }
    }

    fn fail(&mut self, line: usize, n: u64, why: String) {
        if n == 0 {
            return;
        }
        let s = self.seen.entry(line).or_default();
        s.failed += n;
        self.failed += n;
        if self.problems.len() < MAX_PROBLEMS {
            self.problems.push(why);
        }
    }

    /// Records the reply to one request of `line`; false when it failed.
    pub fn record(&mut self, line: usize, reply: &Reply) -> bool {
        let mask = self.mask_homs;
        let require_cached = self.require_cached;
        let s = self.seen.entry(line).or_default();
        s.requests += 1;
        let problem = match reply {
            Reply::Answer(text) if require_cached && !normalize::is_cached(text) => {
                Some(format!("not served from the store: {text:.160}"))
            }
            Reply::Answer(text) => {
                let n = normalize::normalize(text, mask);
                match &s.first {
                    None => {
                        s.first = Some(n);
                        None
                    }
                    Some(first) if *first == n => None,
                    Some(first) => Some(format!(
                        "reply differs from an earlier one:\n  {n:.160}\n  {first:.160}"
                    )),
                }
            }
            Reply::Error(e) => Some(format!("error reply: {e:.160}")),
            Reply::Shed => Some("shed".to_string()),
        };
        match problem {
            Some(why) => {
                self.fail(line, 1, why);
                false
            }
            None => true,
        }
    }

    /// Counts one request of `line` that never got a reply.
    pub fn missing(&mut self, line: usize) {
        self.seen.entry(line).or_default().requests += 1;
        self.fail(line, 1, "missing reply".to_string());
    }

    /// Fails every not-yet-failed request of `line` unless its first
    /// reply equals `expected` (already normalised).
    pub fn expect(&mut self, line: usize, expected: &str, what: &str) {
        let Some(s) = self.seen.get(&line) else {
            return;
        };
        if s.first.as_deref().is_some_and(|f| f != expected) {
            let n = s.requests - s.failed;
            let why = format!(
                "line {line} differs from its {what}:\n  got  {:.160}\n  want {expected:.160}",
                s.first.as_deref().unwrap_or_default()
            );
            self.fail(line, n, why);
        }
    }

    /// Fails every not-yet-failed request of `line` for `why`.
    pub fn reject(&mut self, line: usize, why: String) {
        let n = self.seen.get(&line).map_or(0, |s| s.requests - s.failed);
        self.fail(line, n, why);
    }

    /// The normalised first reply to `line`.
    pub fn first(&self, line: usize) -> Option<&str> {
        self.seen.get(&line)?.first.as_deref()
    }

    /// Every line with at least one request, ascending.
    pub fn lines(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.seen.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Requests accounted for.
    pub fn requests(&self) -> u64 {
        self.seen.values().map(|s| s.requests).sum()
    }

    /// Failed requests.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// The first few failure descriptions.
    pub fn problems(&self) -> &[String] {
        &self.problems
    }
}

/// One timed request's latency.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Reply arrival minus due time, seconds.
    pub latency_s: f64,
    /// Transport it went over.
    pub proto: Proto,
    /// Sent with `trace=1`.
    pub traced: bool,
}

/// What the timed phase measured.
#[derive(Debug, Default)]
pub struct LoadStats {
    /// Every timed reply's latency.
    pub samples: Vec<Sample>,
    /// How late each request was written (open loop: after its due time;
    /// closed loop: after the reply that freed its connection), seconds.
    pub lags_s: Vec<f64>,
    /// Timed replies received.
    pub replies: u64,
    /// Bytes of those replies (as rendered by the program).
    pub reply_bytes: u64,
    /// Phase start to last reply, seconds.
    pub wall_s: f64,
    /// When the last timed reply arrived.
    pub last_reply: Option<Instant>,
    /// Timed decks sent.
    pub decks: usize,
    /// Spans of the traced timed replies.
    pub spans: SpanTotals,
    /// The first timed deck as `(line, copies)`, for call timing.
    pub deck_lines: Vec<(usize, usize)>,
}

/// One open-loop request: its line and when it is due after the start.
#[derive(Debug, Clone, Copy)]
struct Scheduled {
    line: usize,
    traced: bool,
    at: Duration,
}

#[derive(Debug, Clone, Copy)]
struct Inflight {
    line: usize,
    traced: bool,
    /// Due time (open loop) or send time (closed loop).
    due: Instant,
}

struct Conn {
    proto: Proto,
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    wpos: usize,
    want_write: bool,
    inflight: VecDeque<Inflight>,
    /// When the last reply on this connection arrived (closed-loop lag).
    freed_at: Option<Instant>,
    dead: bool,
}

impl Conn {
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

    /// Drains the socket into `rbuf`.
    fn fill(&mut self) {
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => self.rbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
    }
}

/// How long a timed phase keeps starting decks.
#[derive(Debug, Clone, Copy)]
struct Budget {
    /// Stop starting decks once this much time has passed.
    seconds: f64,
    /// And after this many decks.
    max_decks: usize,
}

/// The client: two connections, one deck stream, one verifier.
pub struct Client {
    workload: &'static Workload,
    poller: Poller,
    conns: Vec<Conn>,
    /// Every job line sent, interned.
    pub lines: Lines,
    gen: DeckGen,
    /// The reply checker.
    pub verifier: Verifier,
    /// Lines answered at least once.
    done: Vec<bool>,
    trace: bool,
}

impl Client {
    /// Connects one line-protocol and one HTTP connection.
    pub fn connect(
        workload: &'static Workload,
        seed: u64,
        trace: bool,
        line_addr: &str,
        http_addr: &str,
    ) -> io::Result<Client> {
        let poller = Poller::new()?;
        let mut conns = Vec::with_capacity(crate::CONNECTIONS);
        for (key, (proto, addr)) in [(Proto::Line, line_addr), (Proto::Http, http_addr)]
            .into_iter()
            .enumerate()
        {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            if proto == Proto::Line {
                read_greeting(&stream)?;
            }
            stream.set_nonblocking(true)?;
            poller.add(&stream, Event::readable(key))?;
            conns.push(Conn {
                proto,
                stream,
                rbuf: Vec::new(),
                wbuf: Vec::new(),
                wpos: 0,
                want_write: false,
                inflight: VecDeque::new(),
                freed_at: None,
                dead: false,
            });
        }
        Ok(Client {
            workload,
            poller,
            conns,
            lines: Lines::default(),
            gen: DeckGen::new(workload, seed),
            verifier: Verifier::new(workload.store, workload.warm),
            done: Vec::new(),
            trace,
        })
    }

    fn is_done(&self, line: usize) -> bool {
        self.done.get(line).copied().unwrap_or(false)
    }

    fn wire_line(&self, line: usize, traced: bool) -> String {
        let text = self.lines.get(line);
        if traced && traceable(text) {
            format!("{text} trace=1")
        } else {
            text.to_string()
        }
    }

    /// Generates deck 0 without sending it: the server sent it as the
    /// warm-up pass of its set-up. This keeps the seeded deck stream
    /// aligned, and its lines count as answered.
    pub fn skip_setup_deck(&mut self) {
        for p in self.gen.next_deck(&mut self.lines) {
            self.mark_done(p.line);
        }
    }

    fn mark_done(&mut self, line: usize) {
        if self.done.len() <= line {
            self.done.resize(line + 1, false);
        }
        self.done[line] = true;
    }

    /// The timed phase: at least one deck, then whole decks until
    /// `seconds` have passed (or `max_decks` were sent).
    pub fn timed(&mut self, seconds: f64, max_decks: usize) -> Result<LoadStats, String> {
        let mut stats = LoadStats::default();
        let budget = Budget { seconds, max_decks };
        match self.workload.arrival {
            Arrival::Closed => self.closed(budget, &mut stats)?,
            Arrival::Open { per_s } => self.open(budget, per_s, &mut stats)?,
        }
        Ok(stats)
    }

    /// Whether timed deck number `ordinal` (0-based within the phase) is
    /// sent with `trace=1`: in a traced run every other deck is, so the
    /// untraced decks between them measure the tracing overhead.
    fn deck_traced(&self, ordinal: usize) -> bool {
        self.trace && ordinal % 2 == 1
    }

    fn note_deck(stats: &mut LoadStats, deck: &[Planned]) {
        if stats.decks == 0 {
            let mut counts: HashMap<usize, usize> = HashMap::new();
            for p in deck {
                *counts.entry(p.line).or_default() += 1;
            }
            let mut v: Vec<(usize, usize)> = counts.into_iter().collect();
            v.sort_unstable();
            stats.deck_lines = v;
        }
        stats.decks += 1;
    }

    fn closed(&mut self, budget: Budget, stats: &mut LoadStats) -> Result<(), String> {
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(budget.seconds) + GRACE;
        let mut queue: VecDeque<(Planned, bool)> = VecDeque::new();
        let mut decks = 0usize;
        let mut events = Vec::new();
        loop {
            // Issue on every idle connection.
            for k in 0..self.conns.len() {
                if self.conns[k].dead || !self.conns[k].inflight.is_empty() {
                    continue;
                }
                if queue.is_empty() {
                    let more = decks == 0
                        || (decks < budget.max_decks
                            && start.elapsed().as_secs_f64() < budget.seconds);
                    if !more {
                        continue;
                    }
                    let deck = self.gen.next_deck(&mut self.lines);
                    let traced = self.deck_traced(decks);
                    Self::note_deck(stats, &deck);
                    queue.extend(deck.into_iter().map(|p| (p, traced)));
                    decks += 1;
                }
                let Some(&(p, traced)) = queue.front() else {
                    continue;
                };
                // A repeat waits for its fresh key's reply, unless nothing
                // is in flight that could still bring it (the fresh job
                // failed): then it goes out and simply misses.
                let in_flight = self.conns.iter().any(|c| !c.inflight.is_empty());
                if p.needs_done && !self.is_done(p.line) && in_flight {
                    break;
                }
                queue.pop_front();
                let now = Instant::now();
                let freed = self.conns[k].freed_at.unwrap_or(now);
                stats.lags_s.push(now.duration_since(freed).as_secs_f64());
                let bytes = encode(self.conns[k].proto, &self.wire_line(p.line, traced));
                let conn = &mut self.conns[k];
                conn.inflight.push_back(Inflight {
                    line: p.line,
                    traced,
                    due: now,
                });
                conn.wbuf.extend_from_slice(&bytes);
                conn.flush();
                self.sync_interest(k);
            }
            let idle = self.conns.iter().all(|c| c.inflight.is_empty() || c.dead);
            if idle {
                let live = self.conns.iter().any(|c| !c.dead);
                let more =
                    decks < budget.max_decks && start.elapsed().as_secs_f64() < budget.seconds;
                if queue.is_empty() && !more || !live {
                    break;
                }
            }
            if Instant::now() > deadline {
                break;
            }
            self.pump(&mut events, Duration::from_millis(100), stats)?;
        }
        self.abandon_inflight();
        stats.wall_s = stats
            .last_reply
            .map_or(0.0, |t| t.saturating_duration_since(start).as_secs_f64());
        Ok(())
    }

    fn open(&mut self, budget: Budget, per_s: f64, stats: &mut LoadStats) -> Result<(), String> {
        // The whole schedule up front: whole decks until their arrivals
        // cover `seconds`.
        let mut jobs: Vec<Scheduled> = Vec::new();
        let mut t = 0.0;
        let mut decks = 0usize;
        while decks == 0 || (decks < budget.max_decks && t < budget.seconds) {
            let deck = self.gen.next_deck(&mut self.lines);
            Self::note_deck(stats, &deck);
            let traced = self.deck_traced(decks);
            let gaps = self.gen.gaps(deck.len(), per_s);
            for (p, gap) in deck.iter().zip(gaps) {
                t += gap;
                jobs.push(Scheduled {
                    line: p.line,
                    traced,
                    at: Duration::from_secs_f64(t),
                });
            }
            decks += 1;
        }
        self.run_open(&jobs, stats)
    }

    /// Writes each scheduled request at its due time from a sender thread,
    /// alternating the connections, while this thread collects replies.
    fn run_open(&mut self, jobs: &[Scheduled], stats: &mut LoadStats) -> Result<(), String> {
        let lead = Duration::from_millis(20);
        let start = Instant::now() + lead;
        let mut writes: Vec<(usize, Duration, Vec<u8>)> = Vec::with_capacity(jobs.len());
        for (i, j) in jobs.iter().enumerate() {
            let k = i % self.conns.len();
            writes.push((
                k,
                j.at,
                encode(self.conns[k].proto, &self.wire_line(j.line, j.traced)),
            ));
            self.conns[k].inflight.push_back(Inflight {
                line: j.line,
                traced: j.traced,
                due: start + j.at,
            });
        }
        let streams: Vec<TcpStream> = self
            .conns
            .iter()
            .map(|c| c.stream.try_clone())
            .collect::<io::Result<_>>()
            .map_err(|e| format!("clone stream: {e}"))?;
        let last_due = jobs.last().map_or(Duration::ZERO, |j| j.at);
        let deadline = start + last_due + GRACE;
        let sender = std::thread::Builder::new()
            .name("cqfd-bench-sender".into())
            .spawn(move || send_schedule(streams, writes, start))
            .map_err(|e| format!("spawn sender: {e}"))?;
        let mut events = Vec::new();
        let mut result = Ok(());
        while self.conns.iter().any(|c| !c.inflight.is_empty() && !c.dead) {
            if Instant::now() > deadline {
                break;
            }
            if let Err(e) = self.pump(&mut events, Duration::from_millis(100), stats) {
                result = Err(e);
                break;
            }
        }
        stats.lags_s = sender
            .join()
            .map_err(|_| "sender thread panicked".to_string())?;
        self.abandon_inflight();
        stats.wall_s = stats
            .last_reply
            .map_or(0.0, |t| t.saturating_duration_since(start).as_secs_f64());
        result
    }

    /// Counts every request still in flight as missing.
    fn abandon_inflight(&mut self) {
        for k in 0..self.conns.len() {
            while let Some(inf) = self.conns[k].inflight.pop_front() {
                self.verifier.missing(inf.line);
            }
        }
    }

    fn sync_interest(&mut self, k: usize) {
        let c = &mut self.conns[k];
        let want = !c.wbuf.is_empty();
        if want != c.want_write {
            c.want_write = want;
            let ev = if want {
                Event::all(k)
            } else {
                Event::readable(k)
            };
            let _ = self.poller.modify(&c.stream, ev);
        }
    }

    /// Waits up to `timeout` for socket events and handles every reply
    /// that completed.
    fn pump(
        &mut self,
        events: &mut Vec<Event>,
        timeout: Duration,
        stats: &mut LoadStats,
    ) -> Result<(), String> {
        events.clear();
        self.poller
            .wait(events, Some(timeout))
            .map_err(|e| format!("client poll: {e}"))?;
        for ev in events.iter() {
            let k = ev.key;
            if k >= self.conns.len() {
                continue;
            }
            if ev.writable {
                self.conns[k].flush();
            }
            if ev.readable {
                self.conns[k].fill();
            }
            // Every reply in this read arrived now, however long the ones
            // before it take to check.
            let arrived = Instant::now();
            loop {
                let conn = &mut self.conns[k];
                if conn.inflight.is_empty() {
                    break;
                }
                let Some(reply) = take_reply(conn.proto, &mut conn.rbuf) else {
                    break;
                };
                let inf = conn.inflight.pop_front().expect("inflight checked");
                conn.freed_at = Some(arrived);
                let proto = conn.proto;
                self.on_reply(inf, proto, &reply, arrived, stats);
            }
            if self.conns[k].dead {
                let _ = self.poller.delete(&self.conns[k].stream);
            } else {
                self.sync_interest(k);
            }
        }
        Ok(())
    }

    fn on_reply(
        &mut self,
        inf: Inflight,
        proto: Proto,
        reply: &Reply,
        now: Instant,
        stats: &mut LoadStats,
    ) {
        self.verifier.record(inf.line, reply);
        if let Reply::Answer(text) = reply {
            self.mark_done(inf.line);
            stats.reply_bytes += text.len() as u64;
            if inf.traced {
                stats.spans.add_job(&normalize::trace_lines(text));
            }
        }
        stats.samples.push(Sample {
            latency_s: now.saturating_duration_since(inf.due).as_secs_f64(),
            proto,
            traced: inf.traced,
        });
        stats.replies += 1;
        stats.last_reply = Some(now);
    }

    /// `GET /metrics` over the HTTP connection (which must be idle).
    pub fn scrape(&mut self) -> io::Result<Scrape> {
        let k = self
            .conns
            .iter()
            .position(|c| c.proto == Proto::Http)
            .expect("an HTTP connection");
        let conn = &mut self.conns[k];
        if conn.dead || !conn.inflight.is_empty() {
            return Err(io::Error::other("HTTP connection not idle"));
        }
        let req = ghttp::Request {
            method: "GET".into(),
            target: "/metrics".into(),
            headers: Vec::new(),
            body: Vec::new(),
        };
        conn.stream.set_nonblocking(false)?;
        conn.stream
            .set_read_timeout(Some(Duration::from_secs(30)))?;
        let result = (|| {
            conn.stream.write_all(&ghttp::render_request(&req, false))?;
            let mut chunk = [0u8; 64 * 1024];
            loop {
                if let Some(resp) = take_http_response(&mut conn.rbuf) {
                    let resp = resp.map_err(io::Error::other)?;
                    return Ok(Scrape::parse(&String::from_utf8_lossy(&resp.body)));
                }
                let n = conn.stream.read(&mut chunk)?;
                if n == 0 {
                    return Err(io::Error::other("connection closed during scrape"));
                }
                conn.rbuf.extend_from_slice(&chunk[..n]);
            }
        })();
        conn.stream.set_nonblocking(true)?;
        result
    }
}

/// Reads the line protocol's greeting (`cqfd-service v1`) byte by byte,
/// so nothing after it is consumed.
pub(crate) fn read_greeting(mut stream: &TcpStream) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let mut line = Vec::new();
    let mut b = [0u8; 1];
    while line.last() != Some(&b'\n') {
        if stream.read(&mut b)? == 0 {
            return Err(io::Error::other("connection closed before the greeting"));
        }
        line.push(b[0]);
    }
    stream.set_read_timeout(None)?;
    if line.starts_with(b"cqfd-service ") {
        Ok(())
    } else {
        Err(io::Error::other(format!(
            "unexpected greeting `{}`",
            String::from_utf8_lossy(&line).trim_end()
        )))
    }
}

/// The open loop's sender: writes each request at its due time and
/// returns how late each write was, in seconds.
fn send_schedule(
    mut streams: Vec<TcpStream>,
    writes: Vec<(usize, Duration, Vec<u8>)>,
    start: Instant,
) -> Vec<f64> {
    let mut lags = Vec::with_capacity(writes.len());
    for (k, due, bytes) in writes {
        let at = start + due;
        wait_until(at);
        lags.push(Instant::now().saturating_duration_since(at).as_secs_f64());
        if write_all_nonblocking(&mut streams[k], &bytes).is_err() {
            // The receiver sees the dead connection and counts the rest
            // of its requests as missing.
            break;
        }
    }
    lags
}

/// Sleeps until shortly before `at`, then yields until it.
/// `thread::sleep` overshoots by the kernel's timer slack (about 50 µs
/// on Linux), so the last stretch is spent yielding instead.
fn wait_until(at: Instant) {
    const SLACK: Duration = Duration::from_micros(100);
    loop {
        let now = Instant::now();
        if now >= at {
            return;
        }
        let left = at - now;
        if left > SLACK {
            std::thread::sleep(left - SLACK);
        } else {
            std::thread::yield_now();
        }
    }
}

/// `write_all` for a socket another thread set nonblocking.
fn write_all_nonblocking(stream: &mut TcpStream, mut bytes: &[u8]) -> io::Result<()> {
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return Err(io::Error::other("connection closed")),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::yield_now(),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const ANSWER: &str = "job=3 kind=determine verdict=determined stage=1 stages=1 triggers=5 \
                          homs=22 peak_atoms=16 peak_nodes=12 elapsed_ms=0.1";

    #[test]
    fn line_replies_are_framed_by_their_payload_markers() {
        let mut buf = format!(
            "{ANSWER} cert_lines=2\ncqfd-cert v1 chase-trace\nend\nbusy retry-after-ms=50\n\
             error: nope\n{ANSWER}\n{ANSWER} cert_lines=3\nhalf"
        )
        .into_bytes();
        match take_reply(Proto::Line, &mut buf) {
            Some(Reply::Answer(t)) => assert_eq!(t.lines().count(), 3),
            other => panic!("{other:?}"),
        }
        assert_eq!(take_reply(Proto::Line, &mut buf), Some(Reply::Shed));
        assert!(matches!(
            take_reply(Proto::Line, &mut buf),
            Some(Reply::Error(_))
        ));
        assert_eq!(
            take_reply(Proto::Line, &mut buf),
            Some(Reply::Answer(ANSWER.into()))
        );
        // Announces three certificate lines but only one has arrived.
        assert_eq!(take_reply(Proto::Line, &mut buf), None);
    }

    #[test]
    fn http_replies_carry_the_line_rendering() {
        let body = format!("{{\"id\":3,\"result\":\"{}\"}}", gjson::escape(ANSWER));
        let mut buf = ghttp::response(200, "OK", "application/json", &[], body.as_bytes());
        buf.extend(ghttp::response(
            429,
            "Too Many Requests",
            "application/json",
            &[],
            b"{}",
        ));
        assert_eq!(
            take_reply(Proto::Http, &mut buf),
            Some(Reply::Answer(ANSWER.into()))
        );
        assert_eq!(take_reply(Proto::Http, &mut buf), Some(Reply::Shed));
        assert_eq!(take_reply(Proto::Http, &mut buf), None);
    }

    #[test]
    fn verifier_fails_flips_and_missing_but_not_timing() {
        let mut v = Verifier::new(false, false);
        assert!(v.record(0, &Reply::Answer(ANSWER.into())));
        let retimed = ANSWER
            .replace("job=3", "job=44")
            .replace("elapsed_ms=0.1", "elapsed_ms=9.9");
        assert!(v.record(0, &Reply::Answer(retimed)));
        let flipped = ANSWER.replace("verdict=determined", "verdict=not-determined");
        assert!(!v.record(0, &Reply::Answer(flipped)));
        v.missing(0);
        assert!(!v.record(1, &Reply::Error("error: boom".into())));
        assert!(!v.record(1, &Reply::Shed));
        assert_eq!(v.requests(), 6);
        assert_eq!(v.failed(), 4);
        // The reference agrees with the first reply: nothing more fails.
        v.expect(0, &normalize::normalize(ANSWER, false), "reference");
        assert_eq!(v.failed(), 4);
    }

    #[test]
    fn verifier_fails_a_whole_line_whose_first_reply_is_wrong() {
        let mut v = Verifier::new(false, false);
        let flipped = ANSWER.replace("verdict=determined", "verdict=not-determined");
        for _ in 0..3 {
            assert!(v.record(0, &Reply::Answer(flipped.clone())));
        }
        v.expect(0, &normalize::normalize(ANSWER, false), "reference");
        assert_eq!(v.failed(), 3);
        v.reject(0, "again".into());
        assert_eq!(v.failed(), 3);
    }

    /// A stand-in gateway answering every job at once, except that the
    /// line side stalls for `stall` before answering its `stall_at`-th
    /// request (and so before every request pipelined behind it).
    fn fake_gateway(
        stall_at: usize,
        stall: Duration,
    ) -> (String, String, Vec<std::thread::JoinHandle<()>>) {
        use std::io::{BufRead, BufReader};
        use std::net::TcpListener;
        let line = TcpListener::bind("127.0.0.1:0").unwrap();
        let http = TcpListener::bind("127.0.0.1:0").unwrap();
        let addrs = (
            line.local_addr().unwrap().to_string(),
            http.local_addr().unwrap().to_string(),
        );
        let line_side = std::thread::spawn(move || {
            let (mut s, _) = line.accept().unwrap();
            s.write_all(b"cqfd-service v1\n").unwrap();
            let mut r = BufReader::new(s.try_clone().unwrap());
            let mut req = String::new();
            let mut n = 0;
            while r.read_line(&mut req).unwrap_or(0) > 0 {
                if n == stall_at {
                    std::thread::sleep(stall);
                }
                if s.write_all(format!("{ANSWER}\n").as_bytes()).is_err() {
                    return;
                }
                n += 1;
                req.clear();
            }
        });
        let http_side = std::thread::spawn(move || {
            let (mut s, _) = http.accept().unwrap();
            let body = format!("{{\"result\":\"{}\"}}", gjson::escape(ANSWER));
            let resp = ghttp::response(200, "OK", "application/json", &[], body.as_bytes());
            let mut buf = Vec::new();
            let mut chunk = [0u8; 4096];
            loop {
                match ghttp::parse_request(&buf, &ghttp::Limits::default()) {
                    ghttp::Parse::Complete { consumed, .. } => {
                        buf.drain(..consumed);
                        if s.write_all(&resp).is_err() {
                            return;
                        }
                    }
                    ghttp::Parse::Partial => match s.read(&mut chunk) {
                        Ok(0) | Err(_) => return,
                        Ok(n) => buf.extend_from_slice(&chunk[..n]),
                    },
                    ghttp::Parse::Bad { .. } => return,
                }
            }
        });
        (addrs.0, addrs.1, vec![line_side, http_side])
    }

    #[test]
    fn open_loop_charges_a_stall_to_the_requests_queued_behind_it() {
        let stall = Duration::from_millis(50);
        // Requests alternate line/HTTP every 2 ms; the line side's third
        // request (job 4, due at 8 ms) stalls for 50 ms.
        let (line_addr, http_addr, servers) = fake_gateway(2, stall);
        let w = crate::workload::workload("interactive").unwrap();
        let mut client = Client::connect(w, 1, false, &line_addr, &http_addr).unwrap();
        let line = client.lines.intern("creep worm=short");
        let jobs: Vec<Scheduled> = (0..20)
            .map(|i| Scheduled {
                line,
                traced: false,
                at: Duration::from_millis(2 * i),
            })
            .collect();
        let mut stats = LoadStats::default();
        client.run_open(&jobs, &mut stats).unwrap();
        assert_eq!(
            client.verifier.failed(),
            0,
            "{:?}",
            client.verifier.problems()
        );
        let ms = |p: Proto| -> Vec<f64> {
            stats
                .samples
                .iter()
                .filter(|s| s.proto == p)
                .map(|s| s.latency_s * 1e3)
                .collect()
        };
        let (line_ms, http_ms) = (ms(Proto::Line), ms(Proto::Http));
        assert_eq!((line_ms.len(), http_ms.len()), (10, 10));
        // The stalled request and the ones due during the stall all wait
        // for it: job 6 was due 4 ms after the stalled job 4, so it waits
        // about 46 ms although it was written on time.
        assert!(line_ms[2] >= 49.0, "{line_ms:?}");
        assert!(line_ms[3] >= 44.0, "{line_ms:?}");
        assert!(line_ms[4] >= 40.0, "{line_ms:?}");
        // The other connection never stalled. (Its median, not its
        // maximum: a loaded host can delay any single reply.)
        assert!(crate::stats::median(&http_ms) < 25.0, "{http_ms:?}");
        drop(client);
        for s in servers {
            s.join().unwrap();
        }
    }

    #[test]
    fn warm_store_replies_must_be_hits() {
        let mut v = Verifier::new(true, true);
        assert!(!v.record(0, &Reply::Answer(ANSWER.into())));
        assert!(v.record(0, &Reply::Answer(format!("{ANSWER} cached=1"))));
        assert_eq!(v.failed(), 1);
    }
}
