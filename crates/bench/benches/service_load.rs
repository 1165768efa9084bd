//! E-SERVE: the gateway under load — p50/p95/p99 job latency, jobs/sec,
//! and shed counts for the epoll reactor behind `cqfd serve` (line
//! protocol and HTTP/JSON) at 100 / 1 000 / 10 000 concurrent
//! connections.
//!
//! Hand-rolled harness in the `store_cache` mold; emits
//! `BENCH_service.json` at the repo root (the file EXPERIMENTS.md
//! §E-SERVE quotes). The server runs in this process; the clients run in
//! a re-exec'd child (`--drive`) so the two sides never share an fd
//! budget and the 10 000-connection point fits the 20 000-fd rlimit.
//!
//! Before any timing, the harness pushes one certified job through both
//! transports and asserts the answers are byte-identical (modulo job id
//! and wall time) — a throughput number must never be bought with a
//! transport-dependent answer.
//!
//! Flags (after `--` under `cargo bench`):
//!   --conns <n>                 run only the <n>-connection points
//!   --out <path>                write the JSON somewhere else
//!   --require-zero-failures    exit nonzero if any row fails a job
//!   --drive <proto> <addr> <conns> <jobs>   (internal: client child)

use cqfd_gateway::http as ghttp;
use cqfd_gateway::{json, Gateway, GatewayConfig};
use polling::{Event, Poller};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const JOB_LINE: &str = "creep worm=short";
const DRIVE_DEADLINE: Duration = Duration::from_secs(180);
const MAX_RETRY: Duration = Duration::from_secs(2);

fn main() {
    let args: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| a != "--bench") // cargo bench appends this
        .collect();
    if let Some(i) = args.iter().position(|a| a == "--drive") {
        let proto = args[i + 1].clone();
        let addr = args[i + 2].clone();
        let conns: usize = args[i + 3].parse().expect("bad --drive conns");
        let jobs: usize = args[i + 4].parse().expect("bad --drive jobs");
        drive(&proto, &addr, conns, jobs);
        return;
    }
    orchestrate(&args);
}

// ------------------------------------------------------------ orchestrator

struct Row {
    proto: &'static str,
    conns: usize,
    jobs_per_conn: usize,
    ok: u64,
    failed: u64,
    sheds: u64,
    wall_ms: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
}

impl Row {
    fn jobs_per_sec(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            0.0
        } else {
            self.ok as f64 / (self.wall_ms / 1e3)
        }
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// `(connections, jobs per connection)` — more connections, fewer jobs
/// each, so every point finishes in reasonable wall time on one core.
const POINTS: [(usize, usize); 3] = [(100, 20), (1000, 5), (10_000, 1)];

fn orchestrate(args: &[String]) {
    let only_conns: Option<usize> = flag(args, "--conns").map(|v| v.parse().expect("bad --conns"));
    let keep = |c: usize| only_conns.is_none_or(|n| n == c);
    let mut rows: Vec<Row> = Vec::new();

    // The gateway: one reactor, both transports, default admission.
    let gw = Gateway::bind(
        Some("127.0.0.1:0"),
        Some("127.0.0.1:0"),
        GatewayConfig::default(),
    )
    .expect("bind gateway")
    .spawn()
    .expect("spawn gateway");
    let line_addr = gw.line_addr().unwrap().to_string();
    let http_addr = gw.http_addr().unwrap().to_string();

    let identity = transport_identity(&line_addr, &http_addr);
    assert!(
        identity,
        "transport identity violated: line and HTTP answers differ"
    );

    for (conns, jobs) in POINTS {
        if !keep(conns) {
            continue;
        }
        rows.push(run_drive("line", &line_addr, conns, jobs));
        rows.push(run_drive("http", &http_addr, conns, jobs));
    }
    gw.shutdown();

    let default_out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_service.json");
    let out_path = flag(args, "--out").unwrap_or(default_out);
    write_json(out_path, identity, &rows);

    if args.iter().any(|a| a == "--require-zero-failures") {
        let bad: Vec<&Row> = rows.iter().filter(|r| r.failed > 0).collect();
        if !bad.is_empty() {
            for r in bad {
                eprintln!(
                    "FAIL {} at {} conns: {} failed jobs",
                    r.proto, r.conns, r.failed
                );
            }
            std::process::exit(1);
        }
    }
}

/// Re-execs this binary as a client child driving `conns` connections,
/// and parses its one-line summary.
fn run_drive(proto: &'static str, addr: &str, conns: usize, jobs: usize) -> Row {
    let exe = std::env::current_exe().expect("current_exe");
    let out = std::process::Command::new(exe)
        .args([
            "--drive",
            proto,
            addr,
            &conns.to_string(),
            &jobs.to_string(),
        ])
        .output()
        .expect("spawn drive child");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let summary = stdout
        .lines()
        .find(|l| l.starts_with("DRIVE "))
        .unwrap_or_else(|| {
            panic!(
                "drive child emitted no summary (status {:?}):\n{}\n{}",
                out.status,
                stdout,
                String::from_utf8_lossy(&out.stderr)
            )
        });
    let field = |key: &str| -> f64 {
        summary
            .split_whitespace()
            .find_map(|t| t.strip_prefix(key))
            .unwrap_or_else(|| panic!("missing {key} in `{summary}`"))
            .parse()
            .expect("numeric drive field")
    };
    let row = Row {
        proto,
        conns,
        jobs_per_conn: jobs,
        ok: field("ok=") as u64,
        failed: field("failed=") as u64,
        sheds: field("sheds=") as u64,
        wall_ms: field("wall_ms="),
        p50_ms: field("p50_ms="),
        p95_ms: field("p95_ms="),
        p99_ms: field("p99_ms="),
    };
    println!(
        "[E-SERVE] {} conns={} jobs={} ok={} failed={} sheds={} \
         p50={:.2}ms p95={:.2}ms p99={:.2}ms {:.0} jobs/s",
        row.proto,
        row.conns,
        row.ok + row.failed,
        row.ok,
        row.failed,
        row.sheds,
        row.p50_ms,
        row.p95_ms,
        row.p99_ms,
        row.jobs_per_sec()
    );
    row
}

/// One certified job through each transport; answers must be
/// byte-identical after masking job id and wall time.
fn transport_identity(line_addr: &str, http_addr: &str) -> bool {
    let normalize = |text: &str| -> String {
        text.lines()
            .map(|line| {
                line.split_whitespace()
                    .map(|tok| match tok.split_once('=') {
                        Some(("job" | "elapsed_ms", _)) => {
                            format!("{}=X", tok.split_once('=').unwrap().0)
                        }
                        _ => tok.to_string(),
                    })
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .collect::<Vec<_>>()
            .join("\n")
    };

    // Line side.
    let stream = TcpStream::connect(line_addr).expect("connect line");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut greeting = String::new();
    reader.read_line(&mut greeting).unwrap();
    writeln!(writer, "{JOB_LINE} cert=1").unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    let cert_lines: usize = reply
        .split_whitespace()
        .find_map(|t| t.strip_prefix("cert_lines="))
        .map(|v| v.parse().unwrap())
        .unwrap_or(0);
    for _ in 0..cert_lines {
        reader.read_line(&mut reply).unwrap();
    }
    let _ = writeln!(writer, "quit");

    // HTTP side.
    let mut stream = TcpStream::connect(http_addr).expect("connect http");
    let req = ghttp::Request {
        method: "POST".into(),
        target: "/v1/jobs".into(),
        headers: Vec::new(),
        body: format!("{{\"job\":\"{JOB_LINE} cert=1\"}}").into_bytes(),
    };
    stream
        .write_all(&ghttp::render_request(&req, false))
        .unwrap();
    let mut buf = Vec::new();
    let resp = loop {
        match ghttp::parse_response(&buf, &ghttp::Limits::default()) {
            ghttp::Parse::Complete { value, .. } => break value,
            ghttp::Parse::Partial => {
                let mut chunk = [0u8; 8192];
                let n = stream.read(&mut chunk).expect("read http response");
                assert!(n > 0, "http connection closed mid-response");
                buf.extend_from_slice(&chunk[..n]);
            }
            ghttp::Parse::Bad { status, reason } => panic!("bad response ({status}): {reason}"),
        }
    };
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    let pairs = json::parse_object(&resp.body).expect("json body");
    let http_answer = json::get(&pairs, "result")
        .and_then(|v| v.as_str())
        .expect("result field")
        .to_string();

    normalize(reply.trim_end()) == normalize(&http_answer)
}

// ------------------------------------------------------------ client child

#[derive(PartialEq)]
enum CState {
    /// Line protocol: waiting for the server greeting.
    Greeting,
    /// A job is in flight; latency clock running.
    InFlight,
    /// Shed; waiting out the retry timer.
    Backoff,
    /// All jobs done (or the connection failed terminally).
    Done,
}

struct CConn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    wpos: usize,
    jobs_left: usize,
    sent_at: Instant,
    state: CState,
    want_write: bool,
}

struct Tally {
    ok: u64,
    failed: u64,
    sheds: u64,
    lat_ms: Vec<f64>,
}

/// Drives `conns` concurrent connections, `jobs` sequential jobs each,
/// over one nonblocking epoll loop, and prints a one-line summary.
fn drive(proto: &str, addr: &str, conns: usize, jobs: usize) {
    let http = match proto {
        "http" => true,
        "line" => false,
        other => panic!("unknown --drive proto `{other}`"),
    };
    let http_req = ghttp::render_request(
        &ghttp::Request {
            method: "POST".into(),
            target: "/v1/jobs".into(),
            headers: Vec::new(),
            body: format!("{{\"job\":\"{JOB_LINE}\"}}").into_bytes(),
        },
        false,
    );

    let poller = Poller::new().expect("client poller");
    let start = Instant::now();
    let mut pool: Vec<CConn> = Vec::with_capacity(conns);
    for key in 0..conns {
        let stream = TcpStream::connect(addr).expect("client connect");
        stream.set_nodelay(true).ok();
        stream.set_nonblocking(true).expect("nonblocking client");
        poller.add(&stream, Event::readable(key)).expect("add");
        pool.push(CConn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            jobs_left: jobs,
            sent_at: start,
            state: CState::Greeting,
            want_write: false,
        });
    }
    if http {
        // No greeting to wait for — but only start the jobs (and their
        // latency clocks) once every connection is up and the event loop
        // can observe responses, mirroring the line protocol's
        // greeting-paced first send.
        for (key, c) in pool.iter_mut().enumerate() {
            send_job(c, http, &http_req);
            sync_interest(&poller, c, key);
        }
    }

    let mut tally = Tally {
        ok: 0,
        failed: 0,
        sheds: 0,
        lat_ms: Vec::with_capacity(conns * jobs),
    };
    let mut timers: BinaryHeap<Reverse<(Instant, usize)>> = BinaryHeap::new();
    let mut done = 0usize;
    let mut events: Vec<Event> = Vec::new();
    while done < conns && start.elapsed() < DRIVE_DEADLINE {
        let now = Instant::now();
        let timeout = timers
            .peek()
            .map(|Reverse((t, _))| t.saturating_duration_since(now))
            .unwrap_or(Duration::from_millis(250))
            .min(Duration::from_millis(250));
        events.clear();
        poller
            .wait(&mut events, Some(timeout))
            .expect("client wait");

        let now = Instant::now();
        while let Some(&Reverse((t, key))) = timers.peek() {
            if t > now {
                break;
            }
            timers.pop();
            let c = &mut pool[key];
            if c.state == CState::Backoff {
                send_job(c, http, &http_req);
                sync_interest(&poller, c, key);
            }
        }

        for &ev in &events {
            let c = &mut pool[ev.key];
            if c.state == CState::Done {
                continue;
            }
            if ev.readable && !read_into(c) {
                finish(&poller, c, &mut tally, &mut done);
                continue;
            }
            let alive = if http {
                process_http(c, &mut tally, &mut timers, ev.key, &http_req)
            } else {
                process_line(c, &mut tally, &mut timers, ev.key)
            };
            if !alive || !flush(c) {
                finish(&poller, c, &mut tally, &mut done);
                continue;
            }
            if c.jobs_left == 0 && c.state != CState::Done {
                c.state = CState::Done;
                done += 1;
                let _ = poller.delete(&c.stream);
                continue;
            }
            sync_interest(&poller, c, ev.key);
        }
    }

    // Anything still unfinished at the deadline counts as failed.
    for c in &pool {
        if c.state != CState::Done {
            tally.failed += c.jobs_left as u64;
        }
    }

    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    tally.lat_ms.sort_by(|a, b| a.total_cmp(b));
    let pct = |p: f64| -> f64 {
        if tally.lat_ms.is_empty() {
            return 0.0;
        }
        let idx = ((tally.lat_ms.len() as f64 * p).ceil() as usize).max(1) - 1;
        tally.lat_ms[idx.min(tally.lat_ms.len() - 1)]
    };
    println!(
        "DRIVE ok={} failed={} sheds={} wall_ms={:.1} p50_ms={:.3} p95_ms={:.3} p99_ms={:.3}",
        tally.ok,
        tally.failed,
        tally.sheds,
        wall_ms,
        pct(0.50),
        pct(0.95),
        pct(0.99)
    );
}

/// Queues the next job request and flushes what the socket will take.
fn send_job(c: &mut CConn, http: bool, http_req: &[u8]) {
    if http {
        c.wbuf.extend_from_slice(http_req);
    } else {
        c.wbuf.extend_from_slice(JOB_LINE.as_bytes());
        c.wbuf.push(b'\n');
    }
    c.sent_at = Instant::now();
    c.state = CState::InFlight;
    let _ = flush(c);
}

/// Drains the socket into `rbuf`. Returns false on EOF or a hard error.
fn read_into(c: &mut CConn) -> bool {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match c.stream.read(&mut chunk) {
            Ok(0) => return false,
            Ok(n) => c.rbuf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
}

/// Writes what the socket will take. Returns false on a hard error.
fn flush(c: &mut CConn) -> bool {
    while c.wpos < c.wbuf.len() {
        match c.stream.write(&c.wbuf[c.wpos..]) {
            Ok(0) => return false,
            Ok(n) => c.wpos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
    if c.wpos == c.wbuf.len() {
        c.wbuf.clear();
        c.wpos = 0;
    }
    true
}

/// Re-registers read/write interest when the write backlog changed.
fn sync_interest(poller: &Poller, c: &mut CConn, key: usize) {
    let want = !c.wbuf.is_empty();
    if want != c.want_write {
        c.want_write = want;
        let ev = if want {
            Event::all(key)
        } else {
            Event::readable(key)
        };
        let _ = poller.modify(&c.stream, ev);
    }
}

/// Marks a connection terminally failed (its remaining jobs with it).
fn finish(poller: &Poller, c: &mut CConn, tally: &mut Tally, done: &mut usize) {
    if c.state != CState::Done {
        tally.failed += c.jobs_left as u64;
        c.jobs_left = 0;
        c.state = CState::Done;
        *done += 1;
        let _ = poller.delete(&c.stream);
    }
}

/// Consumes complete line-protocol replies. Returns false when the
/// connection should be abandoned.
fn process_line(
    c: &mut CConn,
    tally: &mut Tally,
    timers: &mut BinaryHeap<Reverse<(Instant, usize)>>,
    key: usize,
) -> bool {
    while let Some(pos) = c.rbuf.iter().position(|&b| b == b'\n') {
        let line = String::from_utf8_lossy(&c.rbuf[..pos]).into_owned();
        c.rbuf.drain(..=pos);
        match c.state {
            CState::Greeting => {
                if !line.starts_with("cqfd-service ") {
                    return false;
                }
                c.wbuf.extend_from_slice(JOB_LINE.as_bytes());
                c.wbuf.push(b'\n');
                c.sent_at = Instant::now();
                c.state = CState::InFlight;
            }
            CState::InFlight => {
                if let Some(ms) = line.trim().strip_prefix("busy retry-after-ms=") {
                    tally.sheds += 1;
                    let wait = Duration::from_millis(ms.parse().unwrap_or(100)).min(MAX_RETRY);
                    c.state = CState::Backoff;
                    timers.push(Reverse((Instant::now() + wait, key)));
                } else if line.starts_with("job=") {
                    tally.ok += 1;
                    tally.lat_ms.push(c.sent_at.elapsed().as_secs_f64() * 1e3);
                    c.jobs_left -= 1;
                    if c.jobs_left > 0 {
                        c.wbuf.extend_from_slice(JOB_LINE.as_bytes());
                        c.wbuf.push(b'\n');
                        c.sent_at = Instant::now();
                    }
                } else {
                    // `error:` or anything unexpected: the job is lost.
                    tally.failed += 1;
                    c.jobs_left -= 1;
                    if c.jobs_left > 0 {
                        c.wbuf.extend_from_slice(JOB_LINE.as_bytes());
                        c.wbuf.push(b'\n');
                        c.sent_at = Instant::now();
                    }
                }
            }
            CState::Backoff | CState::Done => {}
        }
        if c.jobs_left == 0 {
            return true;
        }
    }
    true
}

/// Consumes complete HTTP responses. Returns false when the connection
/// should be abandoned.
fn process_http(
    c: &mut CConn,
    tally: &mut Tally,
    timers: &mut BinaryHeap<Reverse<(Instant, usize)>>,
    key: usize,
    http_req: &[u8],
) -> bool {
    loop {
        if c.state != CState::InFlight {
            return true;
        }
        match ghttp::parse_response(&c.rbuf, &ghttp::Limits::default()) {
            ghttp::Parse::Complete { value, consumed } => {
                c.rbuf.drain(..consumed);
                match value.status {
                    200 => {
                        tally.ok += 1;
                        tally.lat_ms.push(c.sent_at.elapsed().as_secs_f64() * 1e3);
                        c.jobs_left -= 1;
                        if c.jobs_left > 0 {
                            c.wbuf.extend_from_slice(http_req);
                            c.sent_at = Instant::now();
                        } else {
                            return true;
                        }
                    }
                    429 => {
                        tally.sheds += 1;
                        let secs: u64 = value
                            .header("retry-after")
                            .and_then(|v| v.parse().ok())
                            .unwrap_or(0);
                        let wait = if secs > 0 {
                            Duration::from_secs(secs).min(MAX_RETRY)
                        } else {
                            Duration::from_millis(100)
                        };
                        c.state = CState::Backoff;
                        timers.push(Reverse((Instant::now() + wait, key)));
                        return true;
                    }
                    _ => {
                        tally.failed += 1;
                        c.jobs_left -= 1;
                        if c.jobs_left > 0 {
                            c.wbuf.extend_from_slice(http_req);
                            c.sent_at = Instant::now();
                        } else {
                            return true;
                        }
                    }
                }
            }
            ghttp::Parse::Partial => return true,
            ghttp::Parse::Bad { .. } => return false,
        }
    }
}

// ------------------------------------------------------------------ output

fn write_json(path: &str, identity: bool, rows: &[Row]) {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"host_cores\": {},\n",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    out.push_str(&format!(
        "  \"transport_identity\": {},\n",
        if identity { "\"ok\"" } else { "\"VIOLATED\"" }
    ));
    out.push_str(
        "  \"note\": \"gateway in the parent process, clients in a re-exec'd child; \
         latency is per job (request write to result read); sheds are retried until \
         the job completes or the 180 s drive deadline expires\",\n",
    );
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"proto\": \"{}\", \"conns\": {}, \
             \"jobs_per_conn\": {}, \"jobs_ok\": {}, \"jobs_failed\": {}, \
             \"sheds\": {}, \"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \"p99_ms\": {:.3}, \
             \"jobs_per_sec\": {:.1}, \"wall_ms\": {:.1}}}{}\n",
            r.proto,
            r.conns,
            r.jobs_per_conn,
            r.ok,
            r.failed,
            r.sheds,
            r.p50_ms,
            r.p95_ms,
            r.p99_ms,
            r.jobs_per_sec(),
            r.wall_ms,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    let mut f = std::fs::File::create(path).expect("create BENCH_service.json");
    f.write_all(out.as_bytes())
        .expect("write BENCH_service.json");
    println!("[E-SERVE] wrote {path}");
}
