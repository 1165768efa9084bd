//! One run of one workload.
//!
//! The process that starts a run is the **server**: it sets up a fresh
//! gateway (and store) on loopback, measures that set-up, and re-executes
//! its own binary as the **client** child (`--client`), which holds the
//! only two connections. Server CPU time and peak memory are read from
//! this process's `/proc` entries, so the client's own work is never
//! counted against the program.
//!
//! The child tells the server when timing starts and ends with a
//! `MARK start` / `MARK end` line on its stdout, waiting for a `go` on
//! its stdin each time, and finishes with one `CLIENT {json}` summary.

use crate::json::{self, Value};
use crate::layers::{self, CallInput};
use crate::loadgen::{self, Client, LoadStats, Proto, Reply};
use crate::normalize;
use crate::prom::Scrape;
use crate::stats::{self, beyond, percentile, ratio, sorted};
use crate::workload::{self, Workload};
use crate::{END_TO_END, PER_LAYER, POOL_WORKERS};
use cqfd_gateway::http as ghttp;
use cqfd_gateway::{Gateway, GatewayConfig, GatewayHandle};
use cqfd_service::{JobResult, PoolConfig};
use cqfd_store::Store;
use std::collections::{BTreeSet, HashMap};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seconds of timed load per run unless `--seconds` says otherwise; the
/// `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 20.0;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Timed decks in a `--smoke` run (two, so a traced smoke run has one
/// traced and one untraced deck).
pub const SMOKE_DECKS: usize = 2;

/// What one run is asked to do.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: &'static Workload,
    /// Seed for the job decks and arrival times.
    pub seed: u64,
    /// Length of the timed phase (whole decks until this has passed).
    pub seconds: f64,
    /// The traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// One set-up and [`SMOKE_DECKS`] timed decks, for tests.
    pub smoke: bool,
    /// Report path (default `<out_dir>/layers-<workload>.json`).
    pub out: Option<PathBuf>,
}

/// What one run found.
#[derive(Debug)]
pub struct Outcome {
    /// No failed job, and every metric measured.
    pub correct: bool,
    /// Requests sent (warm-up included).
    pub attempted: u64,
    /// Requests failed: errors, sheds, wrong or missing answers.
    pub failed: u64,
    /// The metrics this run reports, in table order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Where the full report was written.
    pub report: PathBuf,
}

// ------------------------------------------------------------- server side

struct Served {
    handle: GatewayHandle,
    line_addr: String,
    http_addr: String,
    /// `(line, reply)` for every line of the warm-up pass.
    cold: Vec<(String, String)>,
}

/// The warm-up pass: the distinct lines of the workload's deck 0, sorted.
/// On `warm_cache` this populates the store; on `cache_churn` it stores
/// the fresh keys the first timed deck repeats. The order is fixed rather
/// than seeded: which pool worker runs which big chase decides how many
/// allocator arenas grow, and in seeded order that made the peak RSS of
/// `warm_cache` flip between about 15 and 22 MiB from run to run.
pub fn warm_up_lines(w: &'static Workload, seed: u64) -> Vec<String> {
    let mut lines = workload::Lines::default();
    let deck = workload::DeckGen::new(w, seed).next_deck(&mut lines);
    let distinct: BTreeSet<&str> = deck.iter().map(|p| lines.get(p.line)).collect();
    distinct.into_iter().map(str::to_string).collect()
}

/// One set-up, the part of a run `setup_s` times: binds and starts a
/// gateway (opening a fresh store for cache workloads), waits for the
/// first accept on both listeners, and sends the warm-up pass through
/// it, one job at a time, so lazy initialisation and first-use costs
/// are paid here rather than in the timed phase.
fn set_up(w: &Workload, store_dir: &Path, warm_up: &[String]) -> Result<Served, String> {
    let mut pool = PoolConfig::default().with_workers(POOL_WORKERS);
    if w.store {
        let store = Store::open(store_dir).map_err(|e| format!("open store: {e}"))?;
        pool = pool.with_store(Arc::new(store));
    }
    let gw = Gateway::bind(
        Some("127.0.0.1:0"),
        Some("127.0.0.1:0"),
        GatewayConfig::default().with_pool(pool),
    )
    .map_err(|e| format!("bind gateway: {e}"))?;
    let handle = gw.spawn().map_err(|e| format!("spawn gateway: {e}"))?;
    let addr = |a: Option<std::net::SocketAddr>| a.map(|a| a.to_string()).unwrap_or_default();
    let line_addr = addr(handle.line_addr());
    let http_addr = addr(handle.http_addr());
    probe(&line_addr, &http_addr).map_err(|e| format!("probe gateway: {e}"))?;
    let cold = send_all(&line_addr, warm_up)?;
    Ok(Served {
        handle,
        line_addr,
        http_addr,
        cold,
    })
}

/// Reads one reply off a blocking stream.
fn read_reply(stream: &mut TcpStream, rbuf: &mut Vec<u8>, proto: Proto) -> io::Result<Reply> {
    let mut chunk = [0u8; 64 * 1024];
    loop {
        if let Some(r) = loadgen::take_reply(proto, rbuf) {
            return Ok(r);
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::other("connection closed"));
        }
        rbuf.extend_from_slice(&chunk[..n]);
    }
}

/// Both listeners accept: the line side greets, `/healthz` answers 200.
fn probe(line_addr: &str, http_addr: &str) -> io::Result<()> {
    loadgen::read_greeting(&TcpStream::connect(line_addr)?)?;
    let mut http = TcpStream::connect(http_addr)?;
    http.set_read_timeout(Some(Duration::from_secs(10)))?;
    let req = ghttp::Request {
        method: "GET".into(),
        target: "/healthz".into(),
        headers: vec![("Connection".into(), "close".into())],
        body: Vec::new(),
    };
    http.write_all(&ghttp::render_request(&req, false))?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match ghttp::parse_response(&buf, &ghttp::Limits::default()) {
            ghttp::Parse::Complete { value, .. } if value.status == 200 => return Ok(()),
            ghttp::Parse::Complete { value, .. } => {
                return Err(io::Error::other(format!("/healthz: {}", value.status)))
            }
            ghttp::Parse::Bad { reason, .. } => return Err(io::Error::other(reason)),
            ghttp::Parse::Partial => {}
        }
        let n = http.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::other("HTTP listener closed"));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// Sends every line once over one line connection (which the gateway
/// serves one job at a time); returns the replies.
fn send_all(line_addr: &str, lines: &[String]) -> Result<Vec<(String, String)>, String> {
    let err = |e: io::Error| format!("warm-up: {e}");
    let mut s = TcpStream::connect(line_addr).map_err(err)?;
    loadgen::read_greeting(&s).map_err(err)?;
    s.set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(err)?;
    let mut rbuf = Vec::new();
    let mut batch = lines.join("\n");
    batch.push('\n');
    s.write_all(batch.as_bytes()).map_err(err)?;
    let mut out = Vec::with_capacity(lines.len());
    for line in lines {
        match read_reply(&mut s, &mut rbuf, Proto::Line).map_err(err)? {
            Reply::Answer(text) => out.push((line.clone(), text)),
            other => return Err(format!("warm-up `{line}`: {other:?}")),
        }
    }
    Ok(out)
}

/// This process's user + system CPU seconds (`/proc/self/stat`, in
/// clock ticks of 1/100 s).
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    // Fields 14 and 15 of the line; the first field after `comm` is 3.
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// This process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn write_cold(path: &Path, cold: &[(String, String)]) -> io::Result<()> {
    let mut text = String::new();
    for (line, reply) in cold {
        text.push_str(&format!("{line}\n{}\n{reply}\n", reply.lines().count()));
    }
    std::fs::write(path, text)
}

fn read_cold(path: &Path) -> io::Result<Vec<(String, String)>> {
    let text = std::fs::read_to_string(path)?;
    let mut lines = text.lines();
    let mut out = Vec::new();
    while let Some(line) = lines.next() {
        let n: usize = lines
            .next()
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| io::Error::other("bad cold-reply file"))?;
        let reply: Vec<&str> = lines.by_ref().take(n).collect();
        out.push((line.to_string(), reply.join("\n")));
    }
    Ok(out)
}

/// Runs one workload: set-up, client child, report.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let w = cfg.workload;
    let tmp = crate::out_dir().join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
    let result = run_in(cfg, w, &tmp);
    let _ = std::fs::remove_dir_all(&tmp);
    result
}

fn run_in(cfg: &RunConfig, w: &'static Workload, tmp: &Path) -> Result<Outcome, String> {
    // Set up several times and keep the last: set-up time is a metric,
    // and its median over repetitions is steadier than any one of them.
    let reps = if cfg.smoke { 1 } else { SETUP_REPS };
    let warm_up = warm_up_lines(w, cfg.seed);
    let mut setup_s = Vec::with_capacity(reps);
    let mut served: Option<Served> = None;
    for rep in 0..reps {
        if let Some(prev) = served.take() {
            prev.handle.shutdown();
        }
        let t0 = Instant::now();
        let s = set_up(w, &tmp.join(format!("store-{rep}")), &warm_up)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        served = Some(s);
    }
    let served = served.expect("at least one set-up");
    let cold_path = tmp.join("cold.txt");
    write_cold(&cold_path, &served.cold).map_err(|e| format!("write cold replies: {e}"))?;

    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut args: Vec<String> = vec![
        "--client".into(),
        "--workload".into(),
        w.name.into(),
        "--seed".into(),
        cfg.seed.to_string(),
        "--seconds".into(),
        cfg.seconds.to_string(),
        "--trace".into(),
        if cfg.trace { "1" } else { "0" }.into(),
        "--line".into(),
        served.line_addr.clone(),
        "--http".into(),
        served.http_addr.clone(),
        "--scratch".into(),
        tmp.join("scratch").display().to_string(),
        "--cold".into(),
        cold_path.display().to_string(),
    ];
    if cfg.smoke {
        args.push("--smoke".into());
    }
    let mut child = Command::new(exe)
        .args(&args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn client: {e}"))?;
    let mut to_child = child.stdin.take().expect("piped stdin");
    let from_child = child.stdout.take().expect("piped stdout");
    let (tx, rx) = mpsc::channel::<String>();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(from_child).lines().map_while(Result::ok) {
            if tx.send(line).is_err() {
                break;
            }
        }
    });

    // The client finishes within its phase plus grace periods; past
    // this it is killed and the run fails, still inside the 180 s a run
    // may take.
    let hard = Instant::now() + Duration::from_secs_f64(cfg.seconds.min(60.0) + 120.0);
    let (mut cpu0, mut cpu1) = (None, None);
    let mut summary: Option<Value> = None;
    let mut problem: Option<String> = None;
    loop {
        let left = hard.saturating_duration_since(Instant::now());
        match rx.recv_timeout(left) {
            Ok(line) => {
                if line == "MARK start" {
                    cpu0 = Some(cpu_seconds());
                    let _ = writeln!(to_child, "go");
                } else if line == "MARK end" {
                    cpu1 = Some(cpu_seconds());
                    let _ = writeln!(to_child, "go");
                } else if let Some(j) = line.strip_prefix("CLIENT ") {
                    match json::parse(j) {
                        Ok(v) => summary = Some(v),
                        Err(e) => problem = Some(format!("client summary: {e}")),
                    }
                } else {
                    eprintln!("{line}");
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                let _ = child.kill();
                problem = Some("client did not finish in time".into());
                break;
            }
        }
    }
    drop(to_child);
    let status = child.wait().map_err(|e| format!("wait client: {e}"))?;
    let _ = reader.join();
    let peak_rss = peak_rss_mib();
    served.handle.shutdown();
    if !status.success() && problem.is_none() {
        problem = Some(format!("client exited with {status}"));
    }
    let summary = summary.ok_or_else(|| problem.clone().unwrap_or("no client summary".into()))?;
    let num = |k: &str| summary.get(k).and_then(Value::as_f64).unwrap_or(0.0);
    let replies = num("replies");
    let cpu_s = match (cpu0, cpu1) {
        (Some(a), Some(b)) => b - a,
        _ => 0.0,
    };
    let metrics: Vec<(&'static str, f64)> = if cfg.trace {
        let layer = summary.get("per_layer");
        PER_LAYER
            .iter()
            .map(|d| {
                let v = layer.and_then(|l| l.get(d.name)).and_then(Value::as_f64);
                (d.name, v.unwrap_or(0.0))
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|d| {
                let v = match d.name {
                    "setup_s" => stats::median(&setup_s),
                    "server_cpu_ms_per_job" => ratio(cpu_s * 1e3, replies),
                    "peak_rss_mb" => peak_rss,
                    other => num(other),
                };
                (d.name, v)
            })
            .collect()
    };
    let attempted = num("attempted") as u64;
    let failed = num("failed") as u64;
    let complete = cpu0.is_some() && cpu1.is_some() && problem.is_none() && replies > 0.0;
    let correct = failed == 0 && attempted > 0 && complete;
    if let Some(problems) = summary.get("problems").and_then(Value::as_array) {
        for p in problems.iter().filter_map(Value::as_str) {
            eprintln!("[{}] {p}", w.name);
        }
    }
    let report = cfg
        .out
        .clone()
        .unwrap_or_else(|| crate::out_dir().join(format!("layers-{}.json", w.name)));
    let doc = report_json(cfg, &setup_s, &summary, &metrics, correct);
    if let Some(dir) = report.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(&report, doc).map_err(|e| format!("write {}: {e}", report.display()))?;
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics,
        report,
    })
}

fn report_json(
    cfg: &RunConfig,
    setup_s: &[f64],
    summary: &Value,
    metrics: &[(&'static str, f64)],
    correct: bool,
) -> String {
    let num = |k: &str| json::num(summary.get(k).and_then(Value::as_f64).unwrap_or(0.0));
    let metric_obj: Vec<String> = metrics
        .iter()
        .map(|(name, v)| {
            json::metric_member(name, *v, crate::metric_def(name).map_or("", |d| d.unit))
        })
        .collect();
    let setups: Vec<String> = setup_s.iter().map(|&s| json::num(s)).collect();
    format!(
        "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \
         \"smoke\": {},\n  \"correct\": {correct},\n  \"host_cores\": {},\n  \
         \"pool_workers\": {POOL_WORKERS},\n  \"connections\": {},\n  \"setup_s_samples\": [{}],\n  \
         \"attempted\": {},\n  \"failed\": {},\n  \"replies\": {},\n  \"decks\": {},\n  \
         \"latency_samples\": {},\n  \"beyond_p90\": {},\n  \"tail_percentile\": {},\n  \
         \"tail_ms\": {},\n  \"metrics\": {{\n    {}\n  }}\n}}\n",
        json::quote(cfg.workload.name),
        cfg.seed,
        json::num(cfg.seconds),
        cfg.trace,
        cfg.smoke,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        crate::CONNECTIONS,
        setups.join(", "),
        num("attempted"),
        num("failed"),
        num("replies"),
        num("decks"),
        num("samples"),
        num("beyond_p90"),
        num("tail_percentile"),
        num("tail_ms"),
        metric_obj.join(",\n    "),
    )
}

// ------------------------------------------------------------- client side

/// The client child's arguments.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// The workload.
    pub workload: &'static Workload,
    /// Deck and arrival seed.
    pub seed: u64,
    /// Timed-phase length.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
    /// Smoke size.
    pub smoke: bool,
    /// Line-protocol address.
    pub line_addr: String,
    /// HTTP address.
    pub http_addr: String,
    /// Scratch directory for the call-timing store.
    pub scratch: PathBuf,
    /// The replies to the set-up's warm-up pass.
    pub cold: Option<PathBuf>,
}

/// Tells the server a phase boundary was reached and waits for its `go`.
fn mark(what: &str) -> Result<(), String> {
    println!("MARK {what}");
    io::stdout().flush().map_err(|e| e.to_string())?;
    let mut ack = String::new();
    io::stdin()
        .read_line(&mut ack)
        .map_err(|e| format!("read go: {e}"))?;
    if ack.trim() == "go" {
        Ok(())
    } else {
        Err(format!("expected `go`, got `{}`", ack.trim()))
    }
}

/// The client child: timed phase, verification, and (traced runs) the
/// per-layer measurements. Prints the `CLIENT` summary.
pub fn client(cfg: &ClientConfig) -> Result<(), String> {
    let w = cfg.workload;
    let mut c = Client::connect(w, cfg.seed, cfg.trace, &cfg.line_addr, &cfg.http_addr)
        .map_err(|e| format!("connect: {e}"))?;
    c.skip_setup_deck();
    let before = c.scrape().map_err(|e| format!("scrape: {e}"))?;
    mark("start")?;
    let (seconds, max_decks) = if cfg.smoke {
        (60.0, SMOKE_DECKS)
    } else {
        (cfg.seconds, usize::MAX)
    };
    let stats = c.timed(seconds, max_decks)?;
    mark("end")?;
    let after = c.scrape().map_err(|e| format!("scrape: {e}"))?;
    let counters = Scrape::delta(&before, &after);

    // Every distinct line's first reply against an in-process reference,
    // the paper's facts, and the reply the same line got during set-up.
    let mask = w.store;
    let mut references: HashMap<String, JobResult> = HashMap::new();
    let mut reference_of: HashMap<usize, String> = HashMap::new();
    for line in c.verifier.lines() {
        let text = c.lines.get(line).to_string();
        let canonical = workload::reference_line(&text);
        if !references.contains_key(&canonical) {
            let job = cqfd_service::parse_job(&canonical)?
                .ok_or_else(|| format!("`{canonical}` is no job"))?;
            references.insert(
                canonical.clone(),
                cqfd_service::execute(0, &job, &cqfd_core::CancelToken::new()),
            );
        }
        let want = normalize::normalize(&references[&canonical].render_protocol(), mask);
        c.verifier.expect(line, &want, "in-process reference");
        if let Some(why) = c
            .verifier
            .first(line)
            .and_then(|first| normalize::fact_violation(&text, first))
        {
            c.verifier.reject(line, why);
        }
        reference_of.insert(line, canonical);
    }
    if let Some(path) = &cfg.cold {
        let cold = read_cold(path).map_err(|e| format!("read cold replies: {e}"))?;
        for (text, reply) in cold {
            if let Some(line) = c.lines.find(&text) {
                c.verifier
                    .expect(line, &normalize::normalize(&reply, mask), "cold reply");
            }
        }
    }

    let per_layer = if cfg.trace {
        let inputs: Vec<CallInput> = stats
            .deck_lines
            .iter()
            .filter_map(|&(line, copies)| {
                Some(CallInput {
                    line: c.lines.get(line),
                    copies,
                    reference: references.get(reference_of.get(&line)?)?,
                })
            })
            .collect();
        let calls = layers::measure_calls(&inputs, &cfg.scratch)?;
        layers::per_layer(&stats, &counters, &calls)
    } else {
        Vec::new()
    };
    println!("CLIENT {}", summary_json(&c, &stats, &per_layer));
    io::stdout().flush().map_err(|e| e.to_string())
}

fn summary_json(c: &Client, stats: &LoadStats, per_layer: &[(&'static str, f64)]) -> String {
    let lat = sorted(stats.samples.iter().map(|s| s.latency_s * 1e3).collect());
    let pct = |p: f64| percentile(&lat, p).unwrap_or(0.0);
    // The report also names the highest percentile this sample supports
    // (at least ten samples beyond it) next to the fixed p90.
    let tail = stats::highest_supported(lat.len(), &[50.0, 90.0, 99.0, 99.9], 10).unwrap_or(50.0);
    let layer: Vec<String> = per_layer
        .iter()
        .map(|(n, v)| format!("{}: {}", json::quote(n), json::num(*v)))
        .collect();
    let problems: Vec<String> = c
        .verifier
        .problems()
        .iter()
        .map(|p| json::quote(p))
        .collect();
    format!(
        "{{\"attempted\": {}, \"failed\": {}, \"replies\": {}, \"decks\": {}, \"wall_s\": {}, \
         \"samples\": {}, \"beyond_p90\": {}, \"latency_p50_ms\": {}, \"latency_p90_ms\": {}, \
         \"tail_percentile\": {}, \"tail_ms\": {}, \"throughput_jobs_per_s\": {}, \
         \"problems\": [{}], \"per_layer\": {{{}}}}}",
        c.verifier.requests(),
        c.verifier.failed(),
        stats.replies,
        stats.decks,
        json::num(stats.wall_s),
        lat.len(),
        beyond(lat.len(), 90.0),
        json::num(pct(50.0)),
        json::num(pct(90.0)),
        json::num(tail),
        json::num(pct(tail)),
        json::num(ratio(stats.replies as f64, stats.wall_s)),
        problems.join(", "),
        layer.join(", "),
    )
}
