//! `layers` — the cqfd gateway benchmark.
//!
//! ```text
//! layers [--workload <name>|all] [--seed <n>] [--seconds <s>]
//!        [--trace 0|1 | --traced] [--smoke] [--out <path>]
//! ```
//!
//! Prints one `METRIC <workload> <name> <value> <unit>` line per metric
//! and, last, one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`; writes the full report under `$CARGO_TARGET_DIR/cqfd-bench`
//! (else `target/cqfd-bench`). Exits nonzero on any wrong or missing
//! answer. `--client …` is the re-executed load-generating child.

use cqfd_layers::json;
use cqfd_layers::run::{self, ClientConfig, RunConfig, DEFAULT_SECONDS};
use cqfd_layers::workload::{self, WORKLOADS};
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

struct Args(Vec<String>);

impl Args {
    fn value(&self, flag: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == flag)?;
        self.0.get(i + 1).map(String::as_str)
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad {flag} `{v}`")),
        }
    }

    /// Rejects anything but the known flags (each value flag followed by
    /// its value).
    fn check(&self, values: &[&str], switches: &[&str]) -> Result<(), String> {
        let mut i = 0;
        while i < self.0.len() {
            let a = self.0[i].as_str();
            if values.contains(&a) {
                if i + 1 >= self.0.len() {
                    return Err(format!("{a} needs a value"));
                }
                i += 2;
            } else if switches.contains(&a) {
                i += 1;
            } else {
                return Err(format!("unknown argument `{a}`"));
            }
        }
        Ok(())
    }
}

fn main() {
    // `cargo bench` appends `--bench`.
    let args = Args(
        std::env::args()
            .skip(1)
            .filter(|a| a != "--bench")
            .collect(),
    );
    let code = match if args.has("--client") {
        client(&args).map(|()| 0)
    } else {
        server(&args)
    } {
        Ok(code) => code,
        Err(e) => {
            eprintln!("layers: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn client(args: &Args) -> Result<(), String> {
    let name = args.value("--workload").unwrap_or_default();
    let cfg = ClientConfig {
        workload: workload::workload(name).ok_or_else(|| format!("unknown workload `{name}`"))?,
        seed: args.parsed("--seed", 1)?,
        seconds: args.parsed("--seconds", DEFAULT_SECONDS)?,
        trace: args.value("--trace") == Some("1"),
        smoke: args.has("--smoke"),
        line_addr: args.value("--line").unwrap_or_default().to_string(),
        http_addr: args.value("--http").unwrap_or_default().to_string(),
        scratch: args.value("--scratch").unwrap_or_default().into(),
        cold: args.value("--cold").map(Into::into),
    };
    run::client(&cfg)
}

fn server(args: &Args) -> Result<i32, String> {
    args.check(
        &["--workload", "--seed", "--seconds", "--trace", "--out"],
        &["--traced", "--smoke"],
    )?;
    let seed: u64 = args.parsed("--seed", 1)?;
    let seconds: f64 = args.parsed("--seconds", DEFAULT_SECONDS)?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("bad --seconds `{seconds}`"));
    }
    let trace = match args.value("--trace") {
        None => args.has("--traced"),
        Some("0") => false,
        Some("1") => true,
        Some(v) => return Err(format!("bad --trace `{v}` (want 0 or 1)")),
    };
    let name = args.value("--workload").unwrap_or("all");
    if name == "all" {
        return all(args);
    }
    let cfg = RunConfig {
        workload: workload::workload(name).ok_or_else(|| format!("unknown workload `{name}`"))?,
        seed,
        seconds,
        trace,
        smoke: args.has("--smoke"),
        out: args.value("--out").map(Into::into),
    };
    let out = run::run(&cfg)?;
    let mut metrics = Vec::new();
    for (name, value) in &out.metrics {
        let unit = cqfd_layers::metric_def(name).map_or("", |d| d.unit);
        println!(
            "METRIC {} {name} {} {unit}",
            cfg.workload.name,
            json::num(*value)
        );
        metrics.push(json::metric_member(name, *value, unit));
    }
    eprintln!("report: {}", out.report.display());
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    Ok(if out.correct { 0 } else { 1 })
}

/// Runs every workload, each in its own process (and so its own server),
/// passing the other flags through; the final JSON keys each metric as
/// `<workload>.<name>`.
fn all(args: &Args) -> Result<i32, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut pass: Vec<String> = Vec::new();
    for flag in ["--seed", "--seconds", "--trace"] {
        if let Some(v) = args.value(flag) {
            pass.extend([flag.to_string(), v.to_string()]);
        }
    }
    for flag in ["--traced", "--smoke"] {
        if args.has(flag) {
            pass.push(flag.to_string());
        }
    }
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for w in WORKLOADS {
        let mut child = Command::new(&exe)
            .args(["--workload", w.name])
            .args(&pass)
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", w.name))?;
        let mut last = String::new();
        for line in BufReader::new(child.stdout.take().expect("piped")).lines() {
            let line = line.map_err(|e| e.to_string())?;
            if line.starts_with("METRIC ") {
                println!("{line}");
            }
            last = line;
        }
        let status = child.wait().map_err(|e| e.to_string())?;
        let result = json::parse(&last).ok();
        let field = |k: &str| result.as_ref().and_then(|r| r.get(k));
        correct &= status.success() && field("correct") == Some(&json::Value::Bool(true));
        attempted += field("attempted").and_then(|v| v.as_f64()).unwrap_or(0.0) as u64;
        failed += field("failed").and_then(|v| v.as_f64()).unwrap_or(0.0) as u64;
        if let Some(json::Value::Obj(members)) = field("metrics") {
            for (name, v) in members {
                let value = v.get("value").and_then(|x| x.as_f64()).unwrap_or(0.0);
                let unit = v.get("unit").and_then(|x| x.as_str()).unwrap_or("");
                metrics.push(json::metric_member(
                    &format!("{}.{name}", w.name),
                    value,
                    unit,
                ));
            }
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    Ok(if correct { 0 } else { 1 })
}
