//! All four workloads at smoke size (one set-up, two timed decks each)
//! through a real gateway on loopback, untraced and traced: no job may
//! fail, and every metric of the run's table must be printed for every
//! workload.

use cqfd_layers::json::{self, Value};
use cqfd_layers::workload::WORKLOADS;
use cqfd_layers::{MetricDef, END_TO_END, PER_LAYER};
use std::collections::BTreeSet;
use std::process::Command;

fn smoke(trace: &str, table: &[MetricDef]) {
    let out = Command::new(env!("CARGO_BIN_EXE_layers"))
        .args([
            "--workload",
            "all",
            "--smoke",
            "--seed",
            "3",
            "--trace",
            trace,
        ])
        // Reports and temporary stores go under the test target dir.
        .env("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run layers");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "layers --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut printed = BTreeSet::new();
    for line in stdout.lines().filter(|l| l.starts_with("METRIC ")) {
        let f: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(f.len(), 5, "{line}");
        let def = table
            .iter()
            .find(|d| d.name == f[2])
            .unwrap_or_else(|| panic!("unexpected metric: {line}"));
        assert_eq!(f[4], def.unit, "{line}");
        assert!(f[3].parse::<f64>().is_ok_and(f64::is_finite), "{line}");
        printed.insert((f[1].to_string(), f[2].to_string()));
    }
    for w in WORKLOADS {
        for d in table {
            assert!(
                printed.contains(&(w.name.to_string(), d.name.to_string())),
                "{} {} not printed (trace {trace})",
                w.name,
                d.name
            );
        }
    }
    let last = json::parse(stdout.lines().last().unwrap_or_default()).expect("final JSON line");
    assert_eq!(last.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(last.get("failed").and_then(Value::as_f64), Some(0.0));
    assert!(last.get("attempted").and_then(Value::as_f64).unwrap_or(0.0) >= 1.0);
}

#[test]
fn every_workload_answers_correctly_and_prints_every_metric() {
    // One after the other: the runs share the host's cores.
    smoke("0", END_TO_END);
    smoke("1", PER_LAYER);
}
