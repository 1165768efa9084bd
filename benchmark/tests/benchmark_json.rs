//! `BENCHMARK.json` and the harness agree: every workload and metric the
//! file lists is one the harness prints, with the same unit and
//! direction, and the reverse.

use cqfd_layers::json::{self, Value};
use cqfd_layers::workload::WORKLOADS;
use cqfd_layers::{MetricDef, END_TO_END, PER_LAYER};
use std::path::Path;

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json over 64 KiB");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.as_bytes()[0].is_ascii_alphanumeric()
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
}

fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("missing string `{key}` in {v:?}"))
}

/// The listed metrics equal the table: same names in the same order,
/// same units and directions, exactly the allowed keys.
fn check_metrics(listed: &[Value], table: &[MetricDef], with_bound: bool) {
    let names: Vec<&str> = listed.iter().map(|m| str_of(m, "name")).collect();
    let want: Vec<&str> = table.iter().map(|d| d.name).collect();
    assert_eq!(names, want);
    for (m, d) in listed.iter().zip(table) {
        let mut keys = vec!["name", "unit", "better"];
        if with_bound {
            keys.push("bound");
        }
        assert_eq!(m.keys(), keys, "{}", d.name);
        assert!(valid_name(d.name), "bad name `{}`", d.name);
        assert!(valid_unit(d.unit), "bad unit `{}`", d.unit);
        assert_eq!(str_of(m, "unit"), d.unit, "{}", d.name);
        assert_eq!(str_of(m, "better"), d.better.as_str(), "{}", d.name);
    }
}

#[test]
fn top_level_keys_paths_and_command() {
    let b = benchmark_json();
    assert_eq!(
        b.keys(),
        vec![
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let paths: Vec<&str> = b
        .get("paths")
        .expect("paths")
        .as_array()
        .expect("paths")
        .iter()
        .map(|p| p.as_str().expect("path string"))
        .collect();
    assert_eq!(paths, vec!["benchmark"]);
    let own_dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .file_name()
        .and_then(|n| n.to_str());
    assert_eq!(
        own_dir,
        Some(paths[0]),
        "paths names this package's directory"
    );

    let command: Vec<&str> = b
        .get("command")
        .expect("command")
        .as_array()
        .expect("command")
        .iter()
        .map(|a| a.as_str().expect("command string"))
        .collect();
    assert!(!command.is_empty() && command.len() <= 32);
    for arg in &command {
        assert!(arg.len() <= 200, "{arg}");
        assert!(!arg.starts_with('/') && !arg.contains(".."), "{arg}");
        if arg.contains('/') {
            assert!(arg.starts_with("benchmark/"), "`{arg}` is outside paths");
        }
    }

    let secs = b
        .get("run_seconds")
        .expect("run_seconds")
        .as_f64()
        .expect("run_seconds");
    assert!(secs.fract() == 0.0 && (1.0..=60.0).contains(&secs));
    assert_eq!(secs, cqfd_layers::run::DEFAULT_SECONDS);
}

#[test]
fn workloads_match_the_harness() {
    let b = benchmark_json();
    let listed = b
        .get("workloads")
        .expect("workloads")
        .as_array()
        .expect("workloads");
    assert!((2..=8).contains(&listed.len()));
    assert_eq!(listed.len(), WORKLOADS.len());
    for (v, w) in listed.iter().zip(WORKLOADS) {
        assert_eq!(v.keys(), vec!["name", "why"]);
        assert_eq!(str_of(v, "name"), w.name);
        assert!(valid_name(w.name), "{}", w.name);
        let why = str_of(v, "why");
        assert_eq!(why, w.why, "{}", w.name);
        assert!(why.len() <= 200 && !why.contains('\n'), "{}", w.name);
    }
}

#[test]
fn end_to_end_metrics_match_the_harness() {
    let b = benchmark_json();
    let listed = b
        .get("end_to_end")
        .expect("end_to_end")
        .as_array()
        .expect("end_to_end");
    assert!((1..=16).contains(&listed.len()));
    check_metrics(listed, END_TO_END, true);
    let bound = |m: &Value| m.get("bound").and_then(Value::as_f64).expect("bound");
    for m in listed {
        let x = bound(m);
        assert!(x > 0.0 && x <= 0.25, "{}: bound {x}", str_of(m, "name"));
    }
    // Set-up time is required, and carries the largest bound.
    let setup = listed
        .iter()
        .find(|m| str_of(m, "name") == "setup_s")
        .expect("setup_s");
    assert_eq!(str_of(setup, "unit"), "s");
    assert_eq!(str_of(setup, "better"), "lower");
    assert!(listed.iter().all(|m| bound(m) <= bound(setup)));
}

#[test]
fn per_layer_metrics_match_the_harness() {
    let b = benchmark_json();
    let listed = b
        .get("per_layer")
        .expect("per_layer")
        .as_array()
        .expect("per_layer");
    assert!((1..=128).contains(&listed.len()));
    check_metrics(listed, PER_LAYER, false);
}

#[test]
fn every_name_is_used_once() {
    let mut names: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().chain(PER_LAYER).map(|d| d.name))
        .collect();
    let n = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), n);
}
