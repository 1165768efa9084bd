//! Smoke tests for the `cqfd` CLI binary.

use std::process::Command;

fn cqfd(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_cqfd"))
        .args(args)
        .output()
        .expect("run cqfd");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.success(), text)
}

#[test]
fn determine_certifies_join() {
    let (ok, text) = cqfd(&[
        "determine",
        "--sig",
        "R/2,S/2",
        "--view",
        "V1(x,y) :- R(x,y)",
        "--view",
        "V2(x,y) :- S(x,y)",
        "--query",
        "Q0(x,z) :- R(x,y), S(y,z)",
    ]);
    assert!(ok, "{text}");
    assert!(text.contains("DETERMINED"), "{text}");
}

#[test]
fn determine_refutes_projection_with_witness() {
    let (ok, text) = cqfd(&[
        "determine",
        "--sig",
        "R/2",
        "--view",
        "V(x) :- R(x,y)",
        "--query",
        "Q0(x,y) :- R(x,y)",
    ]);
    assert!(ok, "{text}");
    assert!(text.contains("NOT determined"), "{text}");
    assert!(text.contains("counter-example"), "{text}");
}

#[test]
fn rewrite_finds_composition() {
    let (ok, text) = cqfd(&[
        "rewrite",
        "--sig",
        "R/2",
        "--view",
        "V(x,z) :- R(x,y), R(y,z)",
        "--query",
        "Q0(a,e) :- R(a,b), R(b,c), R(c,d), R(d,e)",
    ]);
    assert!(ok, "{text}");
    assert!(text.contains("CQ rewriting exists"), "{text}");
}

#[test]
fn creep_and_emit_round_trip() {
    let (ok, text) = cqfd(&["creep", "--worm", "counter:2"]);
    assert!(ok, "{text}");
    assert!(text.contains("HALTED after k_M = 43"), "{text}");
    let (ok, emitted) = cqfd(&["creep", "--worm", "counter:2", "--emit"]);
    assert!(ok);
    // Feed the emitted worm back through a temp file.
    let path = std::env::temp_dir().join("cqfd_cli_worm_test.txt");
    std::fs::write(&path, &emitted).unwrap();
    let spec = format!("file:{}", path.display());
    let (ok, text) = cqfd(&["creep", "--worm", &spec]);
    assert!(ok, "{text}");
    assert!(text.contains("HALTED after k_M = 43"), "{text}");
}

#[test]
fn reduce_reports_instance_sizes() {
    let (ok, text) = cqfd(&["reduce", "--worm", "forever"]);
    assert!(ok, "{text}");
    assert!(text.contains("conjunctive queries"), "{text}");
    assert!(text.contains("creeps forever"), "{text}");
}

#[test]
fn separate_demonstrates_theorem14() {
    let (ok, text) = cqfd(&["separate"]);
    assert!(ok, "{text}");
    assert!(text.contains("1-2 pattern: false"), "{text}");
    assert!(text.contains("1-2 pattern: true"), "{text}");
}

#[test]
fn bad_usage_fails_cleanly() {
    let (ok, text) = cqfd(&["determine", "--sig", "R/notanumber"]);
    assert!(!ok);
    assert!(text.contains("error"), "{text}");
    let (ok, _) = cqfd(&["frobnicate"]);
    assert!(!ok);
}

#[test]
fn unknown_flags_are_rejected() {
    let (ok, text) = cqfd(&[
        "determine",
        "--sig",
        "R/2",
        "--view",
        "V(x,y) :- R(x,y)",
        "--query",
        "Q0(x,y) :- R(x,y)",
        "--frobnicate",
        "3",
    ]);
    assert!(!ok);
    assert!(text.contains("unknown flag"), "{text}");
    let (ok, text) = cqfd(&["creep", "--worm", "short", "--stages", "3"]);
    assert!(!ok);
    assert!(text.contains("unknown flag"), "{text}");
}

/// `cqfd serve` runs the gateway: the line protocol and HTTP share one
/// reactor, `metrics --connect` scrapes it, and `shutdown` stops it.
#[test]
fn serve_runs_the_gateway_until_shutdown() {
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpStream;

    /// Kills the server if the test fails before `shutdown`.
    struct Server(std::process::Child);
    impl Drop for Server {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }

    let (ok, text) = cqfd(&["serve", "--gateway", "--listen", "127.0.0.1:0"]);
    assert!(!ok && text.contains("unknown flag `--gateway`"), "{text}");
    let (ok, text) = cqfd(&["serve", "--workers", "1"]);
    assert!(
        !ok && text.contains("--listen and/or --http-listen"),
        "{text}"
    );

    let mut server = Server(
        Command::new(env!("CARGO_BIN_EXE_cqfd"))
            .args(["serve", "--listen", "127.0.0.1:0"])
            .args(["--http-listen", "127.0.0.1:0", "--workers", "1"])
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("spawn cqfd serve"),
    );
    let mut stdout = BufReader::new(server.0.stdout.take().expect("stdout"));
    let mut bound = |prefix: &str| -> String {
        let mut line = String::new();
        stdout.read_line(&mut line).expect("listener line");
        line.strip_prefix(prefix)
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap_or_else(|| panic!("expected `{prefix}<addr>`, got `{line}`"))
            .to_string()
    };
    let line_addr = bound("line protocol on ");
    let http_addr = bound("http on ");

    let (ok, scrape) = cqfd(&["metrics", "--connect", &line_addr]);
    assert!(ok, "{scrape}");
    assert!(
        scrape.contains("# TYPE cqfd_gateway_connections gauge"),
        "{scrape}"
    );

    let mut http = TcpStream::connect(&http_addr).expect("connect http");
    http.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut health = String::new();
    http.read_to_string(&mut health).unwrap();
    assert!(health.starts_with("HTTP/1.1 200 "), "{health}");
    assert!(health.contains("workers=1"), "{health}");

    let line = TcpStream::connect(&line_addr).expect("connect line");
    let mut reader = BufReader::new(line.try_clone().unwrap());
    let mut writer = line;
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert_eq!(reply, "cqfd-service v1\n");
    writeln!(writer, "determine instance=projection").unwrap();
    reply.clear();
    reader.read_line(&mut reply).unwrap();
    assert!(reply.contains("verdict=not-determined"), "{reply}");
    let (ok, dump) = cqfd(&["flight", "--connect", &line_addr, "--max-lines", "1"]);
    assert!(ok, "{dump}");
    assert_eq!(dump.lines().count(), 1, "{dump}");
    assert!(dump.contains("\"seq\""), "{dump}");
    writeln!(writer, "shutdown").unwrap();
    reply.clear();
    reader.read_line(&mut reply).unwrap();
    assert_eq!(reply, "bye\n");

    assert!(server.0.wait().expect("wait").success());
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).unwrap();
    assert!(rest.contains("gateway stopped"), "{rest}");
}

#[test]
fn determine_prints_metrics() {
    let (ok, text) = cqfd(&[
        "determine",
        "--sig",
        "R/2",
        "--view",
        "V(x,y) :- R(x,y)",
        "--query",
        "Q0(x,y) :- R(x,y)",
    ]);
    assert!(ok, "{text}");
    assert!(text.contains("metrics: stages="), "{text}");
    assert!(text.contains("elapsed_ms="), "{text}");
}

/// `cqfd batch jobs.txt | head -1`: once the reader closes the pipe,
/// batch stops quietly instead of panicking on the next write.
#[test]
fn batch_stops_quietly_when_stdout_closes() {
    use std::io::{BufRead, BufReader, Read};
    use std::process::Stdio;
    // The `separate` result arrives about a second after the first line,
    // so it is written after the pipe has closed.
    let path = std::env::temp_dir().join(format!("cqfd_cli_pipe_{}.txt", std::process::id()));
    std::fs::write(
        &path,
        "creep worm=short\nseparate stages=60\ncreep worm=short\n",
    )
    .unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_cqfd"))
        .args(["batch", path.to_str().unwrap(), "--workers", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run cqfd");
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    assert!(
        first.starts_with("job=1 kind=creep verdict=halted"),
        "{first}"
    );
    // The reader (and with it the pipe) is dropped here.
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut stderr)
        .unwrap();
    let status = child.wait().unwrap();
    let _ = std::fs::remove_file(&path);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(status.code(), Some(101), "panic exit status: {stderr}");
    assert!(status.success(), "{status:?}: {stderr}");
}

#[test]
fn batch_runs_a_mixed_jobs_file() {
    let jobs = "\
# a mixed workload
determine instance=path:2x3 stages=48
determine instance=projection
creep worm=counter:2
creep worm=forever steps=max timeout-ms=1000
separate stages=80
";
    let path = std::env::temp_dir().join("cqfd_cli_batch_test.txt");
    std::fs::write(&path, jobs).unwrap();
    let (ok, text) = cqfd(&["batch", path.to_str().unwrap(), "--workers", "4"]);
    assert!(ok, "{text}");
    assert!(
        text.contains("job=1 kind=determine verdict=determined"),
        "{text}"
    );
    assert!(
        text.contains("job=2 kind=determine verdict=not-determined"),
        "{text}"
    );
    assert!(text.contains("job=3 kind=creep verdict=halted"), "{text}");
    assert!(
        text.contains("job=4 kind=creep verdict=budget-exceeded detail=deadline"),
        "{text}"
    );
    assert!(
        text.contains("job=5 kind=separate verdict=separated di_pattern=false lasso_pattern=true"),
        "{text}"
    );
}

#[test]
fn batch_rejects_bad_job_files() {
    let path = std::env::temp_dir().join("cqfd_cli_batch_bad_test.txt");
    std::fs::write(&path, "creep worm=short\nfrobnicate x=1\n").unwrap();
    let (ok, text) = cqfd(&["batch", path.to_str().unwrap()]);
    assert!(!ok);
    assert!(text.contains("line 2"), "{text}");
}

/// Every built-in rule-set family lints clean of error diagnostics. The
/// Theorem 14 rules are deliberately non-terminating, so a warn-severity
/// A100 (not weakly acyclic, with a cycle witness) is expected there —
/// what matters is that `lint` still exits zero.
#[test]
fn lint_accepts_every_builtin_family() {
    for target in [
        "theorem14",
        "worm:forever",
        "worm:short",
        "worm:counter:2",
        "worm:tm-walker:2",
    ] {
        let (ok, text) = cqfd(&["lint", target]);
        assert!(ok, "{target}: {text}");
        assert!(text.contains("0 error(s)"), "{target}: {text}");
    }
    let (ok, text) = cqfd(&["lint", "theorem14"]);
    assert!(ok, "{text}");
    assert!(text.contains("warn[A100]"), "{text}");
    assert!(text.contains("~>"), "cycle witness expected: {text}");
}

/// A deliberately broken rules file — an arity mismatch and an unsafe
/// head variable — fails with a nonzero exit and diagnostics naming the
/// rule, the variable, and the codes.
#[test]
fn lint_rejects_a_broken_rules_file_naming_the_culprits() {
    let rules = "\
sig R/2 S/2
tgd grow: R(x,y) -> S(y,z)
tgd bad: R(x,y,q) -> S(x,y)
cq V(x,w) :- R(x,y)
";
    let path = std::env::temp_dir().join("cqfd_cli_lint_broken.rules");
    std::fs::write(&path, rules).unwrap();
    let (ok, text) = cqfd(&["lint", path.to_str().unwrap()]);
    assert!(!ok, "broken rules must fail: {text}");
    assert!(text.contains("error[A010]"), "{text}");
    assert!(text.contains("`bad`"), "{text}");
    assert!(text.contains("error[A001]"), "{text}");
    assert!(text.contains("`w`"), "{text}");
    assert!(text.contains("2 error diagnostics"), "{text}");

    // `--json` renders the same diagnostics as structured output.
    let (ok, text) = cqfd(&["lint", path.to_str().unwrap(), "--json"]);
    assert!(!ok);
    assert!(text.contains("\"code\":\"A010\""), "{text}");
    assert!(text.contains("\"severity\":\"error\""), "{text}");
}

/// `lint=1` on a batch job line ships the diagnostics report behind a
/// `lint_lines=` marker, and the verdict line stamps the chase-termination
/// verdict.
#[test]
fn batch_lint_flag_ships_report_and_termination() {
    let path = std::env::temp_dir().join("cqfd_cli_batch_lint.txt");
    std::fs::write(&path, "determine instance=projection lint=1\n").unwrap();
    let (ok, text) = cqfd(&["batch", path.to_str().unwrap()]);
    assert!(ok, "{text}");
    assert!(text.contains(" lint_lines="), "{text}");
    assert!(text.contains("cqfd-lint v1"), "{text}");
    assert!(text.contains(" termination="), "{text}");
}

/// `certify <kind>` writes a certificate file and `check` validates it —
/// one round trip per verdict kind, all through the real binary.
#[test]
fn certify_then_check_round_trips_every_kind() {
    let dir = std::env::temp_dir();
    let cases: &[(&str, Vec<&str>)] = &[
        (
            "determined.cert",
            vec![
                "certify",
                "determine",
                "--sig",
                "R/2,S/2",
                "--view",
                "V1(x,y) :- R(x,y)",
                "--view",
                "V2(x,y) :- S(x,y)",
                "--query",
                "Q0(x,z) :- R(x,y), S(y,z)",
            ],
        ),
        (
            "refuted.cert",
            vec![
                "certify",
                "determine",
                "--sig",
                "R/2",
                "--view",
                "V(x) :- R(x,y)",
                "--query",
                "Q0(x,y) :- R(x,y)",
            ],
        ),
        ("separation.cert", vec!["certify", "separate"]),
        ("creep.cert", vec!["certify", "creep", "--worm", "short"]),
        (
            "countermodel.cert",
            vec!["certify", "countermodel", "--worm", "short"],
        ),
    ];
    for (file, args) in cases {
        let path = dir.join(format!("cqfd_cli_{file}"));
        let mut args = args.clone();
        let path_str = path.to_str().unwrap().to_owned();
        args.extend(["--out", &path_str]);
        let (ok, text) = cqfd(&args);
        assert!(ok, "certify {file}: {text}");
        let (ok, text) = cqfd(&["check", &path_str]);
        assert!(ok, "check {file}: {text}");
        assert!(text.starts_with("OK:"), "{file}: {text}");
    }
}

/// A tampered certificate is rejected with a nonzero exit: forging the
/// pattern witness to point at the constant nodes invalidates the claim.
#[test]
fn check_rejects_a_mutated_certificate() {
    let path = std::env::temp_dir().join("cqfd_cli_mutated.cert");
    let path_str = path.to_str().unwrap().to_owned();
    let (ok, _) = cqfd(&["certify", "separate", "--out", &path_str]);
    assert!(ok);
    let text = std::fs::read_to_string(&path).unwrap();
    let mutated: Vec<String> = text
        .lines()
        .map(|l| {
            if l.starts_with("witness ") {
                "witness v0=0 v1=0 v2=0".to_owned()
            } else {
                l.to_owned()
            }
        })
        .collect();
    assert_ne!(mutated.join("\n") + "\n", text, "a witness was forged");
    std::fs::write(&path, mutated.join("\n") + "\n").unwrap();
    let (ok, text) = cqfd(&["check", &path_str]);
    assert!(!ok, "mutated certificate must be rejected, got: {text}");
    assert!(
        text.contains("REJECTED") || text.contains("error"),
        "{text}"
    );
}

/// `cqfd metrics <jobs-file>` runs the jobs and dumps a Prometheus scrape
/// whose families cover the chase, the hom search, and the pool.
#[test]
fn metrics_subcommand_dumps_prometheus_text() {
    let path = std::env::temp_dir().join("cqfd_cli_metrics_jobs.txt");
    std::fs::write(&path, "creep worm=short\ndetermine instance=projection\n").unwrap();
    let (ok, text) = cqfd(&["metrics", path.to_str().unwrap()]);
    assert!(ok, "{text}");
    for family in [
        "# TYPE cqfd_chase_run_seconds histogram",
        "# TYPE cqfd_hom_search_nodes_total counter",
        "# TYPE cqfd_pool_jobs_total counter",
        "cqfd_pool_jobs_total{kind=\"creep\",verdict=\"halted\"} 1",
    ] {
        assert!(text.contains(family), "missing `{family}` in:\n{text}");
    }
}

/// `cqfd profile` without `--connect` drives the Theorem 14 lasso chase
/// (the paper's Fig. 3) under the sampler. Acceptance: the folded stacks
/// name the chase spans, and the attribution report is internally
/// consistent — the top-ranked TGD carries the highest trigger count.
#[test]
fn profile_subcommand_samples_and_attributes_the_lasso_chase() {
    let (ok, text) = cqfd(&["profile", "--seconds", "1", "--hz", "60"]);
    assert!(ok, "{text}");
    assert!(text.contains("# folded stacks"), "{text}");
    assert!(text.contains("chase.stage"), "{text}");
    assert!(text.contains("# cqfd cost attribution"), "{text}");
    assert!(text.contains("totals: stages="), "{text}");

    // Parse the `## rules` section and check the ranking invariant.
    let rules: Vec<u64> = text
        .lines()
        .skip_while(|l| !l.starts_with("## rules"))
        .skip(1)
        .take_while(|l| !l.starts_with("##"))
        .filter_map(|l| {
            l.split_whitespace()
                .find_map(|t| t.strip_prefix("triggers="))
                .map(|v| v.parse().expect("triggers count"))
        })
        .collect();
    assert!(!rules.is_empty(), "no ranked rules in:\n{text}");
    let top = rules[0];
    assert!(
        rules.iter().all(|&t| t <= top),
        "top-ranked TGD does not carry the highest trigger count: {rules:?}"
    );
    assert!(top > 0, "{text}");
}

/// `cqfd profile` and `cqfd flight` validate their arguments.
#[test]
fn profile_and_flight_reject_bad_arguments() {
    let (ok, text) = cqfd(&["profile", "--seconds", "0"]);
    assert!(!ok);
    assert!(text.contains("--seconds"), "{text}");
    let (ok, text) = cqfd(&["profile", "--hz", "9999"]);
    assert!(!ok);
    assert!(text.contains("--hz"), "{text}");
    let (ok, text) = cqfd(&["profile", "--seconds", "soon"]);
    assert!(!ok);
    assert!(text.contains("--seconds `soon` is not a number"), "{text}");
    let (ok, text) = cqfd(&["flight", "--bogus", "1"]);
    assert!(!ok);
    assert!(text.contains("unknown flag"), "{text}");
}

/// `cqfd flight <jobs-file>` runs the jobs and dumps the black-box ring
/// as parseable JSONL trace records.
#[test]
fn flight_subcommand_dumps_jsonl_after_a_local_run() {
    let path = std::env::temp_dir().join("cqfd_cli_flight_jobs.txt");
    std::fs::write(&path, "determine instance=projection\n").unwrap();
    let (ok, text) = cqfd(&["flight", path.to_str().unwrap()]);
    assert!(ok, "{text}");
    let dump: Vec<&str> = text.lines().filter(|l| l.starts_with('{')).collect();
    assert!(!dump.is_empty(), "flight ring empty after a job:\n{text}");
    for line in &dump {
        assert!(line.contains("\"seq\""), "not a trace record: {line}");
        assert!(line.contains("\"type\""), "not a trace record: {line}");
    }
}
