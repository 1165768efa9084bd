//! The persistent result store, end to end: canonical job hashing is
//! invariant under rule/view/atom permutation and variable renaming (and
//! sensitive to budget-relevant knobs), cache hits are served only after
//! the trusted checker re-validates the stored certificate, tampered
//! entries fall back to a fresh chase, and a chase killed at *any* stage
//! boundary resumes from its write-ahead log to a byte-identical verdict,
//! stage history, firing log, final structure, and certificate — at 1, 2
//! and 4 threads.

use cqfd::cert::convert;
use cqfd::cert::{firing_line, parse_stage_log, stage_log_prelude_with_meta, stage_mark_line};
use cqfd::chase::{ChaseBudget, ChaseHooks, ChaseRun};
use cqfd::core::{CancelToken, Cq, Signature};
use cqfd::greenred::{instances, DeterminacyOracle};
use cqfd::rainworm::families::{counter_worm, halting_worm_short};
use cqfd::service::{execute_stored, job_key, parse_result_line, Job, JobBudget, JobOutcome};
use cqfd::store::{resume_point, sha256_hex, JobKey, Store};
use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;

/// A fresh, empty store directory under the system temp dir.
fn temp_store(tag: &str) -> (Store, PathBuf) {
    let dir = std::env::temp_dir().join(format!("cqfd-store-suite-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let store = Store::open(&dir).expect("open temp store");
    (store, dir)
}

/// A determine job over an explicit signature (so tests can permute it).
fn determine_job(sig: Signature, views: Vec<Cq>, q0: Cq, budget: JobBudget) -> Job {
    Job::Determine {
        sig,
        views,
        q0,
        budget,
    }
}

/// A determine job over a generated instance family.
fn instance_job(inst: instances::Instance, budget: JobBudget) -> Job {
    determine_job(inst.sig, inst.views, inst.q0, budget)
}

fn run(job: &Job, store: Option<&Store>, lookup: bool) -> cqfd::service::JobResult {
    execute_stored(0, job, &CancelToken::new(), usize::MAX, store, lookup)
}

// ---------------------------------------------------------------- hashing

#[test]
fn permuted_but_equivalent_jobs_hash_identically() {
    let mut sig = Signature::new();
    sig.add_predicate("R", 2);
    sig.add_predicate("S", 2);
    let views = |sig: &Signature, a: &str, b: &str| {
        vec![Cq::parse(sig, a).unwrap(), Cq::parse(sig, b).unwrap()]
    };
    let q0 = |sig: &Signature, s: &str| Cq::parse(sig, s).unwrap();

    let base = determine_job(
        sig.clone(),
        views(&sig, "V1(x,y) :- R(x,y)", "V2(x,z) :- R(x,y), S(y,z)"),
        q0(&sig, "Q0(x,z) :- R(x,y), S(y,z)"),
        JobBudget::default(),
    );
    let key = job_key(&base).expect("determine jobs hash");

    // Same job with the views listed in the other order, the conjuncts of
    // V2 and Q0 swapped, and every variable renamed: same canonical form.
    let permuted = determine_job(
        sig.clone(),
        views(&sig, "V2(p,q) :- S(r,q), R(p,r)", "V1(a,b) :- R(a,b)"),
        q0(&sig, "Q0(m,n) :- S(k,n), R(m,k)"),
        JobBudget::default(),
    );
    assert_eq!(key.hash, job_key(&permuted).unwrap().hash, "permutation");
    assert_eq!(key.text, job_key(&permuted).unwrap().text, "canonical text");

    // Predicate declaration order is also irrelevant.
    let mut sig2 = Signature::new();
    sig2.add_predicate("S", 2);
    sig2.add_predicate("R", 2);
    let redeclared = determine_job(
        sig2.clone(),
        views(&sig2, "V1(x,y) :- R(x,y)", "V2(x,z) :- R(x,y), S(y,z)"),
        q0(&sig2, "Q0(x,z) :- R(x,y), S(y,z)"),
        JobBudget::default(),
    );
    assert_eq!(key.hash, job_key(&redeclared).unwrap().hash, "sig order");

    // A budget-relevant knob changes the hash…
    let deeper = determine_job(
        sig.clone(),
        views(&sig, "V1(x,y) :- R(x,y)", "V2(x,z) :- R(x,y), S(y,z)"),
        q0(&sig, "Q0(x,z) :- R(x,y), S(y,z)"),
        JobBudget::default().with_stages(64),
    );
    assert_ne!(key.hash, job_key(&deeper).unwrap().hash, "stage knob");

    // …while execution-shape knobs (threads, trace, lint, cache, resume)
    // do not: they change how the answer is computed, not what it is.
    let reshaped = determine_job(
        sig,
        views(
            &base_sig(&base),
            "V1(x,y) :- R(x,y)",
            "V2(x,z) :- R(x,y), S(y,z)",
        ),
        q0(&base_sig(&base), "Q0(x,z) :- R(x,y), S(y,z)"),
        JobBudget::default()
            .with_threads(4)
            .with_trace(true)
            .with_lint(true)
            .with_cache(false)
            .with_resume(true),
    );
    assert_eq!(key.hash, job_key(&reshaped).unwrap().hash, "shape knobs");

    // Different queries, different hash.
    let other = instance_job(
        instances::composed_path_instance(2, 3),
        JobBudget::default(),
    );
    assert_ne!(key.hash, job_key(&other).unwrap().hash, "different query");
}

fn base_sig(job: &Job) -> Signature {
    match job {
        Job::Determine { sig, .. } => sig.clone(),
        _ => unreachable!(),
    }
}

// ---------------------------------------------------------------- caching

#[test]
fn second_run_is_a_checker_validated_hit() {
    let (store, dir) = temp_store("hit");
    let job = instance_job(
        instances::composed_path_instance(2, 3),
        JobBudget::default(),
    );

    let cold = run(&job, Some(&store), true);
    assert!(!cold.metrics.cached, "first run computes");
    assert_eq!(store.counters(), (0, 1, 0, 0), "one miss");

    let warm = run(&job, Some(&store), true);
    assert!(warm.metrics.cached, "second run is served from the store");
    assert_eq!(store.counters(), (1, 1, 0, 0), "one hit, one miss");
    assert_eq!(cold.outcome, warm.outcome);

    // Normalized result lines (id/elapsed/cached stripped) are identical.
    let norm = |r: &cqfd::service::JobResult| {
        parse_result_line(&r.to_string()).expect("result line parses back")
    };
    assert_eq!(norm(&cold), norm(&warm));

    // The stored entry carries a certificate even though the job did not
    // ask for one (write-back forces it), but the *reply* stays lean.
    assert!(
        warm.certificate.is_none(),
        "cert not requested, not replied"
    );
    let key = job_key(&job).unwrap();
    let entry = fs::read_to_string(store.entry_path(&key.hash)).unwrap();
    assert!(
        entry.contains("cqfd-cert v1"),
        "entry embeds the certificate"
    );

    let _ = fs::remove_dir_all(dir);
}

#[test]
fn cache_opt_out_always_recomputes() {
    let (store, dir) = temp_store("optout");
    let job = instance_job(
        instances::composed_path_instance(2, 3),
        JobBudget::default().with_cache(false),
    );
    let a = run(&job, Some(&store), true);
    let b = run(&job, Some(&store), true);
    assert!(!a.metrics.cached && !b.metrics.cached);
    assert_eq!(store.counters(), (0, 0, 0, 0), "store never consulted");
    assert!(
        !store.entry_path(&job_key(&job).unwrap().hash).exists(),
        "cache=0 also skips write-back"
    );
    let _ = fs::remove_dir_all(dir);
}

#[test]
fn tampered_entries_are_rejected_and_rechased() {
    let (store, dir) = temp_store("tamper");
    let job = instance_job(
        instances::composed_path_instance(2, 3),
        JobBudget::default(),
    );
    let cold = run(&job, Some(&store), true);
    let key = job_key(&job).unwrap();
    let path = store.entry_path(&key.hash);

    // (a) Flip one byte inside the stored certificate: the entry checksum
    // no longer matches, the lookup rejects, and the job re-chases.
    let pristine = fs::read_to_string(&path).unwrap();
    let idx = pristine
        .find("fire ")
        .expect("chase-trace cert has firings");
    let mut bytes = pristine.clone().into_bytes();
    bytes[idx + 5] ^= 0x01;
    fs::write(&path, &bytes).unwrap();
    let after_flip = run(&job, Some(&store), true);
    assert!(!after_flip.metrics.cached, "tampered entry must not serve");
    assert_eq!(after_flip.outcome, cold.outcome, "fresh chase, same answer");
    let (_, _, rejects, _) = store.counters();
    assert_eq!(rejects, 1, "checksum tamper counted as a reject");

    // The fresh run wrote the entry back; it serves again…
    assert!(run(&job, Some(&store), true).metrics.cached);

    // (b) Now tamper *consistently*: truncate the certificate and forge a
    // matching checksum, so only the cqfd-cert checker itself can object.
    let text = fs::read_to_string(&path).unwrap();
    let mut lines = text.lines();
    let mut head: Vec<String> = Vec::new();
    let mut n = 0usize;
    for l in lines.by_ref() {
        head.push(l.to_string());
        if let Some(v) = l.strip_prefix("cert_lines=") {
            n = v.parse().unwrap();
            break;
        }
    }
    let cert: Vec<&str> = lines.take(n).collect();
    // Drop the certificate's own trailing `end` line: the payload stays
    // plausible but no longer parses as a complete certificate.
    let truncated = cert[..n - 1].join("\n") + "\n";
    let result_line = head
        .iter()
        .find_map(|l| l.strip_prefix("result "))
        .expect("entry has a result line");
    let sum = sha256_hex(format!("{result_line}\n{truncated}").as_bytes());
    let mut forged = String::new();
    for l in &head {
        if l.starts_with("sum sha256=") {
            forged.push_str(&format!("sum sha256={sum}\n"));
        } else if l.starts_with("cert_lines=") {
            forged.push_str(&format!("cert_lines={}\n", n - 1));
        } else {
            forged.push_str(l);
            forged.push('\n');
        }
    }
    forged.push_str(&truncated);
    forged.push_str("end\n");
    fs::write(&path, forged).unwrap();

    let after_forge = run(&job, Some(&store), true);
    assert!(!after_forge.metrics.cached, "forged cert must not serve");
    assert_eq!(after_forge.outcome, cold.outcome);
    let (_, _, rejects, _) = store.counters();
    assert_eq!(rejects, 2, "checker/parse rejection counted");

    // `store verify` sees a healthy store again (the re-chase repaired it),
    // and `gc` on a corrupted entry removes it.
    assert!(store.verify().unwrap().is_empty());
    fs::write(&path, "cqfd-store v1\ngarbage\n").unwrap();
    assert_eq!(store.verify().unwrap().len(), 1);
    let report = store.gc().unwrap();
    assert_eq!(report.removed_entries, 1);
    assert!(!path.exists());

    let _ = fs::remove_dir_all(dir);
}

/// Rewrites the entry at `path` to carry `cert_text` under its own result
/// line, with a matching checksum: only the checker or the outcome gate
/// can object to it.
fn swap_certificate(path: &std::path::Path, cert_text: &str) {
    let text = fs::read_to_string(path).unwrap();
    let header: Vec<&str> = text.lines().take(5).collect();
    let result_line = header[4].strip_prefix("result ").expect("result line");
    let sum = sha256_hex(format!("{result_line}\n{cert_text}").as_bytes());
    let forged = format!(
        "{}\n{}\n{}\nsum sha256={sum}\nresult {result_line}\ncert_lines={}\n{cert_text}end\n",
        header[0],
        header[1],
        header[2],
        cert_text.lines().count()
    );
    fs::write(path, forged).unwrap();
}

/// The certificate text stored in the entry at `path`.
fn stored_certificate(path: &std::path::Path) -> String {
    let text = fs::read_to_string(path).unwrap();
    let mut lines = text.lines().skip(5);
    let n: usize = lines
        .next()
        .and_then(|l| l.strip_prefix("cert_lines="))
        .and_then(|n| n.parse().ok())
        .expect("cert_lines header");
    lines.take(n).map(|l| format!("{l}\n")).collect()
}

#[test]
fn a_valid_but_unrelated_certificate_fails_the_outcome_gate() {
    let (store, dir) = temp_store("gate");
    let determined = instance_job(
        instances::composed_path_instance(2, 3),
        JobBudget::default(),
    );
    let refuted = instance_job(instances::projection_instance(), JobBudget::default());
    let cold = run(&determined, Some(&store), true);
    assert_eq!(cold.outcome.verdict(), "determined");
    assert_eq!(
        run(&refuted, Some(&store), true).outcome.verdict(),
        "not-determined"
    );

    // The `determined` entry now carries the counter-model of the other
    // job: the checker accepts that finite-model certificate, but a
    // `determined` verdict needs a chase trace, so the gate refuses it.
    let path = store.entry_path(&job_key(&determined).unwrap().hash);
    let other = stored_certificate(&store.entry_path(&job_key(&refuted).unwrap().hash));
    swap_certificate(&path, &other);
    assert!(store.verify().unwrap().is_empty(), "the checker passes it");
    let served = run(&determined, Some(&store), true);
    assert!(
        !served.metrics.cached,
        "an unrelated certificate must not serve"
    );
    assert_eq!(served.outcome, cold.outcome, "fresh chase, same answer");
    let (hits, _, rejects, _) = store.counters();
    assert_eq!((hits, rejects), (0, 1), "counted as a gate reject");
    assert!(
        run(&determined, Some(&store), true).metrics.cached,
        "re-chase repaired it"
    );

    // A creep trace of another halting worm is a valid certificate of the
    // right kind, but the checker replays a different number of steps
    // than the stored verdict claims.
    let creep = |delta| Job::Creep {
        delta,
        budget: JobBudget::default(),
    };
    let short = creep(halting_worm_short());
    let counter = creep(counter_worm(2));
    let short_cold = run(&short, Some(&store), true);
    run(&counter, Some(&store), true);
    let path = store.entry_path(&job_key(&short).unwrap().hash);
    swap_certificate(
        &path,
        &stored_certificate(&store.entry_path(&job_key(&counter).unwrap().hash)),
    );
    let served = run(&short, Some(&store), true);
    assert!(
        !served.metrics.cached,
        "a step-count mismatch must not serve"
    );
    assert_eq!(served.outcome, short_cold.outcome);
    assert_eq!(store.counters().2, 2, "second gate reject");
    let _ = fs::remove_dir_all(dir);
}

// ---------------------------------------------------------------- resume

/// The write-ahead log a run killed after `k` committed stages would
/// leave on disk: the prelude plus the first `k` stages' firings/marks of
/// the (recorded) uninterrupted run.
fn killed_log_text(
    oracle: &DeterminacyOracle,
    views: &[Cq],
    q0: &Cq,
    full: &ChaseRun,
    k: usize,
) -> String {
    let (engine, start, _) = oracle.chase_setup(views, q0);
    let sig = convert::sig_spec(start.signature());
    let rules: Vec<_> = engine.tgds().iter().map(convert::rule_spec).collect();
    // Stamp the dispatch mode the executor runs under by default: the
    // resume guard refuses logs written under a different mode.
    let mut text = stage_log_prelude_with_meta(
        &sig,
        &rules,
        &convert::struct_spec(&start),
        &[("dispatch", "auto")],
    );
    for (i, info) in full.stages.iter().take(k).enumerate() {
        let stage = i + 1;
        for f in full.firings.iter().filter(|f| f.stage == stage) {
            text.push_str(&firing_line(&convert::firing_spec(f)));
        }
        text.push_str(&stage_mark_line(
            stage,
            info.applications,
            info.atoms_after,
            info.nodes_after,
        ));
    }
    text
}

/// Byte-level equality of everything the issue demands: structures,
/// stage history, firing log, verdict, certificate.
fn assert_resume_identical(full: &ChaseRun, resumed: &ChaseRun, what: &str) {
    assert_eq!(
        full.structure.atoms(),
        resumed.structure.atoms(),
        "{what}: atoms"
    );
    assert_eq!(
        full.structure.node_count(),
        resumed.structure.node_count(),
        "{what}: nodes"
    );
    assert_eq!(full.stages, resumed.stages, "{what}: stage history");
    assert_eq!(full.firings, resumed.firings, "{what}: firing log");
    assert_eq!(full.outcome, resumed.outcome, "{what}: outcome");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Kill the oracle chase at a random stage boundary, rebuild the
    /// resume point from the recovered log, and finish the run: the
    /// verdict, stage history, firing log, final structure and
    /// certificate are byte-identical to the uninterrupted run's, at
    /// every thread count.
    #[test]
    fn resumed_runs_are_byte_identical(
        k in 0usize..8,
        threads_ix in 0usize..3,
        determined in any::<bool>(),
    ) {
        let threads = [1usize, 2, 4][threads_ix];
        let inst = if determined {
            instances::composed_path_instance(2, 3)
        } else {
            instances::mismatched_path_instance(2, 3)
        };
        let oracle = DeterminacyOracle::new(inst.sig.clone());
        let budget = ChaseBudget::stages(32).with_threads(threads);
        let full = oracle.certify_run(&inst.views, &inst.q0, &budget);
        prop_assert!(full.run.stage_count() >= 1);

        // The checkpoint hook never commits the concluding stage, so a
        // real crash leaves at most stage_count-1 stages in the log.
        let k = k.min(full.run.stage_count() - 1);
        let text = killed_log_text(&oracle, &inst.views, &inst.q0, &full.run, k);
        let log = parse_stage_log(&text).expect("manufactured log parses");
        prop_assert_eq!(log.stages.len(), k);

        let (engine, start, _) = oracle.chase_setup(&inst.views, &inst.q0);
        let rp = resume_point(&engine, &start, &log).expect("log matches the job");
        let resumed = oracle.certify_run_with(
            &inst.views,
            &inst.q0,
            &budget,
            ChaseHooks { resume: Some(rp), checkpoint: None },
        );

        prop_assert_eq!(&full.verdict, &resumed.verdict);
        assert_resume_identical(
            &full.run,
            &resumed.run,
            &format!("{} k={k} @{threads}t", inst.name),
        );
        prop_assert_eq!(
            cqfd::cert::encode(&full.certificate),
            cqfd::cert::encode(&resumed.certificate),
            "certificate bytes"
        );

        // A torn tail (the crash landed mid-append, after at least one
        // committed stage) resumes from the last complete stage mark
        // instead of failing.
        if k >= 1 {
            let torn = &text[..text.len() - 3];
            let log = parse_stage_log(torn).expect("torn log still parses");
            prop_assert!(log.stages.len() < k);
            let rp = resume_point(&engine, &start, &log).expect("torn log resumes");
            let retorn = oracle.certify_run_with(
                &inst.views,
                &inst.q0,
                &budget,
                ChaseHooks { resume: Some(rp), checkpoint: None },
            );
            prop_assert_eq!(&full.verdict, &retorn.verdict);
            prop_assert_eq!(
                cqfd::cert::encode(&full.certificate),
                cqfd::cert::encode(&retorn.certificate),
                "torn-tail certificate bytes"
            );
        }
    }
}

/// The executor-level crash/restart loop: a cancelled run leaves its
/// stage log behind, a restarted run resumes from it (counted in
/// `cqfd_store_resumes_total`) and concludes byte-identically, and the
/// conclusive run cleans the log up.
#[test]
fn executor_resumes_from_stage_log_after_cancellation() {
    let (store, dir) = temp_store("resume");
    let budget = JobBudget::default()
        .with_certificate(true)
        .with_resume(true);
    let job = instance_job(instances::mismatched_path_instance(2, 3), budget.clone());
    let key = job_key(&job).unwrap();
    let log_path = store.log_path(&key.hash);

    // Uninterrupted baseline (no store in play).
    let baseline = run(&job, None, false);
    assert!(matches!(baseline.outcome, JobOutcome::NotDetermined { .. }));

    // "Crash" 1: an already-expired deadline cancels the chase at the
    // first stage boundary. The log survives (prelude plus whatever
    // stages committed) because the run was not conclusive. The timeout
    // is not part of the canonical hash, so the log lands under the same
    // key the real job will resume from.
    let doomed = instance_job(
        instances::mismatched_path_instance(2, 3),
        budget.clone().with_timeout(std::time::Duration::ZERO),
    );
    assert_eq!(job_key(&doomed).unwrap().hash, key.hash, "timeout unhashed");
    let aborted = run(&doomed, Some(&store), false);
    assert!(
        matches!(aborted.outcome, JobOutcome::BudgetExceeded { .. }),
        "{:?}",
        aborted.outcome
    );
    assert!(log_path.exists(), "cancelled run keeps its write-ahead log");

    // "Crash" 2: deepen the log to look like a kill after two stages, by
    // replaying the baseline's committed prefix into it.
    let inst = instances::mismatched_path_instance(2, 3);
    let oracle = DeterminacyOracle::new(inst.sig.clone());
    let full = oracle.certify_run(&inst.views, &inst.q0, &ChaseBudget::stages(32));
    let k = 2.min(full.run.stage_count() - 1);
    fs::write(
        &log_path,
        killed_log_text(&oracle, &inst.views, &inst.q0, &full.run, k),
    )
    .unwrap();

    // Restart: the executor recovers the log, resumes, and concludes.
    let resumed = run(&job, Some(&store), false);
    assert_eq!(resumed.outcome, baseline.outcome, "same verdict");
    assert_eq!(
        resumed.certificate, baseline.certificate,
        "byte-identical certificate after resume"
    );
    let (_, _, _, resumes) = store.counters();
    assert_eq!(resumes, 1, "resume counted");
    assert!(!log_path.exists(), "conclusive run removes the stage log");

    // The concluded result was also written back: next run is a pure hit.
    let warm = run(&job, Some(&store), true);
    assert!(warm.metrics.cached);
    assert_eq!(warm.outcome, baseline.outcome);
    assert_eq!(warm.certificate, baseline.certificate);

    let _ = fs::remove_dir_all(dir);
}

/// Dispatch tamper regression: a stage log stamped with a *different*
/// dispatch mode (or none at all — a pre-dispatch log) is refused on
/// resume. Auto and semi runs of the same job may take different routes,
/// so splicing one mode's write-ahead log into the other would let a
/// stale prefix contaminate a differently-routed run. The executor
/// discards the log, restarts from scratch, and still concludes with the
/// baseline verdict.
#[test]
fn resume_refuses_stage_log_from_a_different_dispatch_mode() {
    let inst = instances::mismatched_path_instance(2, 3);
    let oracle = DeterminacyOracle::new(inst.sig.clone());
    let full = oracle.certify_run(&inst.views, &inst.q0, &ChaseBudget::stages(32));
    let k = 2.min(full.run.stage_count() - 1);
    let good = killed_log_text(&oracle, &inst.views, &inst.q0, &full.run, k);
    assert!(good.contains("\nmeta dispatch=auto\n"), "meta line present");
    assert_eq!(
        parse_stage_log(&good).unwrap().meta,
        vec![("dispatch".to_string(), "auto".to_string())],
        "meta round-trips through the parser"
    );

    let budget = JobBudget::default()
        .with_certificate(true)
        .with_resume(true);
    let job = instance_job(instances::mismatched_path_instance(2, 3), budget);
    let baseline = run(&job, None, false);

    let tampered = good.replace("meta dispatch=auto", "meta dispatch=semi");
    let stripped = good.replace("meta dispatch=auto\n", "");
    for (what, text) in [("wrong mode", tampered), ("missing meta", stripped)] {
        let (store, dir) = temp_store(&format!("refuse-{}", what.len()));
        let key = job_key(&job).unwrap();
        fs::write(store.log_path(&key.hash), &text).unwrap();

        let r = run(&job, Some(&store), false);
        assert_eq!(r.outcome, baseline.outcome, "{what}: fresh run concludes");
        assert_eq!(r.certificate, baseline.certificate, "{what}: same cert");
        let (_, _, _, resumes) = store.counters();
        assert_eq!(resumes, 0, "{what}: the foreign log was not resumed");

        let _ = fs::remove_dir_all(dir);
    }

    // Control: the unmolested log *is* resumed (mode matches).
    let (store, dir) = temp_store("refuse-control");
    let key = job_key(&job).unwrap();
    fs::write(store.log_path(&key.hash), &good).unwrap();
    let r = run(&job, Some(&store), false);
    assert_eq!(r.outcome, baseline.outcome);
    let (_, _, _, resumes) = store.counters();
    assert_eq!(resumes, 1, "control: matching mode resumes");
    let _ = fs::remove_dir_all(dir);
}

/// A stage log for a *different* job (same hash bucket never happens in
/// practice, but a copied/renamed file can) is ignored, not replayed.
#[test]
fn mismatched_stage_log_is_ignored() {
    let (store, dir) = temp_store("mismatch-log");
    let budget = JobBudget::default().with_resume(true);
    let job = instance_job(instances::mismatched_path_instance(2, 3), budget.clone());
    let key = job_key(&job).unwrap();

    // Write a log recorded for a different instance under this job's key.
    let other = instances::composed_path_instance(2, 3);
    let oracle = DeterminacyOracle::new(other.sig.clone());
    let full = oracle.certify_run(&other.views, &other.q0, &ChaseBudget::stages(32));
    let text = killed_log_text(&oracle, &other.views, &other.q0, &full.run, 1);
    fs::create_dir_all(store.log_path(&key.hash).parent().unwrap()).unwrap();
    fs::write(store.log_path(&key.hash), text).unwrap();

    let result = run(&job, Some(&store), false);
    assert!(matches!(result.outcome, JobOutcome::NotDetermined { .. }));
    let (_, _, _, resumes) = store.counters();
    assert_eq!(resumes, 0, "foreign log must not be resumed from");
    let _ = fs::remove_dir_all(dir);
}

// --------------------------------------------------------------- eviction

/// A syntactically valid 64-hex key that no real job hashes to.
fn fake_key(i: usize) -> JobKey {
    JobKey {
        hash: format!("{i:02x}{}", "0".repeat(62)),
        text: String::new(),
    }
}

#[test]
fn evict_to_drops_least_recently_hit_entries_first() {
    let (store, dir) = temp_store("evict");
    let now = std::time::SystemTime::now();
    for i in 0..4 {
        let key = fake_key(i);
        store
            .insert(&key, "determine", "job=0 kind=determine verdict=halted", "")
            .unwrap();
        // Backdate: entry 0 is the coldest, entry 3 the most recently hit.
        let age = std::time::Duration::from_secs((4 - i as u64) * 3600);
        fs::File::open(store.entry_path(&key.hash))
            .unwrap()
            .set_modified(now - age)
            .unwrap();
    }
    let total = store.stat().unwrap().entry_bytes;
    let per_entry = total / 4; // all four entries are byte-identical in size

    // A budget for two entries evicts exactly the two coldest.
    let report = store.evict_to(per_entry * 2).unwrap();
    assert_eq!(report.evicted_entries, 2);
    assert_eq!(report.retained_bytes, total - report.evicted_bytes);
    assert!(report.retained_bytes <= per_entry * 2);
    assert!(!store.entry_path(&fake_key(0).hash).exists());
    assert!(!store.entry_path(&fake_key(1).hash).exists());
    assert!(store.entry_path(&fake_key(2).hash).exists());
    assert!(store.entry_path(&fake_key(3).hash).exists());

    // A zero budget clears the cache entirely.
    let report = store.evict_to(0).unwrap();
    assert_eq!(report.evicted_entries, 2);
    assert_eq!(report.retained_bytes, 0);
    assert_eq!(store.stat().unwrap().entries, 0);

    // An ample budget is a no-op on an empty (or fitting) store.
    assert_eq!(store.evict_to(u64::MAX).unwrap().evicted_entries, 0);
    let _ = fs::remove_dir_all(dir);
}

#[test]
fn cache_hits_refresh_eviction_recency() {
    let (store, dir) = temp_store("touch");
    let job = instance_job(
        instances::composed_path_instance(2, 3),
        JobBudget::default(),
    );
    run(&job, Some(&store), true); // populate
    let path = store.entry_path(&job_key(&job).unwrap().hash);
    let old = std::time::SystemTime::now() - std::time::Duration::from_secs(86_400);
    fs::File::open(&path).unwrap().set_modified(old).unwrap();

    let warm = run(&job, Some(&store), true);
    assert!(warm.metrics.cached, "second run must hit");
    let refreshed = fs::metadata(&path).unwrap().modified().unwrap();
    assert!(
        refreshed > old + std::time::Duration::from_secs(3600),
        "a confirmed hit must refresh the entry mtime so LRU eviction \
         sees it as recently used"
    );
    let _ = fs::remove_dir_all(dir);
}
