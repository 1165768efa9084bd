//! Integration tests for the `cqfd-service` job-server subsystem: a mixed
//! batch with known ground truth, cooperative cancellation under a
//! deadline, queue backpressure, and the `cqfd serve` gateway's graceful
//! shutdown.

use cqfd::gateway::{Gateway, GatewayConfig};
use cqfd::greenred::instances;
use cqfd::rainworm::families::{forever_worm, halting_worm_short};
use cqfd::service::{Job, JobBudget, JobOutcome, Pool, PoolConfig, SubmitError};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn determine_job(inst: instances::Instance, stages: usize) -> (Job, Option<bool>) {
    let truth = inst.determined;
    (
        Job::Determine {
            sig: inst.sig,
            views: inst.views,
            q0: inst.q0,
            budget: JobBudget::default().with_stages(stages),
        },
        truth,
    )
}

/// The ISSUE's acceptance workload: a 20-job mixed batch on a 4-worker
/// pool, verdicts checked against the generators' ground truth.
#[test]
fn mixed_batch_of_20_on_4_workers_matches_ground_truth() {
    let mut jobs = Vec::new();
    let mut truths: Vec<Option<bool>> = Vec::new();
    // 16 determinacy instances with known ground truth…
    for inst in [
        instances::composed_path_instance(1, 2),
        instances::composed_path_instance(2, 2),
        instances::composed_path_instance(2, 3),
        instances::composed_path_instance(3, 2),
        instances::projection_instance(),
        instances::mismatched_path_instance(2, 3),
    ] {
        let (job, truth) = determine_job(inst, 48);
        jobs.push(job);
        truths.push(truth);
    }
    for inst in instances::random_batch(7, 10) {
        let (job, truth) = determine_job(inst, 48);
        jobs.push(job);
        truths.push(truth);
    }
    // …plus non-chase work riding along in the same pool.
    jobs.push(Job::Creep {
        delta: halting_worm_short(),
        budget: JobBudget::default(),
    });
    truths.push(None);
    jobs.push(Job::Creep {
        delta: cqfd::rainworm::families::counter_worm(2),
        budget: JobBudget::default(),
    });
    truths.push(None);
    jobs.push(Job::Rewrite {
        sig: instances::composed_path_instance(2, 2).sig,
        views: instances::composed_path_instance(2, 2).views,
        q0: instances::composed_path_instance(2, 2).q0,
    });
    truths.push(None);
    jobs.push(Job::Separate {
        budget: JobBudget::default().with_stages(80),
    });
    truths.push(None);
    assert_eq!(jobs.len(), 20);

    let pool = Pool::new(PoolConfig::default().with_workers(4));
    assert_eq!(pool.worker_count(), 4);
    let results = pool.run_batch(jobs);
    assert_eq!(results.len(), 20);

    for (r, truth) in results.iter().zip(&truths) {
        match truth {
            Some(true) => assert_eq!(
                r.outcome.verdict(),
                "determined",
                "job {} ({})",
                r.id,
                r.kind
            ),
            Some(false) => assert_ne!(
                r.outcome.verdict(),
                "determined",
                "job {} ({})",
                r.id,
                r.kind
            ),
            None => {}
        }
        assert!(
            !matches!(r.outcome, JobOutcome::Error { .. }),
            "job {} errored: {:?}",
            r.id,
            r.outcome
        );
    }
    // The verdict-bearing results carry real metrics.
    let chased: Vec<_> = results.iter().filter(|r| r.kind == "determine").collect();
    assert!(chased.iter().all(|r| r.metrics.homs > 0));
    assert!(chased.iter().all(|r| r.metrics.peak_atoms > 0));
    // Results come back in submission order with sequential ids.
    let ids: Vec<u64> = results.iter().map(|r| r.id).collect();
    assert_eq!(ids, (1..=20).collect::<Vec<u64>>());
    pool.shutdown();
}

/// A forever worm with a 1-second deadline must be reported as budget
/// exceeded without stalling the pool: jobs queued behind it still finish.
#[test]
fn forever_worm_deadline_does_not_stall_the_pool() {
    let pool = Pool::new(PoolConfig::default().with_workers(1));
    let worm = pool.submit_blocking(Job::Creep {
        delta: forever_worm(),
        budget: JobBudget::default()
            .with_steps(usize::MAX)
            .with_timeout(Duration::from_secs(1)),
    });
    // Queued behind the runaway job on the single worker.
    let behind = pool.submit_blocking(Job::Creep {
        delta: halting_worm_short(),
        budget: JobBudget::default(),
    });
    let started = Instant::now();
    let r = worm.wait();
    assert_eq!(
        r.outcome,
        JobOutcome::BudgetExceeded {
            detail: "deadline".into()
        }
    );
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "deadline enforced promptly"
    );
    assert_eq!(behind.wait().outcome.verdict(), "halted");
    pool.shutdown();
}

/// Explicit cancellation stops a `forever` creep well before any deadline.
#[test]
fn cancellation_stops_a_forever_creep() {
    let pool = Pool::new(PoolConfig::default().with_workers(1));
    let handle = pool.submit_blocking(Job::Creep {
        delta: forever_worm(),
        budget: JobBudget::default().with_steps(usize::MAX),
    });
    std::thread::sleep(Duration::from_millis(100));
    handle.cancel();
    let started = Instant::now();
    let r = handle.wait();
    assert_eq!(
        r.outcome,
        JobOutcome::BudgetExceeded {
            detail: "cancelled".into()
        }
    );
    assert!(started.elapsed() < Duration::from_secs(5));
    pool.shutdown();
}

/// Overflowing the bounded queue reports backpressure instead of
/// panicking or growing without bound.
#[test]
fn queue_overflow_reports_backpressure() {
    let pool = Pool::new(PoolConfig::default().with_workers(1).with_queue_capacity(2));
    let mut handles = Vec::new();
    let mut saw_backpressure = false;
    for _ in 0..100 {
        match pool.submit(Job::Creep {
            delta: halting_worm_short(),
            budget: JobBudget::default(),
        }) {
            Ok(h) => handles.push(h),
            Err(SubmitError::QueueFull) => saw_backpressure = true,
        }
    }
    assert!(saw_backpressure, "100 instant submissions must overflow");
    assert!(!handles.is_empty(), "some submissions must be accepted");
    for h in handles {
        assert_eq!(h.wait().outcome.verdict(), "halted");
    }
    pool.shutdown();
}

/// The TCP server answers concurrent clients and shuts down gracefully,
/// joining the reactor and every pool worker (handle.shutdown()
/// returning proves the joins).
#[test]
fn tcp_server_serves_concurrent_clients_then_shuts_down() {
    let config = GatewayConfig::default().with_pool(PoolConfig::default().with_workers(2));
    let gateway = Gateway::bind(Some("127.0.0.1:0"), None, config).expect("bind 127.0.0.1:0");
    let addr = gateway.line_addr().expect("line listener");
    let handle = gateway.spawn().expect("spawn server");

    let clients: Vec<_> = (0..3)
        .map(|i| {
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect");
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = stream;
                let mut greeting = String::new();
                reader.read_line(&mut greeting).unwrap();
                assert_eq!(greeting.trim(), "cqfd-service v1");
                let line = match i % 3 {
                    0 => "determine instance=path:2x2 stages=48",
                    1 => "determine instance=projection",
                    _ => "creep worm=short",
                };
                writeln!(writer, "{line}").unwrap();
                let mut reply = String::new();
                reader.read_line(&mut reply).unwrap();
                writeln!(writer, "quit").unwrap();
                reply
            })
        })
        .collect();
    let replies: Vec<String> = clients.into_iter().map(|c| c.join().unwrap()).collect();
    assert!(replies[0].contains("verdict=determined"), "{}", replies[0]);
    assert!(
        replies[1].contains("verdict=not-determined"),
        "{}",
        replies[1]
    );
    assert!(replies[2].contains("verdict=halted"), "{}", replies[2]);
    for r in &replies {
        assert!(r.contains("elapsed_ms="), "metrics present: {r}");
    }

    handle.shutdown(); // joins the reactor and the pool's workers
    assert!(
        TcpStream::connect(addr).is_err(),
        "listener closed after shutdown"
    );
}
