//! Tests of the benchmark's own machinery: tail selection, the digest, the
//! failure accounting, and the transparency of the timing decorators.

use std::path::Path;

use dg_cpu::MemTrace;
use dg_rdag::template::RdagTemplate;
use dg_runner::ExperimentSpec;
use dg_sim::config::SystemConfig;
use dg_system::MemoryKind;
use perfbench::bench::{count, scaled, SWEEP_RETRIES};
use perfbench::host::{host_speed, probed, probed_on, REFERENCE_SLICE_NS};
use perfbench::report::RunOutput;
use perfbench::sim::{run_bare, run_traced, SimJob};
use perfbench::stats::{harrell_davis, median, percentile, report_digest, tail};
use perfbench::workloads::{scale64_config, sweep_batch, Batch, JobRun};

fn smoke_spec() -> ExperimentSpec {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../examples/smoke.toml");
    ExperimentSpec::load(&path).expect("examples/smoke.toml parses")
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
    let values: Vec<f64> = (1..=84).map(f64::from).collect();
    let t = tail(&values, 10).expect("84 samples have a tail");
    assert_eq!((t.percentile, t.n), (88, 84));
    // Rank 74 of 84: exactly ten samples lie above it.
    assert_eq!(t.value, 74.0);
    assert_eq!(values.iter().filter(|&&v| v > t.value).count(), 10);
    // One more percentile would leave fewer than ten beyond.
    let p89 = percentile(&values, 89);
    assert!(values.iter().filter(|&&v| v > p89).count() < 10);

    let t = tail(&(1..=85).map(f64::from).collect::<Vec<_>>(), 10).unwrap();
    assert_eq!((t.percentile, t.value), (88, 75.0));
    let t = tail(&(1..=20).map(f64::from).collect::<Vec<_>>(), 10).unwrap();
    assert_eq!((t.percentile, t.value), (50, 10.0));
    assert!(
        tail(&[1.0; 10], 10).is_none(),
        "ten samples leave none to report"
    );
    // Order of the input does not matter.
    let mut rev: Vec<f64> = (1..=84).rev().map(f64::from).collect();
    assert_eq!(tail(&rev, 10).unwrap().value, 74.0);
    rev.swap(0, 50);
    assert_eq!(tail(&rev, 10).unwrap().value, 74.0);
}

#[test]
fn median_interpolates_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    assert_eq!(median(&[]), 0.0);
}

fn small_trace(ops: u64, base: u64, store_every: u64) -> MemTrace {
    let mut t = MemTrace::new();
    for i in 0..ops {
        let addr = base + i * 64 * 97;
        if i % store_every == store_every - 1 {
            t.store(addr, 2);
        } else {
            t.load(addr, 2);
        }
    }
    t
}

/// Loads thousands of instructions apart: the cores sit idle between
/// them, so the event engine warps and a decorator that failed to forward
/// `next_event_at` would change its counters.
fn sparse_trace(ops: u64, base: u64) -> MemTrace {
    let mut t = MemTrace::new();
    for i in 0..ops {
        t.load(base + i * 64 * 131, 20_000);
    }
    t
}

fn smoke_jobs() -> Vec<SimJob> {
    let traces = vec![small_trace(300, 0, 3), small_trace(300, 1 << 30, 4)];
    let sparse = vec![sparse_trace(20, 0), sparse_trace(20, 1 << 30)];
    let dagguise = MemoryKind::Dagguise {
        protected: vec![Some(RdagTemplate::new(4, 100, 0.01)), None],
    };
    let mut jobs = Vec::new();
    for kind in [
        MemoryKind::Insecure,
        dagguise,
        MemoryKind::FsBta,
        MemoryKind::FixedService,
        MemoryKind::TemporalPartition {
            slots_per_period: 8,
        },
    ] {
        jobs.push(SimJob::new(kind.clone(), traces.clone()));
        jobs.push(SimJob::new(kind, sparse.clone()));
    }
    jobs
}

#[test]
fn digest_ignores_only_the_engine_block() {
    let cfg = SystemConfig::two_core();
    let out = run_bare(&cfg, &smoke_jobs()[0]);
    let mut report = out.report.clone();
    assert_eq!(report_digest(&report), out.digest);
    report.engine.ticks += 1;
    report.engine.warps += 7;
    report.engine.polls.clear();
    assert_eq!(
        report_digest(&report),
        out.digest,
        "engine telemetry is not part of the simulated outcome"
    );
    report.cores[0].instructions += 1;
    assert_ne!(report_digest(&report), out.digest);
    let mut report = out.report.clone();
    report.banks[0].acts += 1;
    assert_ne!(report_digest(&report), out.digest);
}

#[test]
fn decorated_systems_match_bare_ones() {
    let cfg = SystemConfig::two_core();
    for (i, job) in smoke_jobs().into_iter().enumerate() {
        let bare = run_bare(&cfg, &job);
        let traced = run_traced(&cfg, &job);
        if i % 2 == 1 {
            assert!(
                bare.report.engine.warps > 0,
                "{}: the sparse job must warp",
                job.defense
            );
        }
        assert_eq!(bare.failure, None, "{}", job.defense);
        assert_eq!(
            traced.outcome.failure, None,
            "{}: replay must reproduce the system",
            job.defense
        );
        assert_eq!(bare.digest, traced.outcome.digest, "{}", job.defense);
        assert_eq!(
            bare.report.engine, traced.outcome.report.engine,
            "{}: decorators must not change how the engine warps",
            job.defense
        );
        assert!(traced.core.tick.calls > 0 && traced.served > 0);
    }
}

#[test]
fn decorated_multi_channel_system_matches_bare_one() {
    let mut cfg = scale64_config();
    cfg.cores = 8;
    let cores = (0..8u64).map(|c| small_trace(200, c << 30, 5)).collect();
    let job = SimJob::new(MemoryKind::Insecure, cores);
    let bare = run_bare(&cfg, &job);
    let traced = run_traced(&cfg, &job);
    assert_eq!(traced.outcome.failure, None);
    assert_eq!(bare.digest, traced.outcome.digest);
    assert_eq!(bare.report.engine, traced.outcome.report.engine);
    assert!(traced.controller.edge.calls > 0, "every lane is decorated");
}

#[test]
fn forced_deadline_counts_as_a_failure() {
    // examples/smoke.toml shrinks one job's budget far below what it
    // needs; the benchmark must count that job as failed (whether or not
    // a retry rescues it) instead of aborting.
    let spec = smoke_spec();
    assert!(!spec.overrides.is_empty());
    let batch = sweep_batch(&spec, 2, SWEEP_RETRIES, None).expect("sweep runs");
    let mut out = RunOutput::default();
    count(&mut out, &batch);
    assert_eq!(out.attempted, 4);
    assert_eq!(out.failed, 1);
    assert_eq!(out.fail_frac(), 0.25);
    assert!(!out.correct());

    let batch = sweep_batch(&spec, 1, 0, None).expect("sweep runs");
    let mut out = RunOutput::default();
    count(&mut out, &batch);
    assert_eq!(out.failed, 1, "without retries the Deadline is terminal");
}

#[test]
fn traced_sweep_reproduces_execute_job() {
    let mut spec = smoke_spec();
    spec.overrides.clear();
    let bare = sweep_batch(&spec, 2, SWEEP_RETRIES, None).expect("sweep runs");
    let sink = std::sync::Mutex::new(std::collections::BTreeMap::new());
    let traced = sweep_batch(&spec, 2, SWEEP_RETRIES, Some(&sink)).expect("sweep runs");
    assert!(bare.jobs.iter().all(|j| j.failure.is_none()));
    assert!(traced.jobs.iter().all(|j| j.failure.is_none()));
    assert_eq!(
        bare.digest, traced.digest,
        "the decorated sweep must produce the same merged report"
    );
    assert_eq!(sink.into_inner().unwrap().len(), bare.jobs.len());
}

#[test]
fn a_failed_run_level_check_counts_as_a_failure() {
    let mut out = RunOutput::default();
    out.check("holds", true);
    assert_eq!((out.attempted, out.failed), (1, 0));
    out.check("digests differ", false);
    assert_eq!((out.attempted, out.failed), (2, 1));
    assert_eq!(out.fail_frac(), 0.5);
    assert!(!out.correct());
    assert!(out.json_line().contains("\"attempted\": 2, \"failed\": 1"));
}

fn job(cpu_ms: f64) -> JobRun {
    JobRun {
        group: "g".into(),
        defense: "insecure".into(),
        ms: 2.0 * cpu_ms,
        cpu_ms,
        cycles: 100,
        requests: 10,
        victim_ipc: 1.0,
        attempts: 1,
        probe_ns: Vec::new(),
        digest: 0,
        failure: None,
    }
}

#[test]
fn scaled_takes_each_job_at_its_median_cpu_time_over_the_host_speed() {
    let batch = |ms: [f64; 3]| Batch {
        wall_s: 1.0,
        jobs: ms.into_iter().map(job).collect(),
        digest: 7,
    };
    let batches = [
        batch([30.0, 20.0, 50.0]),
        batch([10.0, 40.0, 60.0]),
        batch([20.0, 30.0, 70.0]),
    ];
    // Each job's median CPU time; the wall times (twice as long) are not
    // read.
    assert_eq!(scaled(&batches, 1.0).job_ms(), vec![20.0, 30.0, 60.0]);
    // On a host running at half the reference speed every time halves.
    let b = scaled(&batches, 2.0);
    assert_eq!(b.job_ms(), vec![10.0, 15.0, 30.0]);
    assert_eq!(b.job_cpu_ms(), b.job_ms());
}

#[test]
fn host_speed_is_the_median_probe_slice_over_the_reference() {
    let r = REFERENCE_SLICE_NS;
    assert_eq!(host_speed(&[]), 1.0);
    assert_eq!(host_speed(&[r, 3.0 * r, 2.0 * r]), 2.0);
    // One preempted slice does not move it.
    assert_eq!(host_speed(&[r, r, 40.0 * r]), 1.0);
}

#[test]
fn probed_work_runs_between_probes_on_every_thread() {
    let p = probed(|| 7);
    assert_eq!(p.value, 7);
    assert_eq!(p.probe_ns.len(), 4);
    assert!(p.probe_ns.iter().all(|&ns| ns > 0.0));
    let p = probed_on(2, || {
        std::thread::sleep(std::time::Duration::from_millis(2))
    });
    assert_eq!(p.probe_ns.len(), 8);
    assert!(p.ms >= 2.0);
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[test]
fn probed_work_is_charged_its_cpu_time() {
    // Sleeping takes wall time and next to no CPU time.
    let p = probed(|| std::thread::sleep(std::time::Duration::from_millis(20)));
    assert!(
        p.ms >= 20.0 && p.cpu_ms < 5.0,
        "{} ms wall, {} ms CPU",
        p.ms,
        p.cpu_ms
    );
    // Spinning takes both.
    let p = probed(|| {
        let t0 = std::time::Instant::now();
        while t0.elapsed().as_millis() < 20 {
            std::hint::spin_loop();
        }
    });
    assert!(
        p.cpu_ms > 5.0 && p.cpu_ms <= p.ms * 1.01,
        "{} ms wall, {} ms CPU",
        p.ms,
        p.cpu_ms
    );
    // The process clock counts the threads the work starts, though the
    // calling thread only waits for them.
    let p = probed_on(2, || {
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let t0 = std::time::Instant::now();
                    while t0.elapsed().as_millis() < 20 {
                        std::hint::spin_loop();
                    }
                });
            }
        })
    });
    assert!(p.cpu_ms > 5.0, "{} ms wall, {} ms CPU", p.ms, p.cpu_ms);
}

#[test]
fn harrell_davis_moves_smoothly_across_a_cluster_gap() {
    assert!((harrell_davis(&[5.0; 84], 0.88) - 5.0).abs() < 1e-9);
    let ranks: Vec<f64> = (1..=84).map(f64::from).collect();
    let hd = harrell_davis(&ranks, 0.88);
    assert!((73.5..=75.5).contains(&hd), "{hd}");
    assert!((harrell_davis(&ranks, 0.5) - 42.5).abs() < 1e-6);

    // Ranks 1-74 at 250 ms and 75-84 at 400 ms: p88 (rank 74) sits on
    // the gap. One job crossing it moves the nearest rank by the whole gap
    // and the estimate by a fraction of it.
    let mut ms = vec![250.0; 74];
    ms.extend([400.0; 10]);
    let before = (percentile(&ms, 88), harrell_davis(&ms, 0.88));
    ms[0] = 400.0;
    let after = (percentile(&ms, 88), harrell_davis(&ms, 0.88));
    assert_eq!(after.0 - before.0, 150.0);
    assert!(after.1 - before.1 < 0.3 * 150.0, "{before:?} {after:?}");
}

#[test]
fn json_line_has_the_contract_keys() {
    let mut out = RunOutput::default();
    out.metric("cpu_s", "s", 1.25);
    out.metric("setup_s", "s", 0.5);
    out.attempted = 3;
    let line = out.json_line();
    let v: serde_json::Value = serde_json::from_str(&line).expect("valid JSON");
    let text = format!("{v:?}");
    for key in [
        "correct",
        "attempted",
        "failed",
        "metrics",
        "cpu_s",
        "setup_s",
    ] {
        assert!(text.contains(key), "{key} missing from {line}");
    }
    assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
    out.metric("bad", "s", f64::NAN);
    assert!(out.json_line().starts_with("{\"correct\": false"));
}

#[test]
fn benchmark_json_lists_exactly_the_printed_metrics() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
    let list = |key: &str| -> Vec<(String, String)> {
        doc.as_map()
            .and_then(|m| m.iter().find(|(k, _)| k == key))
            .and_then(|(_, v)| v.as_seq())
            .expect("metric list")
            .iter()
            .map(|m| {
                let m = m.as_map().expect("metric entry");
                let get = |k: &str| {
                    m.iter()
                        .find(|(n, _)| n == k)
                        .and_then(|(_, v)| v.as_str())
                        .expect("name and unit")
                        .to_string()
                };
                (get("name"), get("unit"))
            })
            .collect()
    };
    let e2e: Vec<(String, String)> = perfbench::bench::END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(list("end_to_end"), e2e);
    let layers: Vec<(String, String)> = perfbench::bench::per_layer_names()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(list("per_layer"), layers);
}
