//! Same-seed observability determinism: two identical runs must produce
//! byte-identical event streams and Chrome traces (the property that makes
//! traces diffable across defense variants).

use dg_cpu::MemTrace;
use dg_defenses::IntervalDistribution;
use dg_fault::SimFaultKind;
use dg_obs::{chrome_trace_json, Tracer};
use dg_rdag::template::RdagTemplate;
use dg_sim::config::SystemConfig;
use dg_system::{run_colocation_observed, MemoryKind, ObsConfig, System, SystemBuilder};

fn stream(n: u64, base: u64, gap: u64) -> MemTrace {
    let mut t = MemTrace::new();
    for i in 0..n {
        t.load(base + i * 64 * 131, gap);
    }
    t
}

fn observed_run() -> (Vec<dg_obs::Event>, dg_obs::RunReport) {
    observed_run_with_engine(false)
}

fn observed_run_with_engine(naive_engine: bool) -> (Vec<dg_obs::Event>, dg_obs::RunReport) {
    let cfg = SystemConfig::two_core();
    let obs = ObsConfig {
        trace_capacity: Some(16_384),
        interval_window: Some(5_000),
        shaper_timeline_window: Some(5_000),
        naive_engine,
    };
    let (_, report, events) = run_colocation_observed(
        &cfg,
        vec![stream(200, 0, 30), stream(1000, 1 << 30, 10)],
        MemoryKind::Dagguise {
            protected: vec![Some(RdagTemplate::new(2, 100, 0.01)), None],
        },
        200_000_000,
        "determinism",
        &obs,
    )
    .expect("run finishes");
    (events, report)
}

#[test]
fn same_seed_runs_are_byte_identical() {
    let (events_a, report_a) = observed_run();
    let (events_b, report_b) = observed_run();

    // The simulation is deterministic, so the recorded event streams —
    // including shaper fake-slot decisions — must coincide exactly.
    assert!(!events_a.is_empty(), "the run must record events");
    assert_eq!(events_a.len(), events_b.len());
    let json_a = chrome_trace_json(&events_a);
    let json_b = chrome_trace_json(&events_b);
    assert_eq!(json_a, json_b, "Chrome traces must be byte-identical");

    // The metrics artifact must agree too.
    assert_eq!(report_a.to_json(), report_b.to_json());

    // And the trace must contain the full request lifecycle.
    let names: Vec<&str> = events_a.iter().map(|e| e.kind.name()).collect();
    for expected in ["issue", "txq_enqueue", "ACT", "RD", "response"] {
        assert!(
            names.contains(&expected),
            "trace should contain a {expected} event"
        );
    }
    // A shaped domain emits shaper events as well.
    assert!(
        names.iter().any(|n| n.starts_with("shaper_")),
        "DAGguise run should record shaper events"
    );
}

#[test]
fn telemetry_has_no_observer_effect() {
    // The whole dg-leak layer is read-only: running with every telemetry
    // channel enabled — including the host-time span profiler — must leave
    // the simulation outcome byte-identical to a bare run with the same
    // seed and workload.
    let cfg = SystemConfig::two_core();
    let traces = vec![stream(200, 0, 30), stream(1000, 1 << 30, 10)];
    let kind = MemoryKind::Dagguise {
        protected: vec![Some(RdagTemplate::new(2, 100, 0.01)), None],
    };

    let bare = dg_system::run_colocation(&cfg, traces.clone(), kind.clone(), 200_000_000)
        .expect("bare run finishes");
    let obs = ObsConfig {
        trace_capacity: Some(16_384),
        interval_window: Some(5_000),
        shaper_timeline_window: Some(5_000),
        naive_engine: false,
    };
    dg_prof::start();
    let profiling = dg_prof::is_enabled(); // false when built without `prof`
    let (observed, report, _) =
        run_colocation_observed(&cfg, traces, kind, 200_000_000, "observer", &obs)
            .expect("observed run finishes");
    let profile = dg_prof::stop();

    assert_eq!(bare, observed, "telemetry must not perturb the simulation");
    // …and the instrumentation must actually have been on.
    assert!(
        !report.shaper_timelines.is_empty(),
        "shaper timeline telemetry should be recorded"
    );
    assert!(
        report.interference.is_some(),
        "interference matrix should be recorded"
    );
    if profiling {
        let profile = profile.expect("profiler was started");
        let top = profile.top_self();
        assert!(
            top.iter().any(|(name, _)| name == "sim"),
            "profile should attribute time to the sim phase: {top:?}"
        );
    }
}

/// Every memory path of `examples/defense_sweep.toml`, victim on domain 0.
fn sweep_kinds() -> Vec<MemoryKind> {
    vec![
        MemoryKind::Insecure,
        MemoryKind::Dagguise {
            protected: vec![Some(RdagTemplate::new(2, 100, 0.01)), None],
        },
        MemoryKind::FixedService,
        MemoryKind::FsBta,
        MemoryKind::FsSpatial,
        MemoryKind::TemporalPartition {
            slots_per_period: 4,
        },
        MemoryKind::Camouflage {
            protected: vec![Some(IntervalDistribution::figure2()), None],
        },
    ]
}

/// The observed run's system (tracer, interval sampler, shaper timelines)
/// on `kind`, with `fault` armed, under the chosen engine.
fn observed_system(kind: MemoryKind, fault: Option<SimFaultKind>, naive: bool) -> System {
    let mut sys = SystemBuilder::new(SystemConfig::two_core())
        .trace_core(stream(200, 0, 30))
        .trace_core(stream(1000, 1 << 30, 10))
        .memory(kind)
        .build();
    sys.set_tracer(Tracer::ring(16_384));
    sys.enable_interval_sampling(5_000);
    sys.enable_shaper_timelines(5_000);
    if let Some(f) = fault {
        sys.inject_fault(f);
    }
    sys.set_event_skipping(!naive);
    sys
}

/// Runs `kind` (with `fault` armed) to the victim's finish under both
/// engines and requires byte-identical traces and reports.
fn assert_engines_agree(kind: MemoryKind, fault: Option<SimFaultKind>) {
    let label = kind.label();
    let run = |naive: bool| {
        let mut sys = observed_system(kind.clone(), fault, naive);
        sys.run_until_core_finished(0, 200_000_000)
            .expect("run finishes");
        (sys.tracer().snapshot(), sys.report("determinism"))
    };
    let (events_fast, mut report_fast) = run(false);
    let (events_naive, mut report_naive) = run(true);

    assert!(
        !events_fast.is_empty(),
        "{label}: the run must record events"
    );
    assert_eq!(events_fast.len(), events_naive.len(), "{label}");
    assert_eq!(
        chrome_trace_json(&events_fast),
        chrome_trace_json(&events_naive),
        "{label}: Chrome traces must be byte-identical across engines"
    );
    // The engine-telemetry section describes HOW simulated time was covered
    // (tick vs warp counts), so it legitimately differs between engines.
    // The fast engine must actually have warped, the naive one never.
    assert!(
        report_fast.engine.warps > 0,
        "{label}: fast engine should skip quiescent cycles on this workload"
    );
    assert!(report_fast.engine.skip_efficiency > 0.0, "{label}");
    assert_eq!(report_naive.engine.warps, 0, "{label}");
    assert_eq!(report_naive.engine.skip_efficiency, 0.0, "{label}");
    // Everything else — the simulation outcome — must be byte-identical.
    report_fast.engine = Default::default();
    report_naive.engine = Default::default();
    assert_eq!(
        report_fast.to_json(),
        report_naive.to_json(),
        "{label}: RunReports must be byte-identical across engines (engine section normalized)"
    );
}

#[test]
fn event_skipping_matches_naive_engine_byte_for_byte() {
    // The event-driven engine (cached per-component wake times) must be a
    // pure optimization: the same seeded colocation run under the naive
    // cycle-by-cycle loop and under the fast path must produce
    // byte-identical serialized reports, event streams, and Chrome traces,
    // on every defense of the sweep, so a stale wake in any defense's
    // `next_event_at` fails here.
    // The experiment entry point selects its engine through `ObsConfig`.
    let (events_fast, mut report_fast) = observed_run_with_engine(false);
    let (events_naive, mut report_naive) = observed_run_with_engine(true);
    assert!(!events_fast.is_empty(), "the run must record events");
    assert_eq!(events_fast.len(), events_naive.len());
    assert_eq!(
        chrome_trace_json(&events_fast),
        chrome_trace_json(&events_naive),
        "run_colocation_observed: Chrome traces differ across engines"
    );
    // `ObsConfig::naive_engine` must reach the engine: the fast run warped,
    // the naive one never did.
    assert!(
        report_fast.engine.warps > 0,
        "fast engine should skip quiescent cycles on this workload"
    );
    assert!(report_fast.engine.skip_efficiency > 0.0);
    assert_eq!(report_naive.engine.warps, 0);
    assert_eq!(report_naive.engine.skip_efficiency, 0.0);
    report_fast.engine = Default::default();
    report_naive.engine = Default::default();
    assert_eq!(
        report_fast.to_json(),
        report_naive.to_json(),
        "run_colocation_observed: RunReports differ across engines"
    );
    for kind in sweep_kinds() {
        assert_engines_agree(kind, None);
    }
    // A stuck bank detains responses: neither its activation nor its
    // release may be skipped, and the held responses must not go stale.
    let stuck = SimFaultKind::StuckBank {
        at: 2_000,
        hold: 5_000,
    };
    assert_engines_agree(MemoryKind::Insecure, Some(stuck));
}

#[test]
fn run_for_windows_match_naive_engine() {
    // `run_for` ends at arbitrary cycles, usually between memory events:
    // the event engine must still charge every bus edge up to each window
    // end, as the naive loop does, so stall attribution and statistics
    // agree after every window.
    for kind in sweep_kinds() {
        let label = kind.label();
        let mut fast = observed_system(kind.clone(), None, false);
        let mut naive = observed_system(kind, None, true);
        for window in [7_777, 1, 50_003, 2, 123_457, 300_001] {
            fast.run_for(window);
            naive.run_for(window);
            assert_eq!(fast.now(), naive.now(), "{label}");
            assert_eq!(
                fast.memory().interference(),
                naive.memory().interference(),
                "{label}: interference after the window ending at {}",
                fast.now()
            );
            assert_eq!(
                format!("{:?}", fast.memory().stats()),
                format!("{:?}", naive.memory().stats()),
                "{label}: memory statistics after the window ending at {}",
                fast.now()
            );
        }
        assert!(
            fast.engine_counters().warps > 0,
            "{label}: the fast engine should have warped"
        );
    }
}

#[test]
fn stall_attribution_matches_recorded_values() {
    // The cross-engine tests compare two engines of the same code, so a
    // change to how stall attribution is computed could drift both alike.
    // Pin the observed run's interference block and tFAW stall counters to
    // values recorded from the per-edge attribution the span charge
    // replaced.
    let (_, report) = observed_run();
    let leak = report.interference.expect("interference matrix recorded");
    assert_eq!(leak.total_stall_cycles, 283_686);
    assert_eq!(
        leak.matrix,
        vec![
            vec![7_578, 16_911, 0, 0],
            vec![19_845, 232_818, 0, 0],
            vec![0; 4],
            vec![0; 4],
        ]
    );
    let by_cause: Vec<(&str, u64)> = leak
        .by_cause
        .iter()
        .map(|c| (c.cause.as_str(), c.cycles))
        .collect();
    assert_eq!(
        by_cause,
        [
            ("queue_wait", 118_956),
            ("bank_busy", 121_368),
            ("bus_conflict", 381),
            ("act_window", 36_546),
            ("refresh", 6_435),
        ]
    );
    let faw: Vec<u64> = report.banks.iter().map(|b| b.faw_stall_cycles).collect();
    assert_eq!(
        faw,
        [2_304, 2_610, 1_812, 2_445, 2_328, 2_604, 1_812, 2_508]
    );
}

#[test]
fn interval_samples_cover_the_run() {
    let (_, report) = observed_run();
    assert_eq!(report.interval_window, 5_000);
    assert!(
        !report.intervals.is_empty(),
        "sampling every 5k cycles must produce samples"
    );
    for s in &report.intervals {
        assert_eq!(s.ipc.len(), 2);
        assert_eq!(s.bandwidth_gbps.len(), 2);
    }
}
