//! One invocation: parse the arguments, run the workload untraced (the
//! end-to-end metrics) or traced (the per-layer metrics), and check its
//! outputs.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use dg_runner::{job_seed, JobCtx};
use dg_sim::config::SystemConfig;

use crate::host::{host_speed, nproc, peak_rss_mib, probed, steal_ticks, REFERENCE_SLICE_NS};
use crate::report::RunOutput;
use crate::sim::{build, Outcome, SimJob, Traced};
use crate::stats::median;
use crate::workloads::{
    scale64_batch, scale64_seeds, scale64_sharded, scale64_system, scale64_traces,
    scale64_twin_batch, scale64_twin_traced, sweep_batch, sweep_inputs, sweep_memory_kind,
    sweep_spec, timed_batches, Batch, SweepTrace, SCALE64_SHARDS, WORKLOADS,
};

/// Extra attempts the sweep grants a job that hits a Deadline (the
/// runner's default). A retried job still counts as failed.
pub const SWEEP_RETRIES: u32 = 2;

/// Set-ups before the first batch, and again after every batch.
const SETUP_REPS: usize = 5;

/// The paper's two-core DAGguise figure: about a 10% victim slowdown.
const PAPER_TWO_CORE_NORM_IPC: f64 = 0.90;

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Time budget of the measured phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

/// Parses `--workload W --seed N --seconds S --trace 0|1`.
///
/// # Errors
///
/// A missing, unknown or malformed argument.
pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!(
                        "unknown workload `{value}` (expected one of {})",
                        WORKLOADS.join(", ")
                    ));
                }
                workload = Some(value.clone());
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Runs one invocation from repository root `root`.
///
/// # Errors
///
/// The workload's inputs could not be read or its runner failed to start.
pub fn run(args: &Args, root: &Path) -> Result<RunOutput, String> {
    let mut out = RunOutput::default();
    match (args.workload.as_str(), args.trace) {
        ("sweep", false) => sweep_e2e(args, root, &mut out)?,
        ("sweep", true) => sweep_traced(args, root, &mut out)?,
        ("scale64_sharded", false) => scale64_e2e(args, &mut out)?,
        ("scale64_sharded", true) => scale64_traced(args, &mut out),
        (w, _) => return Err(format!("unknown workload `{w}`")),
    }
    Ok(out)
}

/// Two worker threads at most, fewer on a smaller host.
fn workers() -> usize {
    nproc().min(2)
}

/// What the timed phase of an untraced run measured.
pub struct Measured {
    /// CPU times (s) of the set-ups.
    pub setup_s: Vec<f64>,
    /// Probe slice times (ns) taken around the set-ups.
    pub setup_probe_ns: Vec<f64>,
    /// The batches, in the order they ran.
    pub batches: Vec<Batch>,
    /// Share of this machine's CPU time taken by the hypervisor for other
    /// guests during the timed phase, where the kernel reports it.
    pub steal: Option<f64>,
}

/// Sets the workload up and runs its batches on the first set-up's
/// result until `seconds` is used up (see [`timed_batches`]). It sets the
/// workload up [`SETUP_REPS`] times before the first batch and again after
/// every batch, so the set-up times sample the whole run rather than its
/// first instant. Each set-up runs between two probes, as every job does.
fn measure<T, E>(
    seconds: f64,
    mut setup: impl FnMut() -> Result<T, E>,
    mut batch: impl FnMut(&T) -> Result<Batch, E>,
) -> Result<Measured, E> {
    let mut setup_s = Vec::new();
    let mut setup_probe_ns = Vec::new();
    let mut reps = |setup_s: &mut Vec<f64>, probe_ns: &mut Vec<f64>| -> Result<T, E> {
        let mut first = None;
        for _ in 0..SETUP_REPS {
            let p = probed(&mut setup);
            setup_s.push(p.cpu_ms / 1e3);
            probe_ns.extend(p.probe_ns);
            first.get_or_insert(p.value?);
        }
        Ok(first.expect("at least one set-up"))
    };
    let steal0 = steal_ticks();
    let input = reps(&mut setup_s, &mut setup_probe_ns)?;
    let batches = timed_batches(seconds, || {
        let b = batch(&input)?;
        reps(&mut setup_s, &mut setup_probe_ns)?;
        Ok(b)
    })?;
    let steal = match (steal0, steal_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => Some((s1 - s0) as f64 / (t1 - t0) as f64),
        _ => None,
    };
    Ok(Measured {
        setup_s,
        setup_probe_ns,
        batches,
        steal,
    })
}

/// The end-to-end metrics every untraced run prints, in order, with units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("ns_per_cycle", "ns"),
    ("ns_per_request", "ns"),
    ("peak_rss_mb", "MiB"),
    ("job_ms_p50", "ms"),
    ("job_ms_p88", "ms"),
];

/// How much more than the probe the simulator slows down on a busy host,
/// in log terms: a run whose probe slices took `s` times as long as on the
/// reference host ran the simulator about `s^SENSITIVITY` times as slowly.
/// Sets of five or six runs on the reference host fitted slopes of 1.0 to
/// 2.6, most near 1.5 to 2. With 1.5 the run-to-run spread of the noisiest
/// sets fell by half or more, and no set's spread rose by more than about
/// 0.01.
pub const SENSITIVITY: f64 = 1.5;

/// The batch the host-time metrics describe: each job at the median of
/// its CPU times over the batches (every batch runs the same jobs in the
/// same order) divided by `slowdown`, the run's host speed raised to
/// [`SENSITIVITY`].
pub fn scaled(batches: &[Batch], slowdown: f64) -> Batch {
    let mut b = batches[0].clone();
    for (i, j) in b.jobs.iter_mut().enumerate() {
        let ms: Vec<f64> = batches.iter().map(|b| b.jobs[i].cpu_ms).collect();
        j.ms = median(&ms) / slowdown;
        j.cpu_ms = j.ms;
    }
    b
}

/// Records the end-to-end metrics of a timed phase, counts its jobs and
/// failures, and checks that every batch simulated the same thing.
///
/// Every host time is CPU time scaled to the reference host's speed. A
/// shared host slows down by up to 2× in episodes that last from seconds
/// to minutes, longer than a whole run, so run-to-run medians of raw wall
/// times spread by a quarter and more. CPU time leaves out the time the
/// hypervisor gives the CPUs to other guests. For the rest, each job and
/// set-up runs between two probes of a fixed kernel of the benchmark's own
/// (see [`crate::host::probed`]); the median of a run's probe slices says
/// how much slower than on the reference host it ran, and every time is
/// divided by that slowdown raised to [`SENSITIVITY`]. The probe's own
/// timing noise averages out over the thousands of slices in a run. The
/// raw figures are printed as notes.
fn e2e(out: &mut RunOutput, m: &Measured) {
    let batches = &m.batches;
    let first = &batches[0];
    let probes: Vec<f64> = batches
        .iter()
        .flat_map(Batch::probe_ns)
        .chain(m.setup_probe_ns.iter().copied())
        .collect();
    let speed = host_speed(&probes);
    let slowdown = speed.powf(SENSITIVITY);
    let typical = scaled(batches, slowdown);
    let cpu_s = typical.job_ms().iter().sum::<f64>() / 1e3;
    let values = [
        median(&m.setup_s) / slowdown,
        cpu_s,
        cpu_s * 1e9 / first.cycles().max(1) as f64,
        cpu_s * 1e9 / first.requests().max(1) as f64,
        peak_rss_mib().unwrap_or(f64::NAN),
        typical.job_p50(),
        typical.job_tail().1,
    ];
    for ((name, unit), v) in END_TO_END.into_iter().zip(values) {
        out.metric(name, unit, v);
    }
    for b in batches {
        count(out, b);
    }
    out.note(format!(
        "batches: {} of {} jobs; job_ms_p88 is p{} at n = {} jobs, each at the median \
         of its {} CPU times; measured batch walls (s): {}",
        batches.len(),
        first.jobs.len(),
        first.job_tail().0,
        first.jobs.len(),
        batches.len(),
        batches
            .iter()
            .map(|b| format!("{:.3}", b.wall_s))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    out.note(format!(
        "host speed {speed:.4} over {} probe slices (1 = reference host, {:.0} µs a slice); \
         raw: setup_s {:.6} s, cpu_s {:.4} s, job_ms_p50 {:.3} ms, job_ms_p88 {:.3} ms",
        probes.len(),
        REFERENCE_SLICE_NS / 1e3,
        median(&m.setup_s),
        cpu_s * slowdown,
        typical.job_p50() * slowdown,
        typical.job_tail().1 * slowdown,
    ));
    let wall_jobs: Vec<f64> = (0..first.jobs.len())
        .map(|i| median(&batches.iter().map(|b| b.jobs[i].ms).collect::<Vec<_>>()))
        .collect();
    out.note(format!(
        "wall clock: Σ median job wall time {:.4} s; steal {}",
        wall_jobs.iter().sum::<f64>() / 1e3,
        m.steal.map_or("unknown".to_string(), |s| format!(
            "{:.1}% of CPU time",
            100.0 * s
        ))
    ));
    out.note(format!(
        "simulated: {} cycles, {} DRAM requests per batch",
        first.cycles(),
        first.requests()
    ));
    out.check(
        format!(
            "simulated digest {:016x} identical in every batch",
            first.digest
        ),
        batches.iter().all(|b| b.digest == first.digest),
    );
    if let Some(ipc) = first.dagguise_norm_ipc() {
        out.note(format!(
            "dagguise_norm_ipc: {ipc:.4} ratio (simulated, exact)"
        ));
    }
}

/// Adds a batch's jobs and failures to the run's counts.
pub fn count(out: &mut RunOutput, b: &Batch) {
    out.attempted += b.jobs.len() as u64;
    for j in &b.jobs {
        if let Some(f) = &j.failure {
            out.failed += 1;
            if out.failed <= 5 {
                out.note(format!("failed job ({}): {f}", j.defense));
            }
        }
    }
}

fn sweep_setup(root: &Path, seed: u64) -> Result<dg_runner::ExperimentSpec, String> {
    let spec = sweep_spec(root, seed)?;
    let jobs = spec.expand();
    let job = jobs.first().ok_or("the sweep expands to no jobs")?;
    let ctx = JobCtx {
        seed: job_seed(&job.id),
        attempt: 0,
        escalation: 2,
        deadline: None,
        monitor: None,
    };
    let (victim, corunner) = sweep_inputs(job, &ctx);
    let kind = sweep_memory_kind(&job.defense, job.victim).ok_or("unknown defense")?;
    let sim = SimJob::new(kind, vec![victim, corunner]);
    drop(build(&SystemConfig::two_core(), &sim));
    Ok(spec)
}

fn sweep_e2e(args: &Args, root: &Path, out: &mut RunOutput) -> Result<(), String> {
    let m = measure(
        args.seconds,
        || sweep_setup(root, args.seed),
        |spec| sweep_batch(spec, workers(), SWEEP_RETRIES, None),
    )?;
    e2e(out, &m);
    if let Some(ipc) = m.batches[0].dagguise_norm_ipc() {
        let err = ipc - PAPER_TWO_CORE_NORM_IPC;
        out.note(format!(
            "paper two-core DAGguise normalized IPC ≈ {PAPER_TWO_CORE_NORM_IPC:.2} \
             (≈10% slowdown, different co-runner mix); here {ipc:.4}, error {err:+.4} \
             ({:+.1}%)",
            100.0 * err / PAPER_TWO_CORE_NORM_IPC
        ));
        out.note(
            "the model is calibrated to normalized-IPC shape only (DESIGN.md \
             \"Substitutions\") and caps DocDist memory-level parallelism at the ROB \
             (EXPERIMENTS.md), so the absolute figure is not expected to match",
        );
    }
    Ok(())
}

fn sweep_traced(args: &Args, root: &Path, out: &mut RunOutput) -> Result<(), String> {
    let spec = sweep_setup(root, args.seed)?;
    let w = workers();
    let bare = sweep_batch(&spec, w, SWEEP_RETRIES, None)?;
    let sink = Mutex::new(BTreeMap::new());
    let traced = sweep_batch(&spec, w, SWEEP_RETRIES, Some(&sink))?;
    let traces: BTreeMap<String, SweepTrace> = sink.into_inner().expect("trace sink");
    count(out, &bare);
    count(out, &traced);
    out.check(
        format!(
            "traced sweep report digest {:016x} equals the untraced {:016x}",
            traced.digest, bare.digest
        ),
        traced.digest == bare.digest,
    );
    out.check(
        "replayed memory paths reproduce every job's memory statistics",
        traces.values().all(|t| t.traced.outcome.failure.is_none()),
    );
    let mut layers = Layers::default();
    layers.runner(&bare, w);
    layers.set("workloads.gen_ms", traces.values().map(|t| t.gen_ms).sum());
    layers.set(
        "workloads.trace_ops",
        traces.values().map(|t| t.trace_ops as f64).sum(),
    );
    let runs: Vec<&Traced> = traces.values().map(|t| &t.traced).collect();
    layers.sim(&runs);
    let traced_ms: f64 = traces
        .values()
        .map(|t| t.gen_ms + t.traced.outcome.host_ms)
        .sum();
    layers.overhead(traced_ms, bare.job_ms().iter().sum());
    layers.emit(out);
    Ok(())
}

/// Checks that decorating the cores changed nothing: per job, the
/// normalised report digest and the engine counters equal the bare run's.
fn transparency(out: &mut RunOutput, bare: &[Outcome], traced: &[Traced]) {
    let same_digest = bare
        .iter()
        .zip(traced)
        .all(|(b, t)| b.digest == t.outcome.digest);
    let same_engine = bare
        .iter()
        .zip(traced)
        .all(|(b, t)| b.report.engine == t.outcome.report.engine);
    out.check(
        "decorated runs report the same simulated digest as bare runs",
        same_digest,
    );
    out.check(
        "decorated runs report the same engine counters as bare runs",
        same_engine,
    );
    out.check(
        "replayed memory paths reproduce every run's memory statistics",
        traced.iter().all(|t| t.outcome.failure.is_none()),
    );
}

fn threads() -> usize {
    nproc().min(SCALE64_SHARDS)
}

fn scale64_e2e(args: &Args, out: &mut RunOutput) -> Result<(), String> {
    let threads = threads();
    let seeds = scale64_seeds(args.seed);
    let m = measure(
        args.seconds,
        || {
            let seeds = scale64_seeds(args.seed);
            drop(scale64_system(
                &scale64_traces(seeds[0]),
                SCALE64_SHARDS,
                threads,
            ));
            Ok::<_, String>(seeds)
        },
        |seeds| Ok(scale64_batch(seeds, SCALE64_SHARDS, threads)),
    )?;
    e2e(out, &m);
    let reference = scale64_sharded(&scale64_traces(seeds[0]), 1, 1);
    out.check(
        "sharded run digest equals the single-shard reference",
        reference.digest == m.batches[0].jobs[0].digest,
    );
    Ok(())
}

fn scale64_traced(args: &Args, out: &mut RunOutput) {
    let threads = threads();
    let g = Instant::now();
    let seeds = scale64_seeds(args.seed);
    let trace_ops: usize = seeds
        .iter()
        .map(|&s| scale64_traces(s).iter().map(|t| t.len()).sum::<usize>())
        .sum();
    let gen_ms = g.elapsed().as_secs_f64() * 1e3;
    let sharded = scale64_batch(&seeds, SCALE64_SHARDS, threads);
    let one_thread = scale64_batch(&seeds, SCALE64_SHARDS, 1);
    let (bare, outs) = scale64_twin_batch(&seeds);
    // The decorated twin costs several times the bare one; a quarter of
    // the sub-runs keeps the traced run well inside its time limit.
    let quarter = &seeds[..seeds.len() / 4];
    let (traced_batch, traced) = scale64_twin_traced(quarter);
    for b in [&sharded, &one_thread, &bare, &traced_batch] {
        count(out, b);
    }
    out.check(
        "1-thread and multi-thread sharded runs simulate the same thing",
        one_thread.digest == sharded.digest,
    );
    let reference = scale64_sharded(&scale64_traces(seeds[0]), 1, 1);
    out.check(
        "sharded run digest equals the single-shard reference",
        reference.digest == sharded.jobs[0].digest,
    );
    transparency(out, &outs[..quarter.len()], &traced);
    let mut layers = Layers::default();
    layers.runner(&sharded, 1);
    layers.set("workloads.gen_ms", gen_ms);
    layers.set("workloads.trace_ops", trace_ops as f64);
    layers.sim(&traced.iter().collect::<Vec<_>>());
    layers.set("shard.wall_1t_s", one_thread.wall_s);
    layers.set("shard.self_speedup", one_thread.wall_s / sharded.wall_s);
    layers.set("shard.partition_overhead", one_thread.wall_s / bare.wall_s);
    layers.overhead(
        traced_batch.job_ms().iter().sum(),
        bare.job_ms()[..quarter.len()].iter().sum(),
    );
    out.note(format!(
        "core, cache and memory figures: decorated unsharded twin, first {} of {} sub-runs",
        quarter.len(),
        seeds.len()
    ));
    out.note(format!(
        "shard threads: {threads} (nproc {}), shards: {SCALE64_SHARDS}",
        nproc()
    ));
    layers.emit(out);
}

/// Defenses the per-defense metrics are reported for, in report order.
const DEFENSES: [&str; 7] = [
    "insecure",
    "dagguise",
    "fixed_service",
    "fs_bta",
    "fs_spatial",
    "temporal_partition",
    "camouflage",
];

/// Memory paths built around the FR-FCFS controller.
const CONTROLLER_PATHS: [&str; 2] = ["insecure", "dagguise"];

/// Every per-layer metric, in print order, with its unit. Each traced run
/// prints all of them; a layer the workload does not exercise reads 0 and
/// is marked n/a in the notes.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = vec![("runner.busy_frac".into(), "ratio")];
    v.extend(
        DEFENSES
            .iter()
            .map(|d| (format!("runner.job_ms.{d}"), "ms")),
    );
    v.push(("workloads.gen_ms".into(), "ms"));
    v.push(("workloads.trace_ops".into(), "count"));
    v.extend(
        DEFENSES
            .iter()
            .map(|d| (format!("system.ticks.{d}"), "count")),
    );
    v.extend(
        DEFENSES
            .iter()
            .map(|d| (format!("system.skip_frac.{d}"), "ratio")),
    );
    for (n, u) in [
        ("system.warps", "count"),
        ("system.failed_scans", "count"),
        ("system.polls", "count"),
        ("system.noncore_ms", "ms"),
        ("cpu.tick_calls", "count"),
        ("cpu.tick_ns", "ns"),
        ("cpu.next_event_ns", "ns"),
        ("cpu.try_send_calls", "count"),
        ("cpu.reject_frac", "ratio"),
        ("cache.l3_hit_rate", "ratio"),
    ] {
        v.push((n.into(), u));
    }
    v.extend(
        CONTROLLER_PATHS
            .iter()
            .map(|d| (format!("mem.tick_calls.{d}"), "count")),
    );
    v.extend(
        CONTROLLER_PATHS
            .iter()
            .map(|d| (format!("mem.edge_ns.{d}"), "ns")),
    );
    for (n, u) in [
        ("mem.edge_calls", "count"),
        ("mem.nonedge_ns", "ns"),
        ("mem.next_event_ns", "ns"),
        ("mem.served", "count"),
        ("core.shaper_calls", "count"),
        ("core.shaper_tick_ns", "ns"),
        ("core.fake_frac", "ratio"),
        ("core.reject_frac", "ratio"),
        ("rdag.emitted", "count"),
        ("defenses.tick_ns", "ns"),
        ("defenses.next_event_ns", "ns"),
        ("dram.acts", "count"),
        ("dram.precharges", "count"),
        ("dram.row_hit_frac", "ratio"),
        ("dram.refreshes", "count"),
        ("dram.faw_stall_cycles", "count"),
        ("shard.self_speedup", "ratio"),
        ("shard.partition_overhead", "ratio"),
        ("shard.wall_1t_s", "s"),
        ("trace.overhead_frac", "ratio"),
    ] {
        v.push((n.into(), u));
    }
    v
}

/// Per-layer values gathered by a traced run.
#[derive(Debug, Default)]
struct Layers {
    values: BTreeMap<String, f64>,
    notes: Vec<String>,
}

fn ratio(num: f64, den: f64) -> Option<f64> {
    (den > 0.0).then(|| num / den)
}

impl Layers {
    fn set(&mut self, name: &str, v: f64) {
        self.values.insert(name.to_string(), v);
    }

    fn set_opt(&mut self, name: &str, v: Option<f64>) {
        if let Some(v) = v {
            self.set(name, v);
        }
    }

    /// Runner layer: how busy the workers were and what each defense's
    /// jobs cost, from an untraced batch run on `workers` threads.
    fn runner(&mut self, b: &Batch, workers: usize) {
        let busy: f64 = b.job_ms().iter().sum::<f64>() / 1e3;
        self.set_opt("runner.busy_frac", ratio(busy, b.wall_s * workers as f64));
        // A retried job already counts as failed, so at a correct commit
        // this reads 0: a note, like fail_frac, not a metric.
        let retries: u32 = b.jobs.iter().map(|j| j.attempts - 1).sum();
        self.notes.push(format!("runner.retries: {retries} count"));
        for d in DEFENSES {
            let ms: Vec<f64> = b
                .jobs
                .iter()
                .filter(|j| j.defense == d)
                .map(|j| j.ms)
                .collect();
            if !ms.is_empty() {
                self.set(&format!("runner.job_ms.{d}"), median(&ms));
            }
        }
    }

    /// Tracing cost: traced job time over untraced, minus one.
    fn overhead(&mut self, traced_ms: f64, bare_ms: f64) {
        self.set_opt(
            "trace.overhead_frac",
            ratio(traced_ms, bare_ms).map(|r| r - 1.0),
        );
    }

    /// System, core, cache, memory, shaper, defense and DRAM layers from
    /// decorated runs and their replays.
    fn sim(&mut self, runs: &[&Traced]) {
        let sum = |f: &dyn Fn(&Traced) -> f64| runs.iter().map(|t| f(t)).sum::<f64>();
        let of = |d: &str| -> Vec<&Traced> {
            runs.iter()
                .copied()
                .filter(|t| t.outcome.defense == d)
                .collect()
        };
        for d in DEFENSES {
            let runs = of(d);
            if runs.is_empty() {
                continue;
            }
            let ticks: f64 = runs
                .iter()
                .map(|t| t.outcome.report.engine.ticks as f64)
                .sum();
            let warped: f64 = runs
                .iter()
                .map(|t| t.outcome.report.engine.warped_cycles as f64)
                .sum();
            self.set(&format!("system.ticks.{d}"), ticks);
            self.set_opt(
                &format!("system.skip_frac.{d}"),
                ratio(warped, ticks + warped),
            );
            if CONTROLLER_PATHS.contains(&d) {
                let calls: f64 = runs.iter().map(|t| t.controller.ticks().calls as f64).sum();
                let edge_ns: f64 = runs.iter().map(|t| t.controller.edge.ns as f64).sum();
                let edges: f64 = runs.iter().map(|t| t.controller.edge.calls as f64).sum();
                self.set(&format!("mem.tick_calls.{d}"), calls);
                self.set_opt(&format!("mem.edge_ns.{d}"), ratio(edge_ns, edges));
            }
        }
        let engine =
            |f: fn(&dg_prof::EngineTelemetry) -> u64| sum(&|t| f(&t.outcome.report.engine) as f64);
        self.set("system.warps", engine(|e| e.warps));
        self.set("system.failed_scans", engine(|e| e.failed_scans));
        self.set(
            "system.polls",
            engine(|e| e.polls.iter().map(|p| p.count).sum()),
        );
        self.set(
            "system.noncore_ms",
            sum(&|t| (t.sim_ns.saturating_sub(t.core.total_ns())) as f64) / 1e6,
        );

        let tick_calls = sum(&|t| t.core.tick.calls as f64);
        self.set("cpu.tick_calls", tick_calls);
        self.set_opt(
            "cpu.tick_ns",
            ratio(sum(&|t| t.core.tick.ns as f64), tick_calls),
        );
        self.set_opt(
            "cpu.next_event_ns",
            ratio(
                sum(&|t| t.core.next_event.ns as f64),
                sum(&|t| t.core.next_event.calls as f64),
            ),
        );
        let sends = sum(&|t| t.core.send.calls as f64);
        self.set("cpu.try_send_calls", sends);
        self.set_opt(
            "cpu.reject_frac",
            ratio(sum(&|t| t.core.rejected as f64), sends),
        );
        let hits = sum(&|t| t.l3.0 as f64);
        self.set_opt(
            "cache.l3_hit_rate",
            ratio(hits, hits + sum(&|t| t.l3.1 as f64)),
        );

        let edges = sum(&|t| t.controller.edge.calls as f64);
        if edges > 0.0 {
            self.set("mem.edge_calls", edges);
            self.set_opt(
                "mem.nonedge_ns",
                ratio(
                    sum(&|t| t.controller.nonedge.ns as f64),
                    sum(&|t| t.controller.nonedge.calls as f64),
                ),
            );
            self.set_opt(
                "mem.next_event_ns",
                ratio(
                    sum(&|t| t.controller.next_event.ns as f64),
                    sum(&|t| t.controller.next_event.calls as f64),
                ),
            );
        }
        self.set("mem.served", sum(&|t| t.served as f64));

        let shaper_calls = sum(&|t| t.shaper.tick.calls as f64);
        if shaper_calls > 0.0 {
            self.set("core.shaper_calls", shaper_calls);
            self.set_opt(
                "core.shaper_tick_ns",
                ratio(sum(&|t| t.shaper.tick.ns as f64), shaper_calls),
            );
            self.set("rdag.emitted", sum(&|t| t.shaper.emitted as f64));
            let dg = of("dagguise");
            let shaper = |f: fn(&dg_obs::ShaperReport) -> u64| -> f64 {
                dg.iter()
                    .flat_map(|t| &t.outcome.report.shapers)
                    .map(|s| f(s) as f64)
                    .sum()
            };
            let (fakes, real) = (shaper(|s| s.fakes_emitted), shaper(|s| s.real_forwarded));
            self.set_opt("core.fake_frac", ratio(fakes, fakes + real));
            let (acc, rej) = (shaper(|s| s.accepted), shaper(|s| s.rejected));
            self.set_opt("core.reject_frac", ratio(rej, acc + rej));
        }
        let def_calls = sum(&|t| t.defense.ticks().calls as f64);
        if def_calls > 0.0 {
            self.set_opt(
                "defenses.tick_ns",
                ratio(sum(&|t| t.defense.ticks().ns as f64), def_calls),
            );
            self.set_opt(
                "defenses.next_event_ns",
                ratio(
                    sum(&|t| t.defense.next_event.ns as f64),
                    sum(&|t| t.defense.next_event.calls as f64),
                ),
            );
        }

        let bank = |f: fn(&dg_obs::BankReport) -> u64| -> f64 {
            runs.iter()
                .flat_map(|t| &t.outcome.report.banks)
                .map(|b| f(b) as f64)
                .sum()
        };
        self.set("dram.acts", bank(|b| b.acts));
        self.set("dram.precharges", bank(|b| b.precharges));
        let (rh, rm) = (bank(|b| b.row_hits), bank(|b| b.row_misses));
        self.set_opt("dram.row_hit_frac", ratio(rh, rh + rm));
        self.set(
            "dram.refreshes",
            sum(&|t| t.outcome.report.dram.refreshes as f64),
        );
        self.set("dram.faw_stall_cycles", bank(|b| b.faw_stall_cycles));
    }

    /// Emits every per-layer metric; layers this workload does not reach
    /// read 0 and are listed as n/a.
    fn emit(self, out: &mut RunOutput) {
        for n in self.notes {
            out.note(n);
        }
        let mut na = Vec::new();
        for (name, unit) in per_layer_names() {
            let v = self.values.get(&name).copied();
            if v.is_none() {
                na.push(name.clone());
            }
            out.metric(name, unit, v.unwrap_or(0.0));
        }
        if !na.is_empty() {
            out.note(format!(
                "n/a on this workload (reported as 0): {}",
                na.join(", ")
            ));
        }
    }
}
