//! The two workloads, their inputs, and the batches they run.
//!
//! Every workload is a fixed set of jobs built from the seed alone. One
//! pass over the set is a *batch*; the timed phase runs whole batches back
//! to back, closed loop, until `--seconds` is used up, and times each job
//! once per batch. Every batch holds 84 jobs, so its highest percentile
//! with ten jobs beyond it is p88.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use dg_cpu::MemTrace;
use dg_defenses::IntervalDistribution;
use dg_runner::material::spec_trace_seeded;
use dg_runner::{
    execute_job, run_sweep, ColocationJob, ExperimentSpec, JobCtx, RunnerConfig, VictimKind,
};
use dg_shard::{ShardConfig, ShardedSystem, ShardedSystemBuilder};
use dg_sim::config::SystemConfig;
use dg_sim::error::SimError;
use dg_sim::rng::DetRng;
use dg_system::{ColocationResult, MemoryKind};

use crate::host::{probed, probed_on, Probed};
use crate::sim::{run_bare, run_traced, Outcome, SimJob, Stop, Traced, BUDGET, REPORT_NAME};
use crate::stats::{fnv64, fold, harrell_davis, percentile, tail};

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 2] = ["sweep", "scale64_sharded"];

/// The sweep spec users run, relative to the repository root.
pub const SWEEP_SPEC: &str = "examples/defense_sweep.toml";

/// One job's result within a batch.
#[derive(Debug, Clone)]
pub struct JobRun {
    /// Jobs with the same inputs under different defenses share a group.
    pub group: String,
    /// Defense (memory path) label.
    pub defense: String,
    /// Wall time of the job.
    pub ms: f64,
    /// CPU time of the job (see [`crate::host::probed`]); 0 where it was
    /// not probed.
    pub cpu_ms: f64,
    /// Probe slice times (ns) taken around the job (see
    /// [`crate::host::probed`]); empty where it was not probed.
    pub probe_ns: Vec<f64>,
    /// Simulated CPU cycles.
    pub cycles: u64,
    /// DRAM requests served, real and fake.
    pub requests: u64,
    /// Victim (core 0) IPC.
    pub victim_ipc: f64,
    /// Attempts the job took (more than one means it hit a Deadline).
    pub attempts: u32,
    /// Digest of the job's simulated output (0 where only the batch has
    /// one).
    pub digest: u64,
    /// Why the job failed, if it did.
    pub failure: Option<String>,
}

/// One pass over a workload's job set.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Host time of the pass.
    pub wall_s: f64,
    /// Per-job results, in job order.
    pub jobs: Vec<JobRun>,
    /// Digest of the simulated outputs of the whole pass.
    pub digest: u64,
}

impl Batch {
    /// Simulated CPU cycles summed over the batch's runs.
    pub fn cycles(&self) -> u64 {
        self.jobs.iter().map(|j| j.cycles).sum()
    }

    /// DRAM requests served summed over the batch's runs.
    pub fn requests(&self) -> u64 {
        self.jobs.iter().map(|j| j.requests).sum()
    }

    /// Per-job wall times.
    pub fn job_ms(&self) -> Vec<f64> {
        self.jobs.iter().map(|j| j.ms).collect()
    }

    /// Per-job CPU times.
    pub fn job_cpu_ms(&self) -> Vec<f64> {
        self.jobs.iter().map(|j| j.cpu_ms).collect()
    }

    /// Every probe slice time (ns) taken around the batch's jobs.
    pub fn probe_ns(&self) -> impl Iterator<Item = f64> + '_ {
        self.jobs.iter().flat_map(|j| j.probe_ns.iter().copied())
    }

    /// Median job time, as the Harrell–Davis estimate: a batch mixes
    /// defenses whose jobs form clusters, and a single middle order
    /// statistic would jump between two of them.
    pub fn job_p50(&self) -> f64 {
        harrell_davis(&self.job_ms(), 0.5)
    }

    /// The tail job time: the highest percentile with ten jobs beyond it,
    /// valued by the Harrell–Davis estimate for the reason given at
    /// [`Batch::job_p50`] (in the sweep, rank 74 of 84 sits where the
    /// ~250 ms jobs end and the ~400 ms ones begin). The maximum when the
    /// batch is too small for such a percentile.
    pub fn job_tail(&self) -> (u32, f64) {
        let ms = self.job_ms();
        match tail(&ms, 10) {
            Some(t) => (
                t.percentile,
                harrell_davis(&ms, f64::from(t.percentile) / 100.0),
            ),
            None => (100, percentile(&ms, 100)),
        }
    }

    /// Geometric mean, over input groups run under both, of DAGguise
    /// victim IPC divided by insecure victim IPC.
    pub fn dagguise_norm_ipc(&self) -> Option<f64> {
        let ipc = |defense: &str| -> BTreeMap<&str, f64> {
            self.jobs
                .iter()
                .filter(|j| j.defense == defense)
                .map(|j| (j.group.as_str(), j.victim_ipc))
                .collect()
        };
        let (dg, base) = (ipc("dagguise"), ipc("insecure"));
        let logs: Vec<f64> = dg
            .iter()
            .filter_map(|(g, d)| base.get(g).map(|b| (d / b).ln()))
            .collect();
        (!logs.is_empty()).then(|| (logs.iter().sum::<f64>() / logs.len() as f64).exp())
    }

    fn from_outcomes(wall_s: f64, groups: &[String], outs: &[Outcome]) -> Self {
        let jobs = outs
            .iter()
            .zip(groups)
            .map(|(o, g)| JobRun {
                group: g.clone(),
                defense: o.defense.to_string(),
                ms: o.host_ms,
                cpu_ms: o.cpu_ms,
                probe_ns: o.probe_ns.clone(),
                cycles: o.cycles,
                requests: o.requests,
                victim_ipc: o.victim_ipc,
                attempts: 1,
                digest: o.digest,
                failure: o.failure.clone(),
            })
            .collect();
        Self {
            wall_s,
            jobs,
            digest: outs.iter().fold(0, |acc, o| fold(acc, o.digest)),
        }
    }
}

/// Batches every timed phase runs, however long they take, so the
/// check that every batch simulates the same thing always compares two.
pub const MIN_BATCHES: usize = 2;

/// Runs `batch` back to back until `seconds` is used up: at least
/// [`MIN_BATCHES`] times, and more only while the mean batch so far still
/// fits in the budget.
pub fn timed_batches<E>(
    seconds: f64,
    mut batch: impl FnMut() -> Result<Batch, E>,
) -> Result<Vec<Batch>, E> {
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        out.push(batch()?);
        let spent = start.elapsed().as_secs_f64();
        if out.len() >= MIN_BATCHES && spent + spent / out.len() as f64 > seconds {
            return Ok(out);
        }
    }
}

/// A seed for input variant `v` of run seed `seed`.
fn variant_seed(seed: u64, v: u64) -> u64 {
    let mut r = DetRng::new(seed ^ 0x7065_7266_6265_6e63);
    for _ in 0..=v {
        r.next_u64();
    }
    r.next_u64()
}

/// The shipped sweep spec with its grid seeds shifted by `seed`: seed `n`
/// runs victim secrets `n·k .. n·k + k - 1` for a grid of `k` seeds.
///
/// # Errors
///
/// The spec file is missing or does not parse.
pub fn sweep_spec(root: &Path, seed: u64) -> Result<ExperimentSpec, String> {
    let path = root.join(SWEEP_SPEC);
    let mut spec = ExperimentSpec::load(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let k = spec.grid.seeds.len() as u64;
    for s in &mut spec.grid.seeds {
        *s += seed * k;
    }
    Ok(spec)
}

/// The memory path `execute_job` builds for `defense` with `victim` on
/// domain 0.
pub fn sweep_memory_kind(defense: &str, victim: VictimKind) -> Option<MemoryKind> {
    Some(match defense {
        "insecure" => MemoryKind::Insecure,
        "dagguise" => MemoryKind::Dagguise {
            protected: vec![Some(victim.defense_template()), None],
        },
        "fixed_service" => MemoryKind::FixedService,
        "fs_bta" => MemoryKind::FsBta,
        "fs_spatial" => MemoryKind::FsSpatial,
        "temporal_partition" => MemoryKind::TemporalPartition {
            slots_per_period: 4,
        },
        "camouflage" => MemoryKind::Camouflage {
            protected: vec![Some(IntervalDistribution::figure2()), None],
        },
        _ => return None,
    })
}

/// The inputs of sweep job `job` on attempt `ctx`, as `execute_job`
/// generates them.
pub fn sweep_inputs(job: &ColocationJob, ctx: &JobCtx) -> (MemTrace, MemTrace) {
    (
        job.victim.trace(&job.scale, job.secret),
        spec_trace_seeded(&job.scale, &job.corunner, 1, ctx.seed),
    )
}

/// DRAM requests a sweep job served, real and fake, recovered from the
/// per-domain bandwidth it reports (`bytes / cycles * clock`, one line per
/// request).
fn sweep_requests(r: &ColocationResult, cfg: &SystemConfig) -> u64 {
    let lines_per_gbps =
        1e9 / cfg.core.clock_hz * r.total_cycles as f64 / cfg.dram_org.line_bytes as f64;
    r.bandwidth_gbps
        .iter()
        .map(|g| (g * lines_per_gbps).round() as u64)
        .sum()
}

/// `id` without its trailing `/defense`: the jobs' shared input group.
fn sweep_group(id: &str) -> String {
    id.rsplit_once('/').map_or(id, |(g, _)| g).to_string()
}

/// What the traced sweep collects per job besides its result.
#[derive(Debug, Clone)]
pub struct SweepTrace {
    /// Host time of the `material` trace builders for this job.
    pub gen_ms: f64,
    /// Memory operations they produced.
    pub trace_ops: u64,
    /// The decorated run.
    pub traced: Traced,
}

/// A sweep job's wall and CPU time summed over its attempts, and the probe
/// slices around them.
#[derive(Debug, Default)]
struct JobTimes {
    ms: f64,
    cpu_ms: f64,
    probe_ns: Vec<f64>,
}

/// One batch of the sweep through `run_sweep`: `execute_job` itself when
/// `traced` is `None`, else the same job assembled from public parts with
/// decorated cores, its per-job traces collected into `traced`. Jobs that
/// error, need a retry (they hit a Deadline) or whose victim did not
/// finish count as failed.
///
/// # Errors
///
/// `run_sweep` could not run the jobs.
pub fn sweep_batch(
    spec: &ExperimentSpec,
    workers: usize,
    retries: u32,
    traced: Option<&Mutex<BTreeMap<String, SweepTrace>>>,
) -> Result<Batch, String> {
    let jobs = spec.expand();
    let times: Mutex<BTreeMap<String, JobTimes>> = Mutex::new(BTreeMap::new());
    let cfg = RunnerConfig {
        jobs: workers,
        retries,
        verbose: false,
        ..RunnerConfig::default()
    };
    let sys_cfg = SystemConfig::two_core();
    let t0 = Instant::now();
    let outcome = run_sweep(&cfg, &jobs, |job, ctx| {
        let p = match traced {
            None => probed(|| execute_job(job, ctx)),
            Some(sink) => {
                let t = Instant::now();
                let value = traced_sweep_job(job, ctx, &sys_cfg, sink);
                Probed {
                    value,
                    ms: t.elapsed().as_secs_f64() * 1e3,
                    cpu_ms: 0.0,
                    probe_ns: Vec::new(),
                }
            }
        };
        let mut times = times.lock().expect("job timer");
        let entry = times.entry(job.id.clone()).or_default();
        entry.ms += p.ms;
        entry.cpu_ms += p.cpu_ms;
        entry.probe_ns.extend(p.probe_ns);
        p.value
    })
    .map_err(|e| e.to_string())?;
    let wall_s = t0.elapsed().as_secs_f64();
    let times = times.into_inner().expect("job timer");
    let runs = outcome
        .records
        .iter()
        .map(|rec| {
            let job = jobs
                .iter()
                .find(|j| j.id == rec.id)
                .expect("record of a job");
            let out = rec.output.as_ref();
            let failure = match (&rec.error, out) {
                (Some(e), _) => Some(e.clone()),
                (None, _) if rec.attempts > 1 => Some(format!("needed {} attempts", rec.attempts)),
                (None, Some(o)) if !o.cores.first().is_some_and(|c| c.finished) => {
                    Some("victim did not finish".to_string())
                }
                _ => None,
            };
            JobRun {
                group: sweep_group(&rec.id),
                defense: job.defense.clone(),
                ms: times.get(&rec.id).map_or(0.0, |t| t.ms),
                cpu_ms: times.get(&rec.id).map_or(0.0, |t| t.cpu_ms),
                probe_ns: times
                    .get(&rec.id)
                    .map_or_else(Vec::new, |t| t.probe_ns.clone()),
                cycles: out.map_or(0, |o| o.total_cycles),
                requests: out.map_or(0, |o| sweep_requests(o, &sys_cfg)),
                victim_ipc: out.and_then(|o| o.cores.first()).map_or(0.0, |c| c.ipc),
                attempts: rec.attempts,
                digest: 0,
                failure,
            }
        })
        .collect();
    Ok(Batch {
        wall_s,
        jobs: runs,
        digest: fnv64(outcome.merged_report_json(&spec.name).as_bytes()),
    })
}

fn traced_sweep_job(
    job: &ColocationJob,
    ctx: &JobCtx,
    cfg: &SystemConfig,
    sink: &Mutex<BTreeMap<String, SweepTrace>>,
) -> Result<ColocationResult, SimError> {
    let g = Instant::now();
    let (victim, corunner) = sweep_inputs(job, ctx);
    let gen_ms = g.elapsed().as_secs_f64() * 1e3;
    let trace_ops = (victim.len() + corunner.len()) as u64;
    let kind = sweep_memory_kind(&job.defense, job.victim)
        .ok_or_else(|| SimError::InvalidConfig(format!("unknown defense `{}`", job.defense)))?;
    let sim = SimJob {
        stop: Stop::VictimFinished(ctx.budget(job.scale.budget)),
        ..SimJob::new(kind, vec![victim, corunner])
    };
    let traced = run_traced(cfg, &sim);
    let result = match &traced.outcome.failure {
        Some(e) => Err(SimError::Aborted(e.clone())),
        None => Ok(traced.outcome.colocation.clone()),
    };
    sink.lock().expect("trace sink").insert(
        job.id.clone(),
        SweepTrace {
            gen_ms,
            trace_ops,
            traced,
        },
    );
    result
}

/// Cores, channels and shards of `scale64_sharded`.
pub const SCALE64_CORES: usize = 64;
const SCALE64_CHANNELS: u32 = 4;
/// Shards of the partition every sharded run uses.
pub const SCALE64_SHARDS: usize = 4;
/// NoC hop latency (also the PDES lookahead): wide, so supersteps are long.
const SCALE64_NOC: u64 = 1024;
/// Sub-runs per batch.
pub const SCALE64_JOBS: u64 = 84;
/// Loads per core per sub-run.
pub const SCALE64_OPS: u64 = 1_000;
/// Lines each core loops over: 64 cores × 8 lines = 512 cold misses, a
/// short DRAM warm-up next to the compute that follows.
const SCALE64_LINES: u64 = 8;
/// Instructions before each load (20 cycles at the 8-wide issue width),
/// so the cores retire compute every cycle between L1 hits.
const SCALE64_GAP: u64 = 160;

/// The `scale64_sharded` configuration (caches shrunk as in
/// `perf_throughput`, so the 64-core host working set stays small).
pub fn scale64_config() -> SystemConfig {
    let mut cfg = SystemConfig::scale_out(SCALE64_CORES, SCALE64_CHANNELS);
    cfg.cache.l1.size_bytes = 8 * 1024;
    cfg.cache.l2.size_bytes = 16 * 1024;
    cfg.cache.l3_per_core.size_bytes = 16 * 1024;
    cfg
}

/// Seeds of the sub-runs of one `scale64_sharded` batch. Each sub-run
/// generates its traces from its seed when it runs, so a batch never holds
/// more than one sub-run's 64 traces.
pub fn scale64_seeds(seed: u64) -> Vec<u64> {
    (0..SCALE64_JOBS).map(|j| variant_seed(seed, j)).collect()
}

/// The traces of one sub-run: 64 cores each looping over a few lines of
/// its own with compute between loads. After one warm-up pass every access
/// hits in L1, so core and cache ticks dominate and DRAM is nearly idle.
/// (The loop traces of `perf_throughput` touch 64 lines per core with no
/// compute, and their 4096-line warm-up keeps the memory path saturated
/// for most of a run.) The seed places each core's lines.
pub fn scale64_traces(sub_seed: u64) -> Vec<MemTrace> {
    let mut rng = DetRng::new(sub_seed);
    (0..SCALE64_CORES as u64)
        .map(|c| {
            let base = (c << 30) + (rng.next_below(1 << 10) << 12);
            let mut t = MemTrace::new();
            for i in 0..SCALE64_OPS {
                t.load(base + (i % SCALE64_LINES) * 64, SCALE64_GAP);
            }
            t
        })
        .collect()
}

/// Builds one `scale64_sharded` sub-run on the sharded runtime with
/// `shards` shards on at most `threads` threads.
pub fn scale64_system(traces: &[MemTrace], shards: usize, threads: usize) -> ShardedSystem {
    let scfg = ShardConfig {
        noc_latency: SCALE64_NOC,
        max_parties: Some(threads),
        ..ShardConfig::with_shards(shards)
    };
    let mut b = ShardedSystemBuilder::new(scale64_config(), scfg);
    for t in traces {
        b = b.trace_core(t.clone());
    }
    b.memory(MemoryKind::Insecure).build()
}

/// Runs one `scale64_sharded` sub-run (see [`scale64_system`]).
pub fn scale64_sharded(traces: &[MemTrace], shards: usize, threads: usize) -> Outcome {
    let t0 = Instant::now();
    let mut sys = scale64_system(traces, shards, threads);
    let run = sys.run_until_finished(BUDGET).map_err(|e| e.to_string());
    Outcome::new(
        "insecure",
        t0,
        sys.now(),
        run,
        Stop::AllFinished,
        sys.report(REPORT_NAME),
        sys.colocation_result(),
    )
}

fn scale64_groups(n: usize) -> Vec<String> {
    (0..n).map(|j| format!("s{j}")).collect()
}

/// One `scale64_sharded` batch: every sub-run in turn (each already uses
/// every thread it is given).
pub fn scale64_batch(seeds: &[u64], shards: usize, threads: usize) -> Batch {
    let t0 = Instant::now();
    let outs: Vec<Outcome> = seeds
        .iter()
        .map(|&s| {
            let traces = scale64_traces(s);
            let p = probed_on(threads, || scale64_sharded(&traces, shards, threads));
            Outcome {
                cpu_ms: p.cpu_ms,
                probe_ns: p.probe_ns,
                ..p.value
            }
        })
        .collect();
    Batch::from_outcomes(
        t0.elapsed().as_secs_f64(),
        &scale64_groups(outs.len()),
        &outs,
    )
}

/// Sub-run `sub_seed` as an unsharded `System` job (one thread, one shared
/// L3 instead of the sharded runtime's per-core slices).
pub fn scale64_twin_job(sub_seed: u64) -> SimJob {
    SimJob::new(MemoryKind::Insecure, scale64_traces(sub_seed))
}

/// Every sub-run on the unsharded `System`, bare.
pub fn scale64_twin_batch(seeds: &[u64]) -> (Batch, Vec<Outcome>) {
    let cfg = scale64_config();
    let t0 = Instant::now();
    let outs: Vec<Outcome> = seeds
        .iter()
        .map(|&s| run_bare(&cfg, &scale64_twin_job(s)))
        .collect();
    let b = Batch::from_outcomes(
        t0.elapsed().as_secs_f64(),
        &scale64_groups(outs.len()),
        &outs,
    );
    (b, outs)
}

/// Every sub-run on the unsharded `System` with decorated cores.
pub fn scale64_twin_traced(seeds: &[u64]) -> (Batch, Vec<Traced>) {
    let cfg = scale64_config();
    let t0 = Instant::now();
    let traced: Vec<Traced> = seeds
        .iter()
        .map(|&s| run_traced(&cfg, &scale64_twin_job(s)))
        .collect();
    let outs: Vec<Outcome> = traced.iter().map(|t| t.outcome.clone()).collect();
    let b = Batch::from_outcomes(
        t0.elapsed().as_secs_f64(),
        &scale64_groups(outs.len()),
        &outs,
    );
    (b, traced)
}
