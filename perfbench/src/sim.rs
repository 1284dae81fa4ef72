//! System-level jobs: co-location runs assembled with the public
//! `SystemBuilder`, run either bare (the untraced measurement) or with
//! every core decorated and the memory side replayed through decorated
//! parts (the traced run).

use std::sync::{Arc, Mutex};
use std::time::Instant;

use dg_cpu::{Core, MemTrace, TraceCore};
use dg_obs::RunReport;
use dg_sim::clock::Cycle;
use dg_sim::config::SystemConfig;
use dg_sim::types::DomainId;
use dg_system::{ColocationResult, CoreResult, MemoryKind, System, SystemBuilder};

use crate::layers::{
    replay, timed_memory, CoreSink, CoreTally, MemSinks, MemTally, ShaperTally, TimedCore,
};
use crate::stats::report_digest;

/// Cycle budget of every system-level job: far above what any input
/// needs, so hitting it means the simulation stalled.
pub const BUDGET: Cycle = 2_000_000_000;

/// Name stamped into every report (part of the digest).
pub const REPORT_NAME: &str = "perfbench";

/// Builds core number `index` of a system: a ROB-limited trace core in
/// security domain `index`.
fn trace_core(trace: &MemTrace, index: usize, cfg: &SystemConfig) -> Box<dyn Core> {
    Box::new(TraceCore::new(DomainId(index as u16), trace.clone(), cfg))
}

/// When a run ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stop {
    /// Every core drained its program ([`BUDGET`] cycles at most).
    AllFinished,
    /// The victim (core 0) finished, within this many cycles — the sweep's
    /// victim-centric measurement interval.
    VictimFinished(Cycle),
}

/// One co-location run: a memory path and one program per core (core `i`
/// is security domain `i`; core 0 is the victim).
#[derive(Debug, Clone)]
pub struct SimJob {
    /// Memory path label (`MemoryKind::label`).
    pub defense: &'static str,
    /// The memory path.
    pub kind: MemoryKind,
    /// Per-core programs.
    pub cores: Vec<MemTrace>,
    /// When the run ends.
    pub stop: Stop,
}

impl SimJob {
    /// A job running `cores` on `kind` until every core finishes.
    pub fn new(kind: MemoryKind, cores: Vec<MemTrace>) -> Self {
        Self {
            defense: kind.label(),
            kind,
            cores,
            stop: Stop::AllFinished,
        }
    }

    fn run(&self, sys: &mut System) -> Result<Cycle, String> {
        match self.stop {
            Stop::AllFinished => sys.run_until_finished(BUDGET),
            Stop::VictimFinished(budget) => sys.run_until_core_finished(0, budget),
        }
        .map_err(|e| e.to_string())
    }
}

/// What one run of a job produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Memory path label.
    pub defense: &'static str,
    /// Host time of the whole job (build, simulate, report).
    pub host_ms: f64,
    /// CPU time of the job (see [`crate::host::probed`]); 0 where it was
    /// not probed.
    pub cpu_ms: f64,
    /// Probe slice times (ns) taken around the job; empty where it was not
    /// probed.
    pub probe_ns: Vec<f64>,
    /// Simulated CPU cycles.
    pub cycles: u64,
    /// DRAM requests served, real and fake.
    pub requests: u64,
    /// Victim (core 0) IPC.
    pub victim_ipc: f64,
    /// Digest of the normalised report.
    pub digest: u64,
    /// The full report (engine block included).
    pub report: RunReport,
    /// The run as `dg_system::run_colocation` summarises it.
    pub colocation: ColocationResult,
    /// Why the job counts as failed, if it does.
    pub failure: Option<String>,
}

/// Builds the bare system for `job`.
pub fn build(cfg: &SystemConfig, job: &SimJob) -> System {
    let mut b = SystemBuilder::new(cfg.clone());
    for (i, c) in job.cores.iter().enumerate() {
        b = b.core(trace_core(c, i, cfg));
    }
    b.memory(job.kind.clone()).build()
}

/// The checks every finished run must pass: the cores the stop rule waits
/// for drained their programs, no response was dropped, and every request
/// a shaper admitted was forwarded.
fn check_report(report: &RunReport, stop: Stop) -> Option<String> {
    let waited = match stop {
        Stop::AllFinished => report.cores.len(),
        Stop::VictimFinished(_) => 1,
    };
    if let Some(c) = report.cores.iter().take(waited).find(|c| !c.finished) {
        return Some(format!("core {} did not finish", c.domain));
    }
    if report.dram.dropped_responses != 0 {
        return Some(format!(
            "{} responses dropped",
            report.dram.dropped_responses
        ));
    }
    if let Some(s) = report
        .shapers
        .iter()
        .find(|s| s.accepted != s.real_forwarded)
    {
        return Some(format!(
            "shaper {} admitted {} requests but forwarded {}",
            s.domain, s.accepted, s.real_forwarded
        ));
    }
    None
}

/// The per-run summary `dg_system::run_colocation` returns, assembled from
/// the system's public accessors.
fn colocation_result(sys: &System) -> ColocationResult {
    let end = sys.now();
    let clock_hz = sys.config().core.clock_hz;
    let stats = sys.memory().stats();
    let n = sys.cores().len();
    ColocationResult {
        cores: sys
            .cores()
            .iter()
            .map(|c| {
                let cycles = c.finished_at().unwrap_or(end).max(1);
                CoreResult {
                    instructions: c.instructions_retired(),
                    cycles,
                    ipc: c.instructions_retired() as f64 / cycles as f64,
                    finished: c.finished(),
                }
            })
            .collect(),
        bandwidth_gbps: (0..n)
            .map(|i| stats.domain(DomainId(i as u16)).bandwidth.gbps(clock_hz))
            .collect(),
        total_cycles: end,
        latency: (0..n)
            .map(|i| stats.domain(DomainId(i as u16)).latency_hdr.snapshot())
            .collect(),
        leakage: None,
    }
}

impl Outcome {
    /// Assembles the outcome of a run that started at `t0` and ended at
    /// `cycles` with `run`'s result, checking `report` against `stop`.
    pub fn new(
        defense: &'static str,
        t0: Instant,
        cycles: Cycle,
        run: Result<Cycle, String>,
        stop: Stop,
        report: RunReport,
        colocation: ColocationResult,
    ) -> Self {
        let failure = run.err().or_else(|| check_report(&report, stop));
        Outcome {
            defense,
            host_ms: t0.elapsed().as_secs_f64() * 1e3,
            cpu_ms: 0.0,
            probe_ns: Vec::new(),
            cycles,
            requests: report
                .domains
                .iter()
                .map(|d| d.reads + d.writes + d.fakes)
                .sum(),
            victim_ipc: report.cores.first().map_or(0.0, |c| c.ipc),
            digest: report_digest(&report),
            report,
            colocation,
            failure,
        }
    }
}

fn outcome(job: &SimJob, t0: Instant, sys: &System, run: Result<Cycle, String>) -> Outcome {
    Outcome::new(
        job.defense,
        t0,
        sys.now(),
        run,
        job.stop,
        sys.report(REPORT_NAME),
        colocation_result(sys),
    )
}

fn stats_json(stats: &dg_mem::MemStats) -> String {
    serde_json::to_string(stats).expect("memory statistics serialize")
}

/// Runs `job` on a bare system.
pub fn run_bare(cfg: &SystemConfig, job: &SimJob) -> Outcome {
    let t0 = Instant::now();
    let mut sys = build(cfg, job);
    let run = job.run(&mut sys);
    outcome(job, t0, &sys, run)
}

/// A traced run of one job, with the per-layer tallies it collected.
#[derive(Debug, Clone)]
pub struct Traced {
    /// The run as a bare run would report it (host time includes the
    /// decorators, not the replay).
    pub outcome: Outcome,
    /// Host time of `run_until_finished` alone.
    pub sim_ns: u64,
    /// Core decorators, summed over cores.
    pub core: CoreTally,
    /// Shared-L3 hits and misses.
    pub l3: (u64, u64),
    /// Replayed memory path: controller, defense, shapers.
    pub controller: MemTally,
    /// Whole-controller defense (Fixed Service, FS-BTA, TP, ...).
    pub defense: MemTally,
    /// DAGguise shapers.
    pub shaper: ShaperTally,
    /// Responses the replayed path delivered.
    pub served: u64,
}

/// Runs `job` with every core decorated, then replays the recorded
/// request stream into a decorated memory path. Checks, on top of the
/// report checks every run gets, that the replay accepts exactly what the
/// system accepted, ends with identical memory statistics, and answers
/// every accepted request.
pub fn run_traced(cfg: &SystemConfig, job: &SimJob) -> Traced {
    let t0 = Instant::now();
    let sink = Arc::new(Mutex::new(CoreSink::default()));
    let mut b = SystemBuilder::new(cfg.clone());
    for (i, c) in job.cores.iter().enumerate() {
        b = b.core(Box::new(TimedCore::new(
            trace_core(c, i, cfg),
            i,
            sink.clone(),
        )));
    }
    let mut sys = b.memory(job.kind.clone()).build();
    let s0 = Instant::now();
    let run = job.run(&mut sys);
    let sim_ns = s0.elapsed().as_nanos() as u64;
    let mut out = outcome(job, t0, &sys, run);
    let end = sys.now();
    let l3 = (sys.l3().hits(), sys.l3().misses());
    let in_system = stats_json(sys.memory().stats());
    drop(sys);

    let sink = std::mem::take(&mut *sink.lock().expect("core sink"));
    let attempts = sink.attempts();
    let sinks = MemSinks::default();
    let mut served = 0;
    if out.failure.is_none() {
        let mut mem = timed_memory(cfg, &job.kind, job.cores.len(), &sinks);
        match replay(mem.as_mut(), &attempts, end) {
            Err(e) => out.failure = Some(e),
            Ok(responses) => {
                served = mem
                    .stats()
                    .domains()
                    .iter()
                    .map(|d| d.reads + d.writes + d.fakes)
                    .sum();
                let accepted = attempts.iter().filter(|a| a.accepted).count();
                if stats_json(mem.stats()) != in_system {
                    out.failure =
                        Some("replayed memory statistics differ from the system's".into());
                } else if responses.len() > accepted
                    || (job.stop == Stop::AllFinished && responses.len() != accepted)
                {
                    // A victim-centric run may end with co-runner requests
                    // still in flight; a run to completion may not.
                    out.failure = Some(format!(
                        "{accepted} requests accepted but {} answered",
                        responses.len()
                    ));
                }
            }
        }
    }
    let (controller, defense, shaper) = sinks.snapshot();
    Traced {
        outcome: out,
        sim_ns,
        core: sink.tally,
        l3,
        controller,
        defense,
        shaper,
        served,
    }
}
