//! Shared infrastructure for the figure/table harnesses.
//!
//! Each binary in `src/bin/` regenerates one experiment of the paper:
//!
//! | Binary                | Reproduces |
//! |-----------------------|------------|
//! | `fig1_attack`         | Figure 1 — the contention attack ladder |
//! | `fig2_camouflage`     | Figure 2 — Camouflage's ordering leak |
//! | `fig5_example`        | Figure 5 — shaping + adaptivity running example |
//! | `fig6_templates`      | Figure 6 — rDAG templates (DOT output) |
//! | `fig7_profiling`      | Figure 7 — defense-rDAG selection sweep for DocDist |
//! | `fig9_twocore`        | Figure 9 — two-core normalized IPC across SPEC |
//! | `fig10_eightcore`     | Figure 10 — eight-core scalability |
//! | `table3_area`         | Table 3 — area breakdown |
//! | `verify_security`     | §5 — BMC + k-induction + unwinding proof |
//! | `ablation_adaptivity` | §6.2/6.3 claim — dynamic bandwidth reallocation |
//!
//! Every harness accepts `--full` for paper-scale workloads (quick scale
//! is the default so the whole suite runs in minutes) and writes its raw
//! series as JSON under `results/`.

use dg_obs::{chrome_trace_json, Event, LeakReport, RunReport};
use dg_runner::RunnerConfig;
use dg_system::ObsConfig;
use serde::Serialize;
use std::path::{Path, PathBuf};

pub mod scale;
pub mod workloads;

pub use scale::Scale;

/// Ring-buffer capacity used when `--trace` is given (enough to hold the
/// tail of any quick-scale run without unbounded memory).
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// Interval-sampling window in CPU cycles used when `--metrics` is given
/// (the Figure 7b time-series granularity).
pub const DEFAULT_INTERVAL_WINDOW: u64 = 10_000;

/// Parses the common harness flags. Returns the selected scale.
pub fn parse_args() -> Scale {
    if std::env::args().any(|a| a == "--full") {
        Scale::paper()
    } else {
        Scale::quick()
    }
}

/// Common harness command line: scale, observability artifact paths, and
/// sweep-orchestration options.
///
/// Every `fig*`/experiment binary accepts:
///
/// * `--full` — paper-scale workloads (quick scale is the default);
/// * `--metrics <path>` — write the run's [`RunReport`] JSON there;
/// * `--trace <path>` — write a Chrome `trace_event` JSON there
///   (load it in Perfetto / `chrome://tracing`);
/// * `--leak <path>` — write the covert-channel leakage report
///   (capacity-over-time) JSON there, on harnesses that run a probe;
/// * `--profile <path>` — record a host-time span profile of the whole
///   harness and write the attribution tree there (plus a
///   collapsed-stack `.folded` sibling for flamegraphs);
/// * `--jobs N` — worker threads for the sweep (falls back to the
///   `DG_JOBS` environment variable, then host parallelism);
/// * `--shards N` — run on the conservative-PDES sharded runtime with N
///   shards (falls back to the `DG_SHARDS` environment variable), on
///   harnesses that support it;
/// * `--journal <path>` — append per-job checkpoints there;
/// * `--resume <path>` — skip jobs already completed in that journal
///   (typically the same path as `--journal`);
/// * `--retries N` — extra attempts for jobs hitting their cycle budget.
#[derive(Debug, Clone, Default)]
pub struct HarnessArgs {
    /// Workload scale selected by `--full`.
    pub scale: Scale,
    /// Destination for the `RunReport` JSON, if requested.
    pub metrics: Option<PathBuf>,
    /// Destination for the Chrome trace JSON, if requested.
    pub trace: Option<PathBuf>,
    /// Destination for the leakage (capacity-over-time) JSON, if requested.
    pub leak: Option<PathBuf>,
    /// Destination for the host-time profile JSON, if requested.
    /// [`parse_harness_args`] starts the profiler when this is set; the
    /// harness calls [`export_profile`](Self::export_profile) at the end.
    pub profile: Option<PathBuf>,
    /// Explicit `--jobs` worker-count override.
    pub jobs: Option<usize>,
    /// Shard count from `--shards` (default: the `DG_SHARDS` environment
    /// variable; `None` = the classic single-threaded system).
    pub shards: Option<usize>,
    /// Journal path from `--journal`.
    pub journal: Option<PathBuf>,
    /// Resume journal path from `--resume`.
    pub resume: Option<PathBuf>,
    /// Retry-count override from `--retries`.
    pub retries: Option<u32>,
}

impl HarnessArgs {
    /// Whether any observability artifact was requested.
    pub fn observing(&self) -> bool {
        self.metrics.is_some() || self.trace.is_some()
    }

    /// The [`ObsConfig`] matching the requested artifacts: event tracing
    /// only when `--trace` was given, interval sampling and shaper
    /// timelines only with `--metrics`.
    pub fn obs_config(&self) -> ObsConfig {
        ObsConfig {
            trace_capacity: self.trace.is_some().then_some(DEFAULT_TRACE_CAPACITY),
            interval_window: self.metrics.is_some().then_some(DEFAULT_INTERVAL_WINDOW),
            shaper_timeline_window: self.metrics.is_some().then_some(DEFAULT_INTERVAL_WINDOW),
            naive_engine: false,
        }
    }

    /// The sweep-orchestration config matching the parsed flags.
    pub fn runner_config(&self) -> RunnerConfig {
        let mut cfg = RunnerConfig {
            jobs: dg_runner::effective_jobs(self.jobs),
            journal: self.journal.clone(),
            resume: self.resume.clone(),
            ..RunnerConfig::default()
        };
        if let Some(r) = self.retries {
            cfg.retries = r;
        }
        cfg
    }

    /// Writes the requested artifacts. Like [`write_results`], failures
    /// warn but do not abort — the printed tables stay the primary output.
    pub fn export(&self, report: &RunReport, events: &[Event]) {
        if let Some(path) = &self.metrics {
            write_artifact(path, &report.to_json());
        }
        if let Some(path) = &self.trace {
            write_artifact(path, &chrome_trace_json(events));
        }
    }

    /// Writes the leakage capacity-over-time report when `--leak` was
    /// given. Same failure policy as [`export`](Self::export).
    pub fn export_leak(&self, report: &LeakReport) {
        if let Some(path) = &self.leak {
            match serde_json::to_string_pretty(report) {
                Ok(json) => write_artifact(path, &json),
                Err(e) => eprintln!("warning: cannot serialize leakage report: {e}"),
            }
        }
    }

    /// Stops the profiler (started by [`parse_harness_args`] when
    /// `--profile` was given) and writes the host-time attribution tree
    /// plus its collapsed-stack `.folded` sibling, printing the top
    /// self-time components. Sweep jobs ran on worker threads, which
    /// submitted their trees to [`dg_prof::collector`] (see
    /// [`dg_runner::run_sweep`]); they are drained and merged in, so the
    /// tree covers every thread's share of the run. Harnesses call this
    /// last — including before any early `std::process::exit`. Same
    /// failure policy as [`export`](Self::export); a no-op without
    /// `--profile`.
    pub fn export_profile(&self) {
        let Some(path) = &self.profile else {
            return;
        };
        let Some(mut report) = dg_prof::stop() else {
            eprintln!("warning: --profile given but the profiler is compiled out (dg-prof `prof` feature)");
            return;
        };
        // Worker trees overlap the caller's in time: the merged total is
        // summed thread time, above the wall time when jobs ran in parallel.
        for (_, piece) in dg_prof::collector::drain() {
            report.merge(&piece);
        }
        eprintln!(
            "[host profile: {:.1} ms summed thread time, {:.0}% attributed]",
            report.total_ns as f64 / 1e6,
            report.coverage * 100.0
        );
        for (name, self_ns) in report.top_self().into_iter().take(3) {
            eprintln!("  {name:<20} {:.1} ms self", self_ns as f64 / 1e6);
        }
        write_artifact(path, &report.to_json());
        write_artifact(&path.with_extension("folded"), &report.collapsed());
    }
}

fn write_artifact(path: &Path, contents: &str) {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("warning: cannot create {}: {e}", dir.display());
            return;
        }
    }
    match std::fs::write(path, contents) {
        Ok(()) => eprintln!("[artifact written to {}]", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

/// Parses the full harness command line ([`HarnessArgs`]).
///
/// Unknown flags are ignored (each harness may add its own); a missing
/// value after `--metrics`/`--trace` aborts with a usage message.
pub fn parse_harness_args() -> HarnessArgs {
    let mut out = HarnessArgs {
        scale: Scale::quick(),
        ..HarnessArgs::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |flag: &str| -> String {
            let Some(v) = args.next() else {
                eprintln!("error: {flag} requires a value");
                std::process::exit(2);
            };
            v
        };
        match a.as_str() {
            "--full" => out.scale = Scale::paper(),
            "--metrics" => out.metrics = Some(PathBuf::from(value("--metrics"))),
            "--trace" => out.trace = Some(PathBuf::from(value("--trace"))),
            "--leak" => out.leak = Some(PathBuf::from(value("--leak"))),
            "--profile" => out.profile = Some(PathBuf::from(value("--profile"))),
            "--journal" => out.journal = Some(PathBuf::from(value("--journal"))),
            "--resume" => out.resume = Some(PathBuf::from(value("--resume"))),
            "--jobs" => match value("--jobs").parse::<usize>() {
                Ok(n) if n > 0 => out.jobs = Some(n),
                _ => {
                    eprintln!("error: --jobs must be a positive integer");
                    std::process::exit(2);
                }
            },
            "--shards" => match value("--shards").parse::<usize>() {
                Ok(n) if n > 0 => out.shards = Some(n),
                _ => {
                    eprintln!("error: --shards must be a positive integer");
                    std::process::exit(2);
                }
            },
            "--retries" => match value("--retries").parse::<u32>() {
                Ok(n) => out.retries = Some(n),
                Err(_) => {
                    eprintln!("error: --retries must be an integer");
                    std::process::exit(2);
                }
            },
            _ => {}
        }
    }
    if out.shards.is_none() {
        out.shards = dg_shard::shards_from_env();
    }
    if out.profile.is_some() {
        dg_prof::start();
    }
    out
}

/// Writes an experiment's raw data as JSON under `results/`.
///
/// Failures to write are reported but do not abort the harness — the
/// printed table is the primary output.
pub fn write_results<T: Serialize>(name: &str, data: &T) {
    let dir = PathBuf::from("results");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(data) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("warning: cannot write {}: {e}", path.display());
            } else {
                eprintln!("[results written to {}]", path.display());
            }
        }
        Err(e) => eprintln!("warning: cannot serialize results: {e}"),
    }
}

/// Prints a row-oriented table with a header.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_printing_does_not_panic() {
        print_table(
            "t",
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
    }

    #[test]
    fn default_scale_is_quick() {
        // parse_args reads argv; in the test harness no --full is present.
        let s = parse_args();
        assert_eq!(s, Scale::quick());
    }
}
