//! The repository benchmark.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one of two workloads from the repository root:
//!
//! * `sweep` — `examples/defense_sweep.toml` through `dg_runner::run_sweep`
//!   and `execute_job`: the evaluation users run;
//! * `scale64_sharded` — 64 cache-resident cores on four channels on the
//!   sharded runtime.
//!
//! With `--trace 0` it prints the end-to-end metrics (host CPU time,
//! tracing off); with `--trace 1` it runs the workload once bare and once with
//! timing decorators around the public layer traits ([`layers`]) and
//! prints the per-layer metrics. Either way it checks the simulated
//! outputs and closes with one JSON line (see [`report`]).

pub mod bench;
pub mod host;
pub mod layers;
pub mod report;
pub mod sim;
pub mod stats;
pub mod workloads;
