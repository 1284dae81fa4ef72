//! Differential harness for the PDES safety invariant: no memory
//! subsystem may act earlier than its last `next_event_at(now)` promise.
//!
//! Conservative sharding is sound *only if* component lookahead promises
//! hold — a component that acts before its promised cycle would need a
//! message the barrier has not delivered yet. The harness checks the
//! contract two ways against an arbitrary request schedule:
//!
//! 1. **Direct**: a tick that produces responses while the promise made
//!    immediately before it claimed quiescence is a violation.
//! 2. **Differential**: replaying the schedule with promise-driven cycle
//!    skipping must produce the exact response stream, interference
//!    matrix and statistics (per-bank counters included) of the naive
//!    cycle-by-cycle replay — catching promises that hide internal state
//!    changes with delayed observable effects, and skipped cycles whose
//!    stall attribution was never charged.

use dg_dram::power::EnergyCounter;
use dg_mem::{BankStats, MemorySubsystem};
use dg_sim::clock::Cycle;
use dg_sim::types::{MemRequest, MemResponse};

/// A breach of the lookahead contract.
#[derive(Debug, Clone, PartialEq)]
pub struct LookaheadViolation {
    /// Cycle at which the subsystem acted.
    pub at: Cycle,
    /// What `next_event_at` had promised for that cycle.
    pub promised: Option<Cycle>,
    /// Human-readable description.
    pub detail: String,
}

impl std::fmt::Display for LookaheadViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "lookahead violation at cycle {}: promised {:?}: {}",
            self.at, self.promised, self.detail
        )
    }
}

/// A timed request schedule, sorted by send cycle.
pub type Schedule = Vec<(Cycle, MemRequest)>;

/// Replays `sends` against `mem` cycle by cycle for `horizon` cycles,
/// checking the direct form of the contract at every tick. Requests a full
/// subsystem rejects are dropped (identically in every replay mode).
/// Returns the observable response stream.
///
/// # Errors
///
/// Returns the first [`LookaheadViolation`] encountered.
pub fn replay_naive(
    mem: &mut dyn MemorySubsystem,
    sends: &Schedule,
    horizon: Cycle,
) -> Result<Vec<(Cycle, MemResponse)>, LookaheadViolation> {
    debug_assert!(sends.windows(2).all(|w| w[0].0 <= w[1].0));
    let mut out = Vec::new();
    let mut buf = Vec::new();
    let mut next_send = 0usize;
    for now in 0..horizon {
        // The promise queried with no sends between it and the tick.
        let promised = mem.next_event_at(now);
        buf.clear();
        mem.tick_into(now, &mut buf);
        if !buf.is_empty() && promised.is_none_or(|t| t > now) {
            return Err(LookaheadViolation {
                at: now,
                promised,
                detail: format!(
                    "tick produced {} response(s) though the subsystem promised quiescence",
                    buf.len()
                ),
            });
        }
        out.extend(buf.iter().map(|r| (now, *r)));
        while next_send < sends.len() && sends[next_send].0 <= now {
            let _ = mem.try_send(sends[next_send].1, now);
            next_send += 1;
        }
    }
    Ok(out)
}

/// Replays `sends` against `mem` using promise-driven cycle skipping:
/// every cycle the promise declares a no-op (and that carries no due send)
/// is skipped, exactly as the sharded engine would — including its rule
/// that the last cycle (`horizon - 1`) is always ticked, so end-of-run
/// statistics cover the same span as the naive replay. Returns the
/// observable response stream, which [`check_lookahead_contract`]
/// compares against the naive replay.
pub fn replay_skipping(
    mem: &mut dyn MemorySubsystem,
    sends: &Schedule,
    horizon: Cycle,
) -> Vec<(Cycle, MemResponse)> {
    debug_assert!(sends.windows(2).all(|w| w[0].0 <= w[1].0));
    let mut out = Vec::new();
    let mut buf = Vec::new();
    let mut next_send = 0usize;
    let mut now: Cycle = 0;
    while now < horizon {
        buf.clear();
        mem.tick_into(now, &mut buf);
        out.extend(buf.iter().map(|r| (now, *r)));
        while next_send < sends.len() && sends[next_send].0 <= now {
            let _ = mem.try_send(sends[next_send].1, now);
            next_send += 1;
        }
        now += 1;
        if now >= horizon {
            break;
        }
        // Skip to the earlier of the promise, the next scheduled send and
        // the last cycle.
        let last = horizon - 1;
        let promise = mem.next_event_at(now);
        let mut target = promise.map_or(last, |t| t.clamp(now, last));
        if next_send < sends.len() {
            target = target.min(sends[next_send].0.max(now));
        }
        now = target;
    }
    out
}

/// The simulation-outcome part of [`dg_mem::MemStats`] the differential
/// compares: per-domain counts and latency sums, per-bank counters (tFAW
/// stall cycles included), refreshes, energy and dropped responses.
#[derive(Debug, PartialEq)]
struct StatsOutcome {
    domains: Vec<[u64; 5]>,
    banks: Vec<BankStats>,
    refreshes: u64,
    energy: EnergyCounter,
    dropped: u64,
}

impl StatsOutcome {
    fn of(mem: &mut dyn MemorySubsystem) -> Self {
        mem.refresh_stats();
        let stats = mem.stats();
        Self {
            domains: stats
                .domains()
                .iter()
                .map(|d| {
                    [
                        d.reads,
                        d.writes,
                        d.fakes,
                        d.latency_sum,
                        d.bandwidth.bytes(),
                    ]
                })
                .collect(),
            banks: stats.banks.clone(),
            refreshes: stats.refreshes,
            energy: stats.energy,
            dropped: stats.dropped,
        }
    }
}

/// Runs both replays of the same schedule over subsystems produced by
/// `make` (called twice — the two replays must start from identical
/// state) and checks both forms of the contract.
///
/// # Errors
///
/// Returns a [`LookaheadViolation`] when the direct check fires, the two
/// response streams diverge, or the two subsystems disagree at the horizon
/// on their interference matrix or statistics.
pub fn check_lookahead_contract(
    mut make: impl FnMut() -> Box<dyn MemorySubsystem>,
    sends: &Schedule,
    horizon: Cycle,
) -> Result<(), LookaheadViolation> {
    let mut naive_mem = make();
    let mut skipped_mem = make();
    let naive = replay_naive(naive_mem.as_mut(), sends, horizon)?;
    let skipped = replay_skipping(skipped_mem.as_mut(), sends, horizon);
    if naive != skipped {
        let at = naive
            .iter()
            .zip(&skipped)
            .find(|(a, b)| a != b)
            .map(|(a, _)| a.0)
            .unwrap_or_else(|| {
                naive
                    .len()
                    .min(skipped.len())
                    .checked_sub(1)
                    .map_or(0, |i| naive.get(i).map_or(0, |(c, _)| *c))
            });
        return Err(LookaheadViolation {
            at,
            promised: None,
            detail: format!(
                "skipping replay diverged from naive replay ({} vs {} responses)",
                naive.len(),
                skipped.len()
            ),
        });
    }
    let (naive_leak, skipped_leak) = (naive_mem.interference(), skipped_mem.interference());
    if naive_leak != skipped_leak {
        return Err(LookaheadViolation {
            at: horizon,
            promised: None,
            detail: format!(
                "skipping replay's interference {skipped_leak:?} differs from the naive \
                 replay's {naive_leak:?}"
            ),
        });
    }
    let naive_stats = StatsOutcome::of(naive_mem.as_mut());
    let skipped_stats = StatsOutcome::of(skipped_mem.as_mut());
    if naive_stats != skipped_stats {
        return Err(LookaheadViolation {
            at: horizon,
            promised: None,
            detail: format!(
                "skipping replay's statistics {skipped_stats:?} differ from the naive \
                 replay's {naive_stats:?}"
            ),
        });
    }
    Ok(())
}
