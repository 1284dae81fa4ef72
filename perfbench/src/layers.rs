//! Timing decorators over the simulator's public layer traits, and the
//! replay that times the memory side call by call.
//!
//! Nothing here reaches inside a layer: each decorator wraps a public
//! trait object ([`Core`], [`MemorySubsystem`], [`DomainShaper`]), forwards
//! every method (including the provided ones, so a default such as
//! `next_event_at` never silently replaces the wrapped implementation and
//! disables warping), and times the calls that do work. Tallies are kept in
//! plain fields on the hot path and handed to a shared sink when the
//! decorator is dropped, so the only cost while simulating is the clock
//! reads.
//!
//! A decorated core hands its inner core a `SendProxy` in place of the
//! system's memory path. The proxy times `try_send` and records every
//! attempt; [`replay`] later feeds that stream into a freshly built memory
//! path whose controller, shapers and defenses are themselves decorated,
//! and the caller checks that the replay reproduces the in-system memory
//! statistics exactly.

use std::cell::Cell;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dagguise::{Shaper, ShaperConfig};
use dg_cache::SetAssocCache;
use dg_cpu::Core;
use dg_mem::{
    ChannelMap, DomainShaper, MemStats, MemoryController, MemorySubsystem, MultiChannelMemory,
    PassThrough, SchedPolicy, ShapedMemory,
};
use dg_obs::{InterferenceReport, ShaperReport, ShaperTimelineReport, Tracer};
use dg_sim::clock::{earliest_event, Cycle};
use dg_sim::config::{RowPolicy, SystemConfig};
use dg_sim::types::{DomainId, MemRequest, MemResponse};
use dg_system::{build_channel_memories, build_memory, MemoryKind};

/// Calls to one entry point and the host nanoseconds they took.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Tally {
    /// Calls made.
    pub calls: u64,
    /// Host nanoseconds spent inside them.
    pub ns: u64,
}

impl Tally {
    fn add(&mut self, t0: Instant) -> u64 {
        let ns = t0.elapsed().as_nanos() as u64;
        self.calls += 1;
        self.ns += ns;
        ns
    }

    fn merge(&mut self, o: Tally) {
        self.calls += o.calls;
        self.ns += o.ns;
    }
}

/// Times a `&self` query into `cell`.
fn timed_query<T>(cell: &Cell<Tally>, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    let mut t = cell.get();
    t.add(t0);
    cell.set(t);
    out
}

/// Locks a sink. Sinks are only written from `Drop`, which does not panic
/// while holding the lock, so a poisoned sink still holds whole tallies.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// One `try_send` a core made: when, what, and whether memory took it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Attempt {
    /// Simulated cycle of the call.
    pub cycle: Cycle,
    /// Index of the issuing core (the order cores tick in).
    pub core: usize,
    /// The request as offered.
    pub req: MemRequest,
    /// Whether memory accepted it.
    pub accepted: bool,
}

/// Host time of the core layer.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct CoreTally {
    /// `Core::tick`, self time (the proxied `try_send` time subtracted).
    pub tick: Tally,
    /// `Core::next_event_at`.
    pub next_event: Tally,
    /// `MemorySubsystem::try_send` as the core called it.
    pub send: Tally,
    /// Sends memory refused.
    pub rejected: u64,
}

impl CoreTally {
    fn merge(&mut self, o: &CoreTally) {
        self.tick.merge(o.tick);
        self.next_event.merge(o.next_event);
        self.send.merge(o.send);
        self.rejected += o.rejected;
    }

    /// Every nanosecond spent under a core decorator.
    pub fn total_ns(&self) -> u64 {
        self.tick.ns + self.next_event.ns + self.send.ns
    }
}

/// What the core decorators of one system hand back when it is dropped.
#[derive(Debug, Default)]
pub struct CoreSink {
    /// Summed tallies over the system's cores.
    pub tally: CoreTally,
    /// One attempt log per core.
    pub logs: Vec<Vec<Attempt>>,
}

impl CoreSink {
    /// The attempts of every core in the order the system made them: by
    /// cycle, then by core index (cores tick in index order within a cycle).
    pub fn attempts(&self) -> Vec<Attempt> {
        let mut all: Vec<Attempt> = self.logs.iter().flatten().copied().collect();
        all.sort_by_key(|a| (a.cycle, a.core));
        all
    }
}

/// The memory path as a core sees it while its tick is timed: times and
/// records `try_send`, forwards everything else untouched.
struct SendProxy<'a> {
    inner: &'a mut dyn MemorySubsystem,
    core: usize,
    tally: &'a mut CoreTally,
    log: &'a mut Vec<Attempt>,
    send_ns: u64,
}

impl MemorySubsystem for SendProxy<'_> {
    fn try_send(&mut self, req: MemRequest, now: Cycle) -> Result<(), MemRequest> {
        let t0 = Instant::now();
        let r = self.inner.try_send(req, now);
        self.send_ns += self.tally.send.add(t0);
        if r.is_err() {
            self.tally.rejected += 1;
        }
        self.log.push(Attempt {
            cycle: now,
            core: self.core,
            req,
            accepted: r.is_ok(),
        });
        r
    }

    fn tick_into(&mut self, now: Cycle, out: &mut Vec<MemResponse>) {
        self.inner.tick_into(now, out);
    }

    fn next_event_at(&self, now: Cycle) -> Option<Cycle> {
        self.inner.next_event_at(now)
    }

    fn stats(&self) -> &MemStats {
        self.inner.stats()
    }

    fn stats_mut(&mut self) -> &mut MemStats {
        self.inner.stats_mut()
    }

    fn refresh_stats(&mut self) {
        self.inner.refresh_stats();
    }

    fn free_slots(&self) -> usize {
        self.inner.free_slots()
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.inner.set_tracer(tracer);
    }

    fn shaper_reports(&self) -> Vec<ShaperReport> {
        self.inner.shaper_reports()
    }

    fn interference(&self) -> Option<InterferenceReport> {
        self.inner.interference()
    }

    fn enable_shaper_timelines(&mut self, window: Cycle) {
        self.inner.enable_shaper_timelines(window);
    }

    fn shaper_timelines(&self) -> Vec<ShaperTimelineReport> {
        self.inner.shaper_timelines()
    }
}

/// A [`Core`] decorator, added with `SystemBuilder::core`.
pub struct TimedCore {
    inner: Box<dyn Core>,
    index: usize,
    tally: CoreTally,
    /// `next_event_at` takes `&self`; the traits only require `Send`, so a
    /// `Cell` can carry its tally.
    next_event: Cell<Tally>,
    log: Vec<Attempt>,
    sink: Arc<Mutex<CoreSink>>,
}

impl TimedCore {
    /// Wraps core number `index` of its system; tallies and the attempt log
    /// go to `sink` when the system drops it.
    pub fn new(inner: Box<dyn Core>, index: usize, sink: Arc<Mutex<CoreSink>>) -> Self {
        Self {
            inner,
            index,
            tally: CoreTally::default(),
            next_event: Cell::new(Tally::default()),
            log: Vec::new(),
            sink,
        }
    }
}

impl Drop for TimedCore {
    fn drop(&mut self) {
        self.tally.next_event = self.next_event.get();
        let mut sink = lock(&self.sink);
        sink.tally.merge(&self.tally);
        sink.logs.push(std::mem::take(&mut self.log));
    }
}

impl Core for TimedCore {
    fn domain(&self) -> DomainId {
        self.inner.domain()
    }

    fn tick(&mut self, now: Cycle, l3: &mut SetAssocCache, mem: &mut dyn MemorySubsystem) {
        let mut proxy = SendProxy {
            inner: mem,
            core: self.index,
            tally: &mut self.tally,
            log: &mut self.log,
            send_ns: 0,
        };
        let t0 = Instant::now();
        self.inner.tick(now, l3, &mut proxy);
        let total = t0.elapsed().as_nanos() as u64;
        let send_ns = proxy.send_ns;
        self.tally.tick.calls += 1;
        self.tally.tick.ns += total.saturating_sub(send_ns);
    }

    fn on_response(&mut self, resp: &MemResponse, now: Cycle) {
        self.inner.on_response(resp, now);
    }

    fn finished(&self) -> bool {
        self.inner.finished()
    }

    fn instructions_retired(&self) -> u64 {
        self.inner.instructions_retired()
    }

    fn finished_at(&self) -> Option<Cycle> {
        self.inner.finished_at()
    }

    fn ipc_at(&self, now: Cycle) -> f64 {
        self.inner.ipc_at(now)
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.inner.set_tracer(tracer);
    }

    fn completion_snapshot(&self) -> dg_prof::HistSnapshot {
        self.inner.completion_snapshot()
    }

    fn next_event_at(&self, now: Cycle) -> Option<Cycle> {
        timed_query(&self.next_event, || self.inner.next_event_at(now))
    }
}

/// Host time of a memory path (controller or whole-controller defense).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct MemTally {
    /// `tick_into` on a command-bus edge (schedule + stall attribution).
    pub edge: Tally,
    /// `tick_into` between edges (completion collection only).
    pub nonedge: Tally,
    /// `next_event_at`.
    pub next_event: Tally,
}

impl MemTally {
    /// Every `tick_into` call.
    pub fn ticks(&self) -> Tally {
        let mut t = self.edge;
        t.merge(self.nonedge);
        t
    }
}

/// A [`MemorySubsystem`] decorator for the controller or a defense.
pub struct TimedMem {
    inner: Box<dyn MemorySubsystem>,
    ratio: dg_sim::clock::ClockRatio,
    tally: MemTally,
    next_event: Cell<Tally>,
    sink: Arc<Mutex<MemTally>>,
}

impl TimedMem {
    /// Wraps `inner`; `cfg` gives the command-bus clock that separates edge
    /// ticks from the rest. Tallies go to `sink` on drop.
    pub fn new(
        inner: Box<dyn MemorySubsystem>,
        cfg: &SystemConfig,
        sink: Arc<Mutex<MemTally>>,
    ) -> Self {
        Self {
            inner,
            ratio: cfg.clock_ratio,
            tally: MemTally::default(),
            next_event: Cell::new(Tally::default()),
            sink,
        }
    }
}

impl Drop for TimedMem {
    fn drop(&mut self) {
        self.tally.next_event = self.next_event.get();
        let mut sink = lock(&self.sink);
        sink.edge.merge(self.tally.edge);
        sink.nonedge.merge(self.tally.nonedge);
        sink.next_event.merge(self.tally.next_event);
    }
}

impl MemorySubsystem for TimedMem {
    fn try_send(&mut self, req: MemRequest, now: Cycle) -> Result<(), MemRequest> {
        self.inner.try_send(req, now)
    }

    fn tick_into(&mut self, now: Cycle, out: &mut Vec<MemResponse>) {
        let t0 = Instant::now();
        self.inner.tick_into(now, out);
        if self.ratio.is_dram_edge(now) {
            self.tally.edge.add(t0);
        } else {
            self.tally.nonedge.add(t0);
        }
    }

    fn next_event_at(&self, now: Cycle) -> Option<Cycle> {
        timed_query(&self.next_event, || self.inner.next_event_at(now))
    }

    fn stats(&self) -> &MemStats {
        self.inner.stats()
    }

    fn stats_mut(&mut self) -> &mut MemStats {
        self.inner.stats_mut()
    }

    fn refresh_stats(&mut self) {
        self.inner.refresh_stats();
    }

    fn free_slots(&self) -> usize {
        self.inner.free_slots()
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.inner.set_tracer(tracer);
    }

    fn shaper_reports(&self) -> Vec<ShaperReport> {
        self.inner.shaper_reports()
    }

    fn interference(&self) -> Option<InterferenceReport> {
        self.inner.interference()
    }

    fn enable_shaper_timelines(&mut self, window: Cycle) {
        self.inner.enable_shaper_timelines(window);
    }

    fn shaper_timelines(&self) -> Vec<ShaperTimelineReport> {
        self.inner.shaper_timelines()
    }
}

/// Host time and work of the DAGguise shaper layer.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct ShaperTally {
    /// `tick_into` (slot matching and emission).
    pub tick: Tally,
    /// Requests the rDAG executor emitted (read when the shaper drops).
    pub emitted: u64,
}

/// A [`DomainShaper`] decorator. `emitted` reads the wrapped shaper's
/// rDAG emission count when it is dropped.
pub struct TimedShaper<S: DomainShaper> {
    inner: S,
    emitted: fn(&S) -> u64,
    tally: ShaperTally,
    sink: Arc<Mutex<ShaperTally>>,
}

impl<S: DomainShaper> TimedShaper<S> {
    /// Wraps `inner`; tallies go to `sink` on drop.
    pub fn new(inner: S, emitted: fn(&S) -> u64, sink: Arc<Mutex<ShaperTally>>) -> Self {
        Self {
            inner,
            emitted,
            tally: ShaperTally::default(),
            sink,
        }
    }
}

impl<S: DomainShaper> Drop for TimedShaper<S> {
    fn drop(&mut self) {
        let mut sink = lock(&self.sink);
        sink.tick.merge(self.tally.tick);
        sink.emitted += (self.emitted)(&self.inner);
    }
}

impl<S: DomainShaper> DomainShaper for TimedShaper<S> {
    fn domain(&self) -> DomainId {
        self.inner.domain()
    }

    fn try_accept(&mut self, req: MemRequest, now: Cycle) -> Result<(), MemRequest> {
        self.inner.try_accept(req, now)
    }

    fn tick_into(&mut self, now: Cycle, space: usize, out: &mut Vec<MemRequest>) {
        let t0 = Instant::now();
        self.inner.tick_into(now, space, out);
        self.tally.tick.add(t0);
    }

    fn next_event_at(&self, now: Cycle) -> Option<Cycle> {
        self.inner.next_event_at(now)
    }

    fn on_response(&mut self, resp: &MemResponse, now: Cycle) -> Option<MemResponse> {
        self.inner.on_response(resp, now)
    }

    fn pending(&self) -> usize {
        self.inner.pending()
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.inner.set_tracer(tracer);
    }

    fn report(&self) -> Option<ShaperReport> {
        self.inner.report()
    }

    fn enable_timeline(&mut self, window: Cycle) {
        self.inner.enable_timeline(window);
    }

    fn timeline(&self) -> Option<ShaperTimelineReport> {
        self.inner.timeline()
    }
}

/// Sinks of one decorated memory path.
#[derive(Debug, Default, Clone)]
pub struct MemSinks {
    /// The FR-FCFS controller (insecure and DAGguise paths).
    pub controller: Arc<Mutex<MemTally>>,
    /// A whole-controller defense (Fixed Service, FS-BTA, TP, ...).
    pub defense: Arc<Mutex<MemTally>>,
    /// DAGguise shapers on protected domains.
    pub shaper: Arc<Mutex<ShaperTally>>,
}

impl MemSinks {
    /// Current totals (complete once the path has been dropped).
    pub fn snapshot(&self) -> (MemTally, MemTally, ShaperTally) {
        (
            *lock(&self.controller),
            *lock(&self.defense),
            *lock(&self.shaper),
        )
    }
}

/// Builds the memory path `kind` for `domains` domains from its public
/// parts, with the controller, the DAGguise shapers, or the whole defense
/// wrapped in timing decorators. Mirrors the discipline `SystemBuilder`
/// applies (open rows for the insecure baseline, closed rows under
/// DAGguise); the replay check proves the two assemblies agree.
pub fn timed_memory(
    cfg: &SystemConfig,
    kind: &MemoryKind,
    domains: usize,
    sinks: &MemSinks,
) -> Box<dyn MemorySubsystem> {
    let mut cfg = cfg.clone();
    cfg.cores = domains;
    if cfg.dram_org.channels > 1 {
        // One decorated lane per channel, interleaved the way the system
        // builder interleaves them.
        let sink = match kind {
            MemoryKind::Insecure => &sinks.controller,
            _ => &sinks.defense,
        };
        let lanes = build_channel_memories(&cfg, kind, domains)
            .into_iter()
            .map(|lane| -> Box<dyn MemorySubsystem> {
                Box::new(TimedMem::new(lane, &cfg, sink.clone()))
            })
            .collect();
        let map = ChannelMap::new(cfg.dram_org.channels, cfg.dram_org.line_bytes);
        return Box::new(MultiChannelMemory::new(lanes, map));
    }
    let controller = |cfg: &SystemConfig| {
        TimedMem::new(
            Box::new(MemoryController::new(cfg, SchedPolicy::FrFcfs)),
            cfg,
            sinks.controller.clone(),
        )
    };
    match kind {
        MemoryKind::Insecure => {
            cfg.row_policy = RowPolicy::Open;
            Box::new(controller(&cfg))
        }
        MemoryKind::Dagguise { protected } => {
            cfg.row_policy = RowPolicy::Closed;
            let shapers: Vec<Box<dyn DomainShaper>> = protected
                .iter()
                .enumerate()
                .map(|(i, t)| -> Box<dyn DomainShaper> {
                    let d = DomainId(i as u16);
                    match t {
                        Some(t) => Box::new(TimedShaper::new(
                            Shaper::new(ShaperConfig::from_system(d, *t, &cfg)),
                            |s: &Shaper| s.executor().emitted_total(),
                            sinks.shaper.clone(),
                        )),
                        None => Box::new(PassThrough::new(d, cfg.queues.transaction_queue)),
                    }
                })
                .collect();
            Box::new(ShapedMemory::new(controller(&cfg), shapers))
        }
        other => Box::new(TimedMem::new(
            build_memory(&cfg, other.clone(), domains),
            &cfg,
            sinks.defense.clone(),
        )),
    }
}

/// Feeds a recorded attempt stream into `mem` exactly as the system did:
/// at every cycle that carries an attempt or a memory event, tick first,
/// then offer that cycle's attempts in order. Quiet cycles are skipped,
/// which the event engine's contract makes equivalent to ticking them.
/// Finishes by stamping `end` as the measured cycle count, as the system
/// does when its run ends.
///
/// Returns the responses the path delivered.
///
/// # Errors
///
/// Names the first attempt whose acceptance differs from the recording.
pub fn replay(
    mem: &mut dyn MemorySubsystem,
    attempts: &[Attempt],
    end: Cycle,
) -> Result<Vec<MemResponse>, String> {
    let mut out = Vec::new();
    let mut i = 0;
    let mut now = match earliest_event(attempts.first().map(|a| a.cycle), mem.next_event_at(0)) {
        Some(t) => t,
        None => end,
    };
    while now < end {
        mem.tick_into(now, &mut out);
        while let Some(a) = attempts.get(i).filter(|a| a.cycle == now) {
            let accepted = mem.try_send(a.req, now).is_ok();
            if accepted != a.accepted {
                return Err(format!(
                    "replay diverged at cycle {now}: core {} request {:?} was {} in the system",
                    a.core,
                    a.req.id,
                    if a.accepted { "accepted" } else { "refused" }
                ));
            }
            i += 1;
        }
        let next = earliest_event(attempts.get(i).map(|a| a.cycle), mem.next_event_at(now + 1));
        now = next.map_or(end, |t| t.max(now + 1));
    }
    if i != attempts.len() {
        return Err(format!(
            "{} attempts fall after the run's end",
            attempts.len() - i
        ));
    }
    mem.stats_mut().set_cycles(end);
    Ok(out)
}
