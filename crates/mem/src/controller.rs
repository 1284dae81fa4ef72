//! The memory controller proper: transaction queue + command scheduler.

use std::collections::VecDeque;

use dg_dram::{AddressMapper, BlockReason, DramCommand, DramDevice, MapScheme, PhysLoc};
use dg_obs::{BankCmd, EventKind, InterferenceMatrix, InterferenceReport, StallCause, Tracer};
use dg_sim::clock::Cycle;
use dg_sim::config::{RowPolicy, SystemConfig};
use dg_sim::types::{DomainId, MemRequest, MemResponse};
use serde::{Deserialize, Serialize};

use crate::front::MemorySubsystem;
use crate::stats::{BankStats, MemStats};

/// DRAM command scheduling policy (§2.1: "command scheduling can vary in
/// complexity, ranging from a basic First Come First Served (FCFS) policy,
/// to policies that optimize for row-buffer hits").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SchedPolicy {
    /// Strictly serve the oldest transaction; no reordering.
    Fcfs,
    /// First-Ready FCFS: row hits first, then oldest.
    FrFcfs,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TxnState {
    /// Waiting for its column access (may still need ACT/PRE first).
    Pending,
    /// Column command issued; data completes at `done`.
    Issued { done: Cycle },
}

#[derive(Debug, Clone)]
struct Txn {
    req: MemRequest,
    loc: PhysLoc,
    arrived: Cycle,
    state: TxnState,
}

impl Txn {
    fn column_cmd(&self, auto_precharge: bool) -> DramCommand {
        if self.req.req_type.is_write() {
            DramCommand::Write {
                bank: self.loc.bank,
                auto_precharge,
            }
        } else {
            DramCommand::Read {
                bank: self.loc.bank,
                auto_precharge,
            }
        }
    }

    /// The next command this transaction needs from `device`: its column
    /// access on a row hit, else PRE on a conflict, else ACT.
    fn needed_cmd(&self, device: &DramDevice, auto_precharge: bool) -> DramCommand {
        match device.bank(self.loc.bank).open_row() {
            Some(row) if row == self.loc.row => self.column_cmd(auto_precharge),
            Some(_) => DramCommand::Precharge {
                bank: self.loc.bank,
            },
            None => DramCommand::Activate {
                bank: self.loc.bank,
                row: self.loc.row,
            },
        }
    }
}

/// Who last touched each shared DRAM resource, so a blocked command's wait
/// can be charged to the domain that made the resource busy.
///
/// Purely observational: updated only when the scheduler issues a command
/// anyway, and read by [`MemoryController::charge_until`]. It never feeds
/// back into scheduling decisions, so attribution cannot perturb the
/// simulation (the observer-effect contract of `dg_obs::leak`).
#[derive(Debug)]
struct LeakTrack {
    matrix: InterferenceMatrix,
    /// Domain whose command last engaged each bank (`None` for
    /// refresh-driven commands with no owner).
    bank_user: Vec<Option<DomainId>>,
    /// Domain of the last column command (owns the data bus / turnaround).
    col_user: Option<DomainId>,
    /// Domain of the last command on the shared command bus.
    cmd_user: Option<DomainId>,
    /// Domains of up to the last four ACTs (tRRD/tFAW window), oldest first.
    act_users: VecDeque<Option<DomainId>>,
    /// Set when a command issued on the current bus edge: the arbitration
    /// winner other pending transactions lost to. `None` between edges.
    issued_this_edge: Option<Option<DomainId>>,
    /// Every command-bus edge before this cycle has been charged.
    charged_until: Cycle,
    /// Scratch for [`MemoryController::charge_until`]: the domain of each
    /// bank's oldest pending transaction.
    bank_head: Vec<Option<DomainId>>,
}

impl LeakTrack {
    fn new(domains: usize, banks: usize) -> Self {
        Self {
            matrix: InterferenceMatrix::new(domains),
            bank_user: vec![None; banks],
            col_user: None,
            cmd_user: None,
            act_users: VecDeque::with_capacity(4),
            issued_this_edge: None,
            charged_until: 0,
            bank_head: vec![None; banks],
        }
    }
}

/// The shared memory controller: a global transaction queue feeding a
/// command scheduler that drives the DRAM device.
///
/// One DRAM command may issue per command-bus edge. Refresh takes priority
/// when due: open banks are drained and precharged, then a rank-wide REF is
/// issued.
#[derive(Debug)]
pub struct MemoryController {
    device: DramDevice,
    mapper: AddressMapper,
    row_policy: RowPolicy,
    policy: SchedPolicy,
    txq: VecDeque<Txn>,
    capacity: usize,
    stats: MemStats,
    refresh_pending: bool,
    tracer: Tracer,
    /// Cycle each bank's current row was opened (for row-hit accounting);
    /// `None` while precharged.
    bank_open_since: Vec<Option<Cycle>>,
    leak: LeakTrack,
}

impl MemoryController {
    /// Builds a controller for the given system configuration.
    pub fn new(cfg: &SystemConfig, policy: SchedPolicy) -> Self {
        let device = DramDevice::new(cfg.dram_org, cfg.timing, cfg.clock_ratio);
        let mapper = AddressMapper::new(
            MapScheme::BankInterleaved,
            cfg.dram_org.banks,
            cfg.dram_org.row_bytes,
            cfg.dram_org.line_bytes,
        );
        // Reserve a couple of extra stats slots for shaper-internal domains.
        let domains = cfg.cores + 2;
        let banks = cfg.dram_org.banks as usize;
        let mut stats = MemStats::new(domains, cfg.dram_org.line_bytes);
        stats.banks = vec![BankStats::default(); banks];
        Self {
            device,
            mapper,
            row_policy: cfg.row_policy,
            policy,
            txq: VecDeque::with_capacity(cfg.queues.transaction_queue),
            capacity: cfg.queues.transaction_queue,
            stats,
            refresh_pending: false,
            tracer: Tracer::noop(),
            bank_open_since: vec![None; banks],
            leak: LeakTrack::new(domains, banks),
        }
    }

    /// Records a command-bus event when tracing is enabled.
    fn trace_cmd(&self, cmd: DramCommand, now: Cycle) {
        self.tracer.record(now, || match cmd {
            DramCommand::Activate { bank, .. } => EventKind::BankCommand {
                cmd: BankCmd::Act,
                bank,
            },
            DramCommand::Read { bank, .. } => EventKind::BankCommand {
                cmd: BankCmd::Rd,
                bank,
            },
            DramCommand::Write { bank, .. } => EventKind::BankCommand {
                cmd: BankCmd::Wr,
                bank,
            },
            DramCommand::Precharge { bank } => EventKind::BankCommand {
                cmd: BankCmd::Pre,
                bank,
            },
            DramCommand::Refresh => EventKind::BankCommand {
                cmd: BankCmd::Ref,
                bank: 0,
            },
        });
    }

    /// Bookkeeping for every issued command: trace event, per-bank activity
    /// counters, row-open state, and the resource-ownership trail used by
    /// stall attribution. `domain` is the owner of the transaction the
    /// command serves (`None` for refresh-driven maintenance commands).
    fn note_cmd(&mut self, cmd: DramCommand, now: Cycle, domain: Option<DomainId>) {
        self.trace_cmd(cmd, now);
        self.leak.cmd_user = domain;
        self.leak.issued_this_edge = Some(domain);
        match cmd {
            DramCommand::Activate { bank, .. } => {
                let b = bank as usize;
                self.stats.banks[b].acts += 1;
                self.bank_open_since[b] = Some(now);
                self.leak.bank_user[b] = domain;
                if self.leak.act_users.len() == 4 {
                    self.leak.act_users.pop_front();
                }
                self.leak.act_users.push_back(domain);
            }
            DramCommand::Read {
                bank,
                auto_precharge,
            }
            | DramCommand::Write {
                bank,
                auto_precharge,
            } => {
                let b = bank as usize;
                self.leak.col_user = domain;
                self.leak.bank_user[b] = domain;
                if auto_precharge {
                    self.stats.banks[b].precharges += 1;
                    self.bank_open_since[b] = None;
                }
            }
            DramCommand::Precharge { bank } => {
                let b = bank as usize;
                self.stats.banks[b].precharges += 1;
                self.bank_open_since[b] = None;
                self.leak.bank_user[b] = domain;
            }
            DramCommand::Refresh => {
                for open in &mut self.bank_open_since {
                    *open = None;
                }
            }
        }
    }

    /// The address mapper in use (attackers and shapers need it to target
    /// specific banks).
    pub fn mapper(&self) -> &AddressMapper {
        &self.mapper
    }

    /// Free entries in the transaction queue.
    pub fn free_space(&self) -> usize {
        self.capacity - self.txq.len()
    }

    /// Current transaction queue occupancy.
    pub fn occupancy(&self) -> usize {
        self.txq.len()
    }

    /// The row-buffer policy this controller runs.
    pub fn row_policy(&self) -> RowPolicy {
        self.row_policy
    }

    fn auto_precharge(&self) -> bool {
        self.row_policy == RowPolicy::Closed
    }

    /// Attempts to issue one DRAM command at `now` (must be a bus edge).
    fn schedule(&mut self, now: Cycle) {
        // Refresh has priority: drain open banks, then REF.
        if self.device.refresh_due(now) {
            self.refresh_pending = true;
        }
        if self.refresh_pending && self.try_refresh(now) {
            return;
        }

        match self.policy {
            SchedPolicy::Fcfs => self.schedule_fcfs(now),
            SchedPolicy::FrFcfs => self.schedule_frfcfs(now),
        }
    }

    /// Returns true if a refresh-related command was issued (or refresh
    /// still blocks normal scheduling this edge).
    fn try_refresh(&mut self, now: Cycle) -> bool {
        // Precharge any open bank whose precharge is legal.
        for b in 0..self.device.bank_count() {
            if self.device.bank(b).open_row().is_some() {
                let cmd = DramCommand::Precharge { bank: b };
                if self.device.earliest(cmd, now) == now {
                    self.device.issue(cmd, now);
                    self.note_cmd(cmd, now, None);
                    return true;
                }
            }
        }
        if !self.device.all_banks_idle() {
            // Waiting for in-progress accesses / precharges to become legal;
            // block column/act scheduling so we make forward progress.
            return true;
        }
        let cmd = DramCommand::Refresh;
        if self.device.earliest(cmd, now) == now {
            self.device.issue(cmd, now);
            self.note_cmd(cmd, now, None);
            self.refresh_pending = false;
            self.stats.refreshes = self.device.refreshes();
            self.stats.energy.record_refresh();
            return true;
        }
        true
    }

    fn issue_column(&mut self, idx: usize, now: Cycle) {
        let txn = &self.txq[idx];
        let cmd = txn.column_cmd(self.auto_precharge());
        let (bank, arrived, domain) = (txn.loc.bank as usize, txn.arrived, txn.req.domain);
        // A row hit means the row was already open when this transaction
        // arrived; otherwise the transaction paid for (at least) its own
        // activation. Classify before note_cmd clears auto-precharged rows.
        if self.bank_open_since[bank].is_some_and(|opened| opened < arrived) {
            self.stats.banks[bank].row_hits += 1;
        } else {
            self.stats.banks[bank].row_misses += 1;
        }
        let done = self
            .device
            .issue(cmd, now)
            .expect("column returns data time");
        self.note_cmd(cmd, now, Some(domain));
        self.txq[idx].state = TxnState::Issued { done };
    }

    fn schedule_fcfs(&mut self, now: Cycle) {
        // Serve only the oldest pending transaction.
        let Some(idx) = self
            .txq
            .iter()
            .position(|t| matches!(t.state, TxnState::Pending))
        else {
            return;
        };
        let cmd = self.txq[idx].needed_cmd(&self.device, self.auto_precharge());
        if self.device.earliest(cmd, now) != now {
            return;
        }
        if cmd.is_column() {
            self.issue_column(idx, now);
        } else {
            self.device.issue(cmd, now);
            self.note_cmd(cmd, now, Some(self.txq[idx].req.domain));
        }
    }

    fn schedule_frfcfs(&mut self, now: Cycle) {
        // 1. Oldest row-hit column access that is legal right now.
        let hit = self.txq.iter().position(|t| {
            matches!(t.state, TxnState::Pending)
                && self.device.bank(t.loc.bank).open_row() == Some(t.loc.row)
                && self
                    .device
                    .earliest(t.column_cmd(self.auto_precharge()), now)
                    == now
        });
        if let Some(idx) = hit {
            self.issue_column(idx, now);
            return;
        }

        // 2. Oldest transaction whose bank is idle: activate its row.
        //    Skip banks that already have an older same-bank transaction in
        //    front (FCFS within a bank).
        let mut seen_banks = 0u64;
        for i in 0..self.txq.len() {
            let t = &self.txq[i];
            if !matches!(t.state, TxnState::Pending) {
                continue;
            }
            let bank_bit = 1u64 << t.loc.bank;
            if seen_banks & bank_bit != 0 {
                continue;
            }
            seen_banks |= bank_bit;
            if self.device.bank(t.loc.bank).open_row().is_none() {
                let domain = t.req.domain;
                let cmd = DramCommand::Activate {
                    bank: t.loc.bank,
                    row: t.loc.row,
                };
                if self.device.earliest(cmd, now) == now {
                    self.device.issue(cmd, now);
                    self.note_cmd(cmd, now, Some(domain));
                    return;
                }
            }
        }

        // 3. Row conflict: precharge the bank of the oldest conflicting
        //    transaction, provided no pending transaction still hits the
        //    open row (serve hits before closing).
        if self.row_policy == RowPolicy::Open {
            let conflict = self.txq.iter().position(|t| {
                matches!(t.state, TxnState::Pending)
                    && matches!(self.device.bank(t.loc.bank).open_row(), Some(r) if r != t.loc.row)
            });
            if let Some(idx) = conflict {
                let bank = self.txq[idx].loc.bank;
                let open = self.device.bank(bank).open_row();
                let hit_waiting = self.txq.iter().any(|t| {
                    matches!(t.state, TxnState::Pending)
                        && t.loc.bank == bank
                        && Some(t.loc.row) == open
                });
                if !hit_waiting {
                    let domain = self.txq[idx].req.domain;
                    let cmd = DramCommand::Precharge { bank };
                    if self.device.earliest(cmd, now) == now {
                        self.device.issue(cmd, now);
                        self.note_cmd(cmd, now, Some(domain));
                    }
                }
            }
        }
    }

    /// Charges the stall of every pending transaction on the command-bus
    /// edges in `[charged_until, to)` to the domain whose earlier command
    /// made the blocking resource busy, then advances `charged_until`.
    ///
    /// Callers run it before anything that changes what it reads — an
    /// issue, an enqueue, a `refresh_pending` flip — so the queue, the
    /// device horizons and the ownership trail are fixed across the span
    /// and each transaction's charge is closed-form. A transaction behind
    /// an older same-bank one waits on that owner (QueueWait) on every
    /// edge. A bank head is held by its binding reason on the edges below its
    /// latest device horizon; on the edges after it the command was legal
    /// but not picked, so it lost arbitration to `winner` (the command
    /// issued on this edge, when the span is that one edge), was held back
    /// by a pending refresh drain, or did not wait at all. Purely
    /// observational: reads horizons, never issues.
    fn charge_until(&mut self, to: Cycle, winner: Option<Option<DomainId>>) {
        let from = self.leak.charged_until;
        if to <= from {
            return;
        }
        self.leak.charged_until = to;
        let cmd_cycle = self.device.timing().cmd_cycle;
        let edges_before = |t: Cycle| t.div_ceil(cmd_cycle);
        let span = edges_before(to) - edges_before(from);
        if span == 0 {
            return;
        }
        let auto_precharge = self.auto_precharge();
        let Self {
            txq,
            device,
            stats,
            refresh_pending,
            leak,
            ..
        } = self;
        let LeakTrack {
            matrix,
            bank_user,
            col_user,
            cmd_user,
            act_users,
            bank_head,
            ..
        } = leak;
        let as_u16 = |d: Option<DomainId>| d.map(|d| d.0);
        bank_head.fill(None);
        for txn in txq.iter() {
            if !matches!(txn.state, TxnState::Pending) {
                continue;
            }
            let b = txn.loc.bank as usize;
            let victim = txn.req.domain.0;
            // FCFS within a bank: a transaction behind an older same-bank
            // transaction waits on that owner, whatever the device says.
            if let Some(owner) = bank_head[b] {
                matrix.charge(
                    victim,
                    Some(owner.0),
                    StallCause::QueueWait,
                    span * cmd_cycle,
                );
                continue;
            }
            bank_head[b] = Some(txn.req.domain);
            // This transaction heads its bank: which device horizon holds
            // its next command back, and until when?
            let (horizon, reason) = device.binding_horizon(txn.needed_cmd(device, auto_precharge));
            let blocked = edges_before(horizon.clamp(from, to)) - edges_before(from);
            if blocked > 0 {
                let (culprit, cause) = match reason {
                    BlockReason::Bank => (as_u16(bank_user[b]), StallCause::BankBusy),
                    BlockReason::Rrd => (
                        as_u16(act_users.back().copied().flatten()),
                        StallCause::ActWindow,
                    ),
                    BlockReason::Faw => {
                        stats.banks[b].faw_stall_cycles += blocked * cmd_cycle;
                        // tFAW binds to the oldest ACT in the window.
                        (
                            as_u16(act_users.front().copied().flatten()),
                            StallCause::ActWindow,
                        )
                    }
                    BlockReason::Bus => (as_u16(*col_user), StallCause::BusConflict),
                    BlockReason::CmdBus => (as_u16(*cmd_user), StallCause::BusConflict),
                    BlockReason::Refresh => (None, StallCause::Refresh),
                };
                matrix.charge(victim, culprit, cause, blocked * cmd_cycle);
            }
            let legal = span - blocked;
            if legal > 0 {
                if let Some(winner) = winner {
                    matrix.charge(
                        victim,
                        as_u16(winner),
                        StallCause::BusConflict,
                        legal * cmd_cycle,
                    );
                } else if *refresh_pending {
                    matrix.charge(victim, None, StallCause::Refresh, legal * cmd_cycle);
                }
            }
        }
    }

    fn collect_into(&mut self, now: Cycle, out: &mut Vec<MemResponse>) {
        let mut i = 0;
        while i < self.txq.len() {
            if let TxnState::Issued { done: d } = self.txq[i].state {
                if d <= now {
                    let txn = self.txq.remove(i).expect("index in range");
                    let resp = MemResponse {
                        id: txn.req.id,
                        domain: txn.req.domain,
                        addr: txn.req.addr,
                        req_type: txn.req.req_type,
                        kind: txn.req.kind,
                        arrived_at: txn.arrived,
                        completed_at: d,
                    };
                    self.stats.record(&resp);
                    self.tracer.record(now, || EventKind::Response {
                        id: resp.id,
                        domain: resp.domain,
                        latency: resp.latency(),
                        fake: resp.kind.is_fake(),
                    });
                    self.tracer.record(now, || EventKind::TxqOccupancy {
                        count: self.txq.len() as u32,
                    });
                    out.push(resp);
                    continue;
                }
            }
            i += 1;
        }
    }
}

impl MemorySubsystem for MemoryController {
    fn try_send(&mut self, req: MemRequest, now: Cycle) -> Result<(), MemRequest> {
        if self.txq.len() >= self.capacity {
            return Err(req);
        }
        // The edges before `now` saw the queue without this transaction.
        self.charge_until(now, None);
        let loc = self.mapper.decode(req.addr);
        self.tracer.record(now, || EventKind::TxqEnqueue {
            id: req.id,
            domain: req.domain,
            bank: loc.bank,
        });
        self.txq.push_back(Txn {
            req,
            loc,
            arrived: now,
            state: TxnState::Pending,
        });
        self.tracer.record(now, || EventKind::TxqOccupancy {
            count: self.txq.len() as u32,
        });
        Ok(())
    }

    fn tick_into(&mut self, now: Cycle, out: &mut Vec<MemResponse>) {
        let _prof = dg_prof::span("controller");
        self.collect_into(now, out);
        // Edges skipped since the last visit issued nothing and saw the
        // state the last visit or enqueue left behind.
        self.charge_until(now, None);
        let cmd_cycle = self.device.timing().cmd_cycle;
        if now.is_multiple_of(cmd_cycle) {
            let _prof = dg_prof::span("dram_device");
            self.leak.issued_this_edge = None;
            self.schedule(now);
            self.charge_until(now + cmd_cycle, self.leak.issued_this_edge);
        }
    }

    fn next_event_at(&self, now: Cycle) -> Option<Cycle> {
        let auto_precharge = self.auto_precharge();
        // Completions are collected the cycle `done` is reached.
        let mut done_at = Cycle::MAX;
        // Every other event is the first command-bus edge at or after some
        // device horizon (`DramDevice::earliest` rounds each the same,
        // monotone way), so the horizons are folded first and rounded once.
        //
        // Refresh maintenance wakes the controller even when fully idle:
        // the first edge at or after the deadline flips `refresh_pending`.
        let mut horizon = self.device.refresh_deadline();
        // A refresh drain may precharge any open bank, so it wakes on every
        // edge until the REF issues.
        if self.refresh_pending {
            horizon = horizon.min(now);
        }
        // Banks already queried, one bit per bank for each command kind
        // (RD, WR, PRE, ACT). A bank's pending transactions need at most
        // these four commands, and an ACT's horizon does not depend on its
        // row, so each (bank, kind) pair needs one device query.
        let mut asked = [0u64; 4];
        for txn in &self.txq {
            match txn.state {
                TxnState::Issued { done } => done_at = done_at.min(done),
                // Every command the scheduler can issue is the next command
                // of some pending transaction, so the first edge any of them
                // is legal bounds the next issue. Skipped edges are charged
                // in closed form on the next visit or enqueue.
                TxnState::Pending => {
                    let cmd = txn.needed_cmd(&self.device, auto_precharge);
                    let kind = match cmd {
                        DramCommand::Read { .. } => 0,
                        DramCommand::Write { .. } => 1,
                        DramCommand::Precharge { .. } => 2,
                        DramCommand::Activate { .. } | DramCommand::Refresh => 3,
                    };
                    let bank = 1u64 << txn.loc.bank;
                    if asked[kind] & bank == 0 {
                        asked[kind] |= bank;
                        horizon = horizon.min(self.device.binding_horizon(cmd).0);
                    }
                }
            }
        }
        let edge = horizon
            .max(now)
            .next_multiple_of(self.device.timing().cmd_cycle);
        Some(edge.min(done_at.max(now)))
    }

    fn stats(&self) -> &MemStats {
        &self.stats
    }

    fn stats_mut(&mut self) -> &mut MemStats {
        &mut self.stats
    }

    fn free_slots(&self) -> usize {
        self.free_space()
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    fn interference(&self) -> Option<InterferenceReport> {
        Some(self.leak.matrix.report())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_sim::types::{DomainId, ReqId};

    fn cfg() -> SystemConfig {
        let mut c = SystemConfig::two_core();
        // Unit ratio keeps latencies equal to Table 2 DRAM-cycle numbers.
        c.clock_ratio = dg_sim::clock::ClockRatio::new(1);
        c
    }

    /// Ticks the controller until its queue drains, then keeps ticking for a
    /// grace window so late (dropped or straggling) responses still surface.
    /// Breaking as soon as the queue looks empty would silently pass tests
    /// that drop trailing responses.
    fn run_until_done(mc: &mut MemoryController, budget: Cycle) -> Vec<MemResponse> {
        const GRACE: Cycle = 500;
        let mut out = Vec::new();
        let mut drained_at: Option<Cycle> = None;
        for now in 0..budget {
            out.extend(mc.tick(now));
            match drained_at {
                None if mc.occupancy() == 0 && !out.is_empty() => drained_at = Some(now),
                Some(at) if now >= at + GRACE => break,
                _ => {}
            }
        }
        out
    }

    fn read_at(mc: &mut MemoryController, addr: u64, id: u64, now: Cycle) {
        let req = MemRequest::read(DomainId(0), addr, now).with_id(ReqId(id));
        mc.try_send(req, now).unwrap();
    }

    #[test]
    fn single_read_latency_closed_row() {
        let c = cfg().with_row_policy(RowPolicy::Closed);
        let mut mc = MemoryController::new(&c, SchedPolicy::FrFcfs);
        read_at(&mut mc, 0x40, 1, 0);
        let done = run_until_done(&mut mc, 10_000);
        assert_eq!(done.len(), 1);
        let t = DramDevice::new(c.dram_org, c.timing, c.clock_ratio);
        // ACT at 0, RD at tRCD, data at tRCD + tCAS + tBURST.
        assert_eq!(done[0].latency(), t.timing().closed_row_read_latency());
    }

    #[test]
    fn open_row_hit_is_faster_than_first_access() {
        let c = cfg(); // open-row
        let mut mc = MemoryController::new(&c, SchedPolicy::FrFcfs);
        // Two reads to the same row: second should be a row hit.
        read_at(&mut mc, 0x0, 1, 0);
        let mut out = Vec::new();
        let mut now = 0;
        while out.is_empty() {
            out.extend(mc.tick(now));
            now += 1;
        }
        let first_latency = out[0].latency();
        read_at(&mut mc, 0x0, 2, now);
        let mut out2 = Vec::new();
        let start = now;
        while out2.is_empty() {
            out2.extend(mc.tick(now));
            now += 1;
        }
        let hit_latency = out2[0].completed_at - start;
        assert!(
            hit_latency < first_latency,
            "hit {hit_latency} vs miss {first_latency}"
        );
    }

    #[test]
    fn row_conflict_is_slower_than_hit() {
        let c = cfg();
        let mapper = AddressMapper::new(MapScheme::BankInterleaved, 8, 8192, 64);
        let mut mc = MemoryController::new(&c, SchedPolicy::FrFcfs);
        // Open row 0 of bank 0.
        let a0 = mapper.encode(PhysLoc {
            bank: 0,
            row: 0,
            col: 0,
        });
        read_at(&mut mc, a0, 1, 0);
        let mut now = 0;
        let mut out = Vec::new();
        while out.is_empty() {
            out.extend(mc.tick(now));
            now += 1;
        }
        // Conflict: same bank, different row.
        let a1 = mapper.encode(PhysLoc {
            bank: 0,
            row: 9,
            col: 0,
        });
        read_at(&mut mc, a1, 2, now);
        let start = now;
        let mut out2 = Vec::new();
        while out2.is_empty() {
            out2.extend(mc.tick(now));
            now += 1;
        }
        let conflict_latency = out2[0].completed_at - start;
        let t = mc.device.timing();
        assert!(conflict_latency >= t.tRP + t.tRCD + t.tCAS);
    }

    #[test]
    fn bank_parallelism_overlaps_requests() {
        let c = cfg().with_row_policy(RowPolicy::Closed);
        let mapper = AddressMapper::new(MapScheme::BankInterleaved, 8, 8192, 64);

        // Two requests to different banks complete much faster than two to
        // the same bank.
        let mut mc = MemoryController::new(&c, SchedPolicy::FrFcfs);
        let b0 = mapper.encode(PhysLoc {
            bank: 0,
            row: 0,
            col: 0,
        });
        let b1 = mapper.encode(PhysLoc {
            bank: 1,
            row: 0,
            col: 0,
        });
        read_at(&mut mc, b0, 1, 0);
        read_at(&mut mc, b1, 2, 0);
        let done = run_until_done(&mut mc, 10_000);
        let parallel_finish = done.iter().map(|r| r.completed_at).max().unwrap();

        let mut mc2 = MemoryController::new(&c, SchedPolicy::FrFcfs);
        let same0 = mapper.encode(PhysLoc {
            bank: 0,
            row: 0,
            col: 0,
        });
        let same1 = mapper.encode(PhysLoc {
            bank: 0,
            row: 1,
            col: 0,
        });
        read_at(&mut mc2, same0, 1, 0);
        read_at(&mut mc2, same1, 2, 0);
        let done2 = run_until_done(&mut mc2, 10_000);
        let serial_finish = done2.iter().map(|r| r.completed_at).max().unwrap();

        assert!(
            parallel_finish < serial_finish,
            "parallel {parallel_finish} vs serial {serial_finish}"
        );
    }

    #[test]
    fn fcfs_does_not_reorder() {
        let c = cfg().with_row_policy(RowPolicy::Closed);
        let mapper = AddressMapper::new(MapScheme::BankInterleaved, 8, 8192, 64);
        let mut mc = MemoryController::new(&c, SchedPolicy::Fcfs);
        // Same bank twice then different bank: FCFS must finish them in order.
        let a = mapper.encode(PhysLoc {
            bank: 0,
            row: 0,
            col: 0,
        });
        let b = mapper.encode(PhysLoc {
            bank: 0,
            row: 1,
            col: 0,
        });
        let e = mapper.encode(PhysLoc {
            bank: 3,
            row: 0,
            col: 0,
        });
        read_at(&mut mc, a, 1, 0);
        read_at(&mut mc, b, 2, 0);
        read_at(&mut mc, e, 3, 0);
        let mut done = Vec::new();
        for now in 0..100_000 {
            done.extend(mc.tick(now));
            if done.len() == 3 {
                break;
            }
        }
        let order: Vec<u64> = done.iter().map(|r| r.id.0).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn queue_backpressure() {
        let c = cfg();
        let mut mc = MemoryController::new(&c, SchedPolicy::FrFcfs);
        for i in 0..c.queues.transaction_queue {
            read_at(&mut mc, (i as u64) * 64, i as u64, 0);
        }
        let req = MemRequest::read(DomainId(0), 0x9999, 0).with_id(ReqId(99));
        assert!(mc.try_send(req, 0).is_err());
        assert_eq!(mc.free_space(), 0);
    }

    #[test]
    fn refresh_eventually_happens() {
        let c = cfg();
        let mut mc = MemoryController::new(&c, SchedPolicy::FrFcfs);
        let refi = mc.device.timing().tREFI;
        for now in 0..refi + 1000 {
            mc.tick(now);
        }
        assert!(mc.device.refreshes() >= 1);
    }

    #[test]
    fn refresh_under_load_preserves_all_requests() {
        let c = cfg().with_row_policy(RowPolicy::Closed);
        let mut mc = MemoryController::new(&c, SchedPolicy::FrFcfs);
        let mut sent = 0u64;
        let mut done = 0u64;
        let horizon = mc.device.timing().tREFI * 3;
        for now in 0..horizon {
            if now % 50 == 0 && mc.free_space() > 0 {
                read_at(&mut mc, (sent % 4096) * 64, sent, now);
                sent += 1;
            }
            done += mc.tick(now).len() as u64;
        }
        // Drain.
        for now in horizon..horizon + 10_000 {
            done += mc.tick(now).len() as u64;
        }
        assert!(mc.device.refreshes() >= 2, "refreshes ran under load");
        assert_eq!(sent, done, "no transaction lost across refresh");
    }

    #[test]
    fn bank_counters_track_hits_and_misses() {
        let c = cfg(); // open-row
        let mut mc = MemoryController::new(&c, SchedPolicy::FrFcfs);
        // First access opens the row (miss); two more to the same row hit.
        read_at(&mut mc, 0x0, 1, 0);
        let mut now = 0;
        let mut done = 0;
        while done < 3 {
            if done == 1 && mc.occupancy() == 0 {
                read_at(&mut mc, 0x0, 2, now);
                read_at(&mut mc, 0x0, 3, now);
            }
            done += mc.tick(now).len();
            now += 1;
        }
        let b0 = &mc.stats().banks[0];
        assert_eq!(b0.acts, 1);
        assert_eq!(b0.row_misses, 1);
        assert_eq!(b0.row_hits, 2);
        assert_eq!(b0.precharges, 0);
    }

    #[test]
    fn closed_row_counts_auto_precharges() {
        let c = cfg().with_row_policy(RowPolicy::Closed);
        let mut mc = MemoryController::new(&c, SchedPolicy::FrFcfs);
        read_at(&mut mc, 0x0, 1, 0);
        run_until_done(&mut mc, 10_000);
        let b0 = &mc.stats().banks[0];
        assert_eq!(b0.acts, 1);
        assert_eq!(b0.row_misses, 1);
        assert_eq!(b0.precharges, 1);
    }

    #[test]
    fn interference_attributes_cross_domain_stalls() {
        let c = cfg().with_row_policy(RowPolicy::Closed);
        let mut mc = MemoryController::new(&c, SchedPolicy::FrFcfs);
        // Two domains hammering the same bank: whoever queues second waits
        // on the first, and the matrix must say so.
        let mut sent = 0u64;
        let mut done = 0u64;
        for now in 0..20_000 {
            if now % 40 == 0 && mc.free_space() >= 2 {
                let a = MemRequest::read(DomainId(0), 0x0, now).with_id(ReqId(sent));
                let b = MemRequest::read(DomainId(1), 0x2000, now).with_id(ReqId(sent + 1));
                mc.try_send(a, now).unwrap();
                mc.try_send(b, now).unwrap();
                sent += 2;
            }
            done += mc.tick(now).len() as u64;
        }
        assert!(done > 0);
        let report = mc.interference().expect("controller attributes stalls");
        // Domain 1 always queues behind domain 0 on the shared bank.
        assert!(
            report.matrix[1][0] > 0,
            "expected cross-domain stall cycles, got {report:?}"
        );
        assert!(report.total_stall_cycles > 0);
        let by_cause: u64 = report.by_cause.iter().map(|c| c.cycles).sum();
        assert_eq!(by_cause, report.total_stall_cycles);
    }

    #[test]
    fn idle_controller_attributes_nothing() {
        let c = cfg();
        let mut mc = MemoryController::new(&c, SchedPolicy::FrFcfs);
        for now in 0..1_000 {
            mc.tick(now);
        }
        assert_eq!(mc.interference().unwrap().total_stall_cycles, 0);
    }

    #[test]
    fn next_event_waits_for_the_first_legal_issue() {
        let c = SystemConfig::two_core(); // several CPU cycles per bus edge
        let mut mc = MemoryController::new(&c, SchedPolicy::FrFcfs);
        let t = *mc.device.timing();
        assert!(t.cmd_cycle > 1);
        read_at(&mut mc, 0x40, 1, 0);
        let bank = mc.mapper.decode(0x40).bank as usize;
        mc.tick(0);
        assert_eq!(mc.stats().banks[bank].acts, 1, "ACT issues at edge 0");
        // The read's RD is held by tRCD: the controller sleeps until that
        // edge instead of waking on every edge in between.
        let rd_edge = t.tRCD.next_multiple_of(t.cmd_cycle);
        assert!(rd_edge > t.cmd_cycle);
        assert_eq!(mc.next_event_at(1), Some(rd_edge));
        for now in 1..rd_edge {
            assert!(mc.tick(now).is_empty());
            assert_eq!(mc.next_event_at(now + 1), Some(rd_edge));
        }
        mc.tick(rd_edge);
        // Issued: the next event is its data completion.
        let done = rd_edge + t.tCAS + t.tBURST;
        assert_eq!(mc.next_event_at(rd_edge + 1), Some(done));
        // The skipped edges were still charged: BankBusy on every edge from
        // the ACT's up to the RD's, owned by the reader itself.
        let leak = mc.interference().unwrap();
        assert_eq!(leak.total_stall_cycles, rd_edge);
        assert_eq!(leak.matrix[0][0], rd_edge);
    }

    #[test]
    fn next_event_is_the_next_edge_while_refresh_is_pending() {
        let c = SystemConfig::two_core();
        let mut mc = MemoryController::new(&c, SchedPolicy::FrFcfs);
        let t = *mc.device.timing();
        let cc = t.cmd_cycle;
        // Open a row one edge before the refresh deadline: at the deadline
        // the drain cannot precharge it yet (tRAS), so refresh stays
        // pending and every edge may be the one the drain needs.
        let act_at = t.tREFI - cc;
        read_at(&mut mc, 0x40, 1, act_at);
        mc.tick(act_at);
        mc.tick(t.tREFI);
        assert!(mc.refresh_pending);
        assert_eq!(mc.next_event_at(t.tREFI + 1), Some(t.tREFI + cc));
    }

    /// The fold `next_event_at` deduplicates: one device query per
    /// pending transaction.
    fn per_txn_next_event(mc: &MemoryController, now: Cycle) -> Option<Cycle> {
        let cmd_cycle = mc.device.timing().cmd_cycle;
        let mut ev: Option<Cycle> = None;
        for txn in &mc.txq {
            let at = match txn.state {
                TxnState::Issued { done } => done.max(now),
                TxnState::Pending => mc
                    .device
                    .earliest(txn.needed_cmd(&mc.device, mc.auto_precharge()), now),
            };
            ev = dg_sim::clock::earliest_event(ev, Some(at));
        }
        if mc.refresh_pending {
            ev = dg_sim::clock::earliest_event(ev, Some(now.next_multiple_of(cmd_cycle)));
        }
        let refresh_edge = mc
            .device
            .refresh_deadline()
            .max(now)
            .next_multiple_of(cmd_cycle);
        dg_sim::clock::earliest_event(ev, Some(refresh_edge))
    }

    #[test]
    fn next_event_equals_the_per_transaction_fold() {
        // Random reads and writes from two domains over few rows of every
        // bank keep same-bank hits, conflicts and activations queued
        // together, under both row policies and across refreshes.
        for policy in [RowPolicy::Open, RowPolicy::Closed] {
            let c = SystemConfig::two_core().with_row_policy(policy);
            let mut mc = MemoryController::new(&c, SchedPolicy::FrFcfs);
            let mut rng = dg_sim::rng::DetRng::new(7);
            let (banks, row_bytes) = (u64::from(c.dram_org.banks), c.dram_org.row_bytes);
            let mut compared_busy = 0;
            for now in 0..60_000 {
                if rng.next_bool(0.2) {
                    let line = rng.next_below(banks * 4) * row_bytes + rng.next_below(4) * 64;
                    let domain = DomainId(rng.next_below(2) as u16);
                    let req = if rng.next_bool(0.3) {
                        MemRequest::write(domain, line, now)
                    } else {
                        MemRequest::read(domain, line, now)
                    };
                    let _ = mc.try_send(req.with_id(ReqId(now)), now);
                }
                mc.tick(now);
                assert_eq!(
                    mc.next_event_at(now + 1),
                    per_txn_next_event(&mc, now + 1),
                    "{policy:?} at cycle {now}"
                );
                if mc.occupancy() > 4 {
                    compared_busy += 1;
                }
            }
            assert!(compared_busy > 10_000, "queue rarely held several requests");
        }
    }

    #[test]
    fn stats_accumulate() {
        let c = cfg().with_row_policy(RowPolicy::Closed);
        let mut mc = MemoryController::new(&c, SchedPolicy::FrFcfs);
        read_at(&mut mc, 0x40, 1, 0);
        let w = MemRequest::write(DomainId(1), 0x80, 0).with_id(ReqId(2));
        mc.try_send(w, 0).unwrap();
        run_until_done(&mut mc, 10_000);
        assert_eq!(mc.stats().domain(DomainId(0)).reads, 1);
        assert_eq!(mc.stats().domain(DomainId(1)).writes, 1);
    }
}
