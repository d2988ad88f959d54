//! The server-based strict two-phase locking (s-2PL) baseline of §3.1.
//!
//! Protocol summary (per transaction, best case): one lock-request round,
//! one grant round shipping the data, and one commit round returning every
//! dirty item and releasing all locks — the "three rounds" the paper
//! counts, or `2n + 1` rounds for `n` sequentially requested items.
//! Deadlocks are detected with a wait-for graph, rebuilt from the lock
//! table whenever a request cannot be granted (§4), and resolved by
//! aborting a victim chosen by the configured policy.

use crate::config::EngineConfig;
use crate::cycle::CycleFinder;
use crate::history::{AccessRecord, CommitRecord, History};
use crate::metrics::{Collector, RunMetrics, WalReport};
use crate::recovery::{Labels, Recovery};
use crate::runtime::{
    ClientCore, ClientPhase, Ev, Message, Net, Resend, TimerKind, TxnStatus, TxnTable,
};
use crate::tracelog::{TraceKind, TraceLog};
use g2pl_lockmgr::{AcquireOutcome, LockMode, LockTable};
use g2pl_obs::SpanRecorder;
use g2pl_simcore::{Calendar, ClientId, ItemId, SimTime, SiteId, TxnId, Version};
use g2pl_wal::{LogRecord, ServerRecord, SiteLog};

/// Per-shard slice of a committing transaction: written `(item,
/// version)` pairs plus read-only items, bound for one home server.
type ShardCommitGroup = (Vec<(ItemId, Version)>, Vec<ItemId>);
use g2pl_workload::{AccessMode, TxnGenerator};
use std::collections::BTreeMap;

/// Control-message payload size in bytes (requests, notices).
pub(crate) const CTRL_BYTES: u64 = 64;

/// Accounting labels of the recovery messages.
const LABELS: Labels = Labels {
    commit_query: "s2pl.commit_query",
    commit_verdict: "s2pl.commit_verdict",
    reregister_req: "s2pl.reregister_req",
    prepare_ack: "s2pl.prepare_ack",
};

/// Hard cap on processed events — a deterministic simulation exceeding
/// this has livelocked, and panicking beats spinning forever.
pub(crate) const EVENT_BUDGET: u64 = 2_000_000_000;

pub(crate) fn lock_mode(mode: AccessMode) -> LockMode {
    match mode {
        AccessMode::Read => LockMode::Shared,
        AccessMode::Write => LockMode::Exclusive,
    }
}

/// The s-2PL simulation engine.
pub struct S2plEngine {
    cfg: EngineConfig,
    cal: Calendar<Ev>,
    net: Net,
    clients: Vec<ClientCore>,
    table: TxnTable,
    /// One lock table per server shard; an item's locks live at the
    /// shard owning it ([`EngineConfig::shard_of`]).
    locks: Vec<LockTable>,
    versions: Vec<Version>,
    generator: TxnGenerator,
    collector: Collector,
    history: Option<History>,
    trace: TraceLog,
    spans: SpanRecorder,
    wal: Option<Vec<SiteLog>>,
    admitting: bool,
    finder: CycleFinder,
    /// The shards' fault domains: gating, crash recovery, presumed-abort
    /// votes, leases and fault counters.
    rec: Recovery,
}

impl S2plEngine {
    /// Build an engine for `cfg`.
    pub fn new(cfg: EngineConfig) -> Self {
        let generator = TxnGenerator::new_sharded(
            cfg.profile.clone(),
            cfg.items.num_shards,
            cfg.items.items_per_shard,
        );
        let replay = cfg.replay.clone().map(std::rc::Rc::new);
        let clients = (0..cfg.num_clients)
            .map(|i| match &replay {
                Some(t) => {
                    ClientCore::with_replay(ClientId::new(i), cfg.seed, std::rc::Rc::clone(t))
                }
                None => ClientCore::new(ClientId::new(i), cfg.seed),
            })
            .collect();
        let net = Net::for_config(&cfg);
        S2plEngine {
            rec: Recovery::new(&cfg, &net, LABELS),
            net,
            cal: Calendar::new(),
            clients,
            table: TxnTable::new(),
            locks: (0..cfg.num_shards()).map(|_| LockTable::new()).collect(),
            versions: vec![0; cfg.num_items() as usize],
            generator,
            collector: Collector::with_histogram(
                cfg.warmup_txns,
                cfg.measured_txns,
                cfg.latency.nominal().max(2) / 2,
            ),
            history: cfg.record_history.then(History::new),
            trace: TraceLog::new(cfg.trace_events),
            spans: SpanRecorder::new(cfg.trace_events),
            wal: cfg.enable_wal.then(|| {
                (0..cfg.num_clients)
                    .map(|_| SiteLog::new(cfg.item_size_bytes))
                    .collect()
            }),
            admitting: true,
            finder: CycleFinder::default(),
            cfg,
        }
    }

    /// Run to completion and report metrics.
    pub fn run(mut self) -> RunMetrics {
        // Stagger client start-up by one idle draw each, as the model's
        // "replaced after some idle time" rule implies for the very first
        // transaction too.
        for i in 0..self.cfg.num_clients {
            let c = &mut self.clients[i as usize];
            let idle = self.cfg.profile.draw_idle(&mut c.time_rng);
            self.cal.schedule(
                idle,
                Ev::Timer {
                    client: ClientId::new(i),
                    kind: TimerKind::IdleDone,
                },
            );
        }

        for (client, at, up) in self.net.crash_schedule() {
            self.cal.schedule(at, Ev::Fault { client, up });
        }
        for (shard, at, up) in self.net.server_crash_schedule() {
            self.cal.schedule(at, Ev::ServerFault { shard, up });
        }

        let mut events: u64 = 0;
        while let Some((now, ev)) = self.cal.pop() {
            events += 1;
            assert!(events < EVENT_BUDGET, "event budget exhausted: livelock?");
            match ev {
                Ev::Timer { client, kind } => {
                    if !self.clients[client.index()].crashed {
                        self.on_timer(now, client, kind);
                    }
                }
                Ev::WindowTimer { .. } | Ev::LeaseCheck { .. } | Ev::CallbackRetry { .. } => {
                    unreachable!("event is not part of the s-2PL protocol")
                }
                Ev::ServerProc { shard, msg } => {
                    if self.rec.admit_queued(shard as usize, &msg) {
                        self.on_server_msg(now, shard as usize, msg);
                    }
                }
                Ev::Deliver { to, msg } => match to {
                    SiteId::Server(shard) => match self.rec.admit(now, shard.index(), &msg) {
                        Some(SimTime::ZERO) => self.on_server_msg(now, shard.index(), msg),
                        Some(d) => {
                            self.cal.schedule_in(
                                d,
                                Ev::ServerProc {
                                    shard: shard.0,
                                    msg,
                                },
                            );
                        }
                        None => {}
                    },
                    SiteId::Client(c) => {
                        if !self.clients[c.index()].crashed {
                            self.on_client_msg(now, c, msg);
                        }
                    }
                },
                Ev::Fault { client, up } => self.on_fault(now, client, up),
                Ev::ServerFault { shard, up } => self.on_server_fault(now, shard as usize, up),
                Ev::RecoveryCheck { shard, epoch } => {
                    let s = shard as usize;
                    if self
                        .rec
                        .on_recovery_check(now, s, epoch, &mut self.net, &mut self.cal)
                    {
                        self.finish_recovery(now, s);
                    }
                }
                Ev::TxnLease { txn } => {
                    if self
                        .rec
                        .on_txn_lease(now, txn, &self.table, &mut self.cal, &mut self.trace)
                    {
                        self.abort_victim(now, txn);
                        self.rec.lease_reclaimed(now, txn, &mut self.trace);
                    }
                }
            }
            if self.rec.faults_on {
                for (at, site) in self.net.take_fault_marks() {
                    self.trace
                        .record(at, TraceKind::FaultInjected, None, None, site);
                }
            }
            if self.collector.done() {
                if !self.cfg.drain {
                    break;
                }
                self.admitting = false;
            }
        }

        // Under an active fault plan the end-of-run snapshot may
        // legitimately hold residue (e.g. a client that crashed and never
        // restarted before the calendar emptied); liveness is checked by
        // trace property P8 instead of these structural asserts.
        if self.cfg.drain && !self.rec.faults_on {
            assert!(
                self.locks.iter().all(LockTable::is_quiescent),
                "locks leaked after drain"
            );
            if let Some(wal) = &self.wal {
                assert!(
                    wal.iter().all(SiteLog::is_empty),
                    "WAL records survived a drain: every version is home"
                );
            }
        }

        let obs = self.spans.finish();
        let trace_dropped = self.trace.dropped();
        self.rec.fsum.injected = self.net.fault_counts();
        RunMetrics {
            faults: self.rec.fsum,
            protocol: "s-2PL",
            events,
            peak_calendar: self.cal.peak_len(),
            wall_secs: 0.0,
            response: self.collector.response,
            aborts: self.collector.aborts,
            read_only_aborts: self.collector.read_only_aborts,
            committed_total: self.collector.committed_total,
            aborted_total: self.collector.aborted_total,
            net: self.net.acct,
            end_time: self.cal.now(),
            history: self.history,
            trace: if self.trace.enabled() {
                Some(self.trace.into_events())
            } else {
                None
            },
            max_fl_len: 0,
            window_closes: 0,
            access_wait: self.collector.access_wait,
            abort_waste: self.collector.abort_waste,
            abort_depth: self.collector.abort_depth,
            response_by_size: self.collector.response_by_size,
            response_hist: self.collector.response_hist,
            response_tail: self.collector.response_tail,
            wal: self.wal.map(|sites| {
                let mut r = WalReport::default();
                for site in &sites {
                    r.absorb(site.metrics(), site.live_records());
                }
                r
            }),
            phases: obs.breakdown,
            flight: obs.flight,
            spans: obs.raw,
            trace_dropped,
        }
    }

    // ---- client side ----

    fn on_timer(&mut self, now: SimTime, client: ClientId, kind: TimerKind) {
        match kind {
            TimerKind::IdleDone => {
                if !self.admitting {
                    return;
                }
                let c = &mut self.clients[client.index()];
                let txn = c.begin_txn(&self.generator, &mut self.table, now);
                if let Some(wal) = &mut self.wal {
                    wal[client.index()].append(LogRecord::Begin { txn });
                }
                let (item, mode) = c.txn().spec.access(0);
                self.send_request(now, client, txn, item, mode);
            }
            TimerKind::ThinkDone(txn) => {
                let c = &self.clients[client.index()];
                let Some(active) = &c.txn else { return };
                if active.id != txn || active.phase != ClientPhase::Thinking {
                    return; // stale timer of an aborted transaction
                }
                let granted = active.granted;
                if granted < active.spec.len() {
                    let (item, mode) = active.spec.access(granted);
                    {
                        let t = self.clients[client.index()].txn_mut();
                        t.phase = ClientPhase::WaitingGrant(granted);
                        t.request_sent_at = now;
                    }
                    self.send_request(now, client, txn, item, mode);
                } else {
                    self.commit(now, client, txn);
                }
            }
            TimerKind::Retry { epoch } => match self.clients[client.index()].due_resend(epoch) {
                Some(Resend::CommitPhase) => self.resend_pending_commits(now, client),
                Some(Resend::Request) => self.resend_request(now, client),
                None => {}
            },
            // s-2PL's phase 2 piggybacks on the regular commit-release
            // retry epoch; the dedicated decide timer is g-2PL-only.
            TimerKind::DecideRetry(_) => unreachable!("s-2PL never arms a decide timer"),
        }
    }

    /// Re-send the outstanding lock request. No `RequestSent` trace or
    /// request span is recorded for a retransmission: trace consumers
    /// pair each logical request with one grant.
    fn resend_request(&mut self, now: SimTime, client: ClientId) {
        let c = &mut self.clients[client.index()];
        let Some(active) = &c.txn else { return };
        let txn = active.id;
        let (item, mode) = active.spec.access(active.granted);
        c.retry_attempts = c.retry_attempts.saturating_add(1);
        self.rec.fsum.retries += 1;
        let _ = now;
        self.net.send(
            &mut self.cal,
            client.into(),
            self.cfg.shard_site(item),
            "s2pl.lock_request",
            CTRL_BYTES,
            Message::SLockReq {
                txn,
                client,
                item,
                mode: lock_mode(mode),
            },
        );
        self.clients[client.index()].arm_retry(&mut self.cal, self.rec.retry_base);
    }

    /// Re-send every unacknowledged commit-phase slice (the client's
    /// WAL tail), one per still-unanswered shard: commit-releases, or
    /// — for a multi-home transaction still in its voting round —
    /// prepares.
    fn resend_pending_commits(&mut self, now: SimTime, client: ClientId) {
        let c = &mut self.clients[client.index()];
        let pending = c.pending_commits.clone();
        if pending.is_empty() {
            return;
        }
        c.retry_attempts = c.retry_attempts.saturating_add(1);
        let _ = now;
        for (shard, msg) in pending {
            let (kind, bytes) = match &msg {
                Message::SCommit { writes, .. } => (
                    "s2pl.commit_release",
                    CTRL_BYTES + writes.len() as u64 * self.cfg.item_size_bytes,
                ),
                Message::Prepare { writes, .. } => {
                    ("s2pl.prepare", CTRL_BYTES + 12 * writes.len() as u64)
                }
                _ => continue,
            };
            self.rec.fsum.retries += 1;
            self.net.send(
                &mut self.cal,
                client.into(),
                SiteId::server(shard),
                kind,
                bytes,
                msg,
            );
        }
        self.clients[client.index()].arm_retry(&mut self.cal, self.rec.retry_base);
    }

    /// A scheduled crash or restart from the fault plan.
    fn on_fault(&mut self, now: SimTime, client: ClientId, up: bool) {
        if up {
            self.on_restart(now, client);
            return;
        }
        let c = &mut self.clients[client.index()];
        if c.crashed {
            return;
        }
        c.crashed = true;
        self.rec.fsum.crashes += 1;
        self.trace
            .record(now, TraceKind::FaultInjected, None, None, client.into());
    }

    /// A crashed client comes back up. Every timer it had died with the
    /// crash, so each possible state re-establishes its own wake-up: an
    /// unacknowledged commit resumes retransmission (the WAL tail), an
    /// aborted transaction finalizes locally (the notice may have been
    /// lost while down), an outstanding request is re-sent, and an idle
    /// client re-draws its idle period.
    fn on_restart(&mut self, now: SimTime, client: ClientId) {
        let c = &mut self.clients[client.index()];
        if !c.crashed {
            return;
        }
        c.crashed = false;
        c.retry_progress();
        if !c.pending_commits.is_empty() {
            self.resend_pending_commits(now, client);
            return;
        }
        let Some(active) = &c.txn else {
            let idle = self.cfg.profile.draw_idle(&mut c.time_rng);
            self.cal.schedule_in(
                idle,
                Ev::Timer {
                    client,
                    kind: TimerKind::IdleDone,
                },
            );
            return;
        };
        let (txn, phase) = (active.id, active.phase);
        match self.table.status(txn) {
            TxnStatus::Aborting | TxnStatus::Aborted => self.finalize_abort(now, client, txn),
            TxnStatus::Active => match phase {
                ClientPhase::WaitingGrant(_) => self.resend_request(now, client),
                ClientPhase::Thinking => {
                    // The think timer died with the crash: resume now.
                    self.cal.schedule_in(
                        SimTime::ZERO,
                        Ev::Timer {
                            client,
                            kind: TimerKind::ThinkDone(txn),
                        },
                    );
                }
                ClientPhase::CommitWait | ClientPhase::Idle => {}
            },
            TxnStatus::Committed => {}
        }
    }

    fn send_request(
        &mut self,
        now: SimTime,
        client: ClientId,
        txn: TxnId,
        item: ItemId,
        mode: AccessMode,
    ) {
        if self.rec.faults_on {
            self.clients[client.index()].retry_progress();
        }
        self.trace.record(
            now,
            TraceKind::RequestSent,
            Some(txn),
            Some(item),
            client.into(),
        );
        self.spans.req_sent(now, txn, item);
        self.net.send(
            &mut self.cal,
            client.into(),
            self.cfg.shard_site(item),
            "s2pl.lock_request",
            CTRL_BYTES,
            Message::SLockReq {
                txn,
                client,
                item,
                mode: lock_mode(mode),
            },
        );
        if self.rec.faults_on {
            self.clients[client.index()].arm_retry(&mut self.cal, self.rec.retry_base);
        }
    }

    // lint:allow(L5): the outcome is recorded downstream — commit_decided traces Committed on every path, and the voting detour traces Prepared/CommitApplied at the shards
    fn commit(&mut self, now: SimTime, client: ClientId, txn: TxnId) {
        // Under faults a lease expiry can pick a merely-slow (crashed and
        // restarted) transaction as victim while its abort notice is
        // still in flight; the oracle status resolves the race in favour
        // of the abort, exactly as the server already decided it.
        if self.rec.faults_on && self.table.status(txn) != TxnStatus::Active {
            self.finalize_abort(now, client, txn);
            return;
        }
        // Under a server-crash plan a multi-home commit must be atomic
        // across shard fault domains: run presumed-abort two-phase
        // commitment. Single-home commits keep the one-phase path (the
        // single-participant optimization), as do all commits under
        // plans without server crashes.
        if self.rec.srv_faults_on {
            let involved = self.clients[client.index()].txn().involved(&self.cfg);
            if involved.count_ones() > 1 {
                self.begin_prepare(now, client, txn, involved);
                return;
            }
        }
        self.commit_decided(now, client, txn);
    }

    /// Phase 1 of two-phase commitment: send each involved shard its
    /// prepare (write slice + involved-shard mask) and wait for every
    /// yes vote before deciding. The prepares sit in `pending_commits`
    /// and retransmit on the usual backoff until acknowledged.
    fn begin_prepare(&mut self, now: SimTime, client: ClientId, txn: TxnId, involved: u64) {
        let _ = now;
        let c = &mut self.clients[client.index()];
        // lint:allow(L3): guarded by the caller
        let active = c.txn.as_mut().expect("preparing client has a transaction");
        debug_assert_eq!(active.id, txn);
        active.phase = ClientPhase::CommitWait;
        let mut by_shard: BTreeMap<u32, Vec<(ItemId, Version)>> = BTreeMap::new();
        for (idx, &(item, mode)) in active.spec.accesses.iter().enumerate() {
            let slot = by_shard.entry(self.cfg.shard_of(item)).or_default();
            if mode == AccessMode::Write {
                slot.push((item, active.versions[idx] + 1));
            }
        }
        c.retry_progress();
        c.pending_commits = by_shard
            .iter()
            .map(|(&shard, writes)| {
                (
                    shard,
                    Message::Prepare {
                        txn,
                        writes: writes.clone(),
                        involved,
                    },
                )
            })
            .collect();
        for (shard, writes) in by_shard {
            let bytes = CTRL_BYTES + 12 * writes.len() as u64;
            self.net.send(
                &mut self.cal,
                client.into(),
                SiteId::server(shard),
                "s2pl.prepare",
                bytes,
                Message::Prepare {
                    txn,
                    writes,
                    involved,
                },
            );
        }
        self.clients[client.index()].arm_retry(&mut self.cal, self.rec.retry_base);
    }

    /// The commit decision point: every involved shard has voted yes (or
    /// the transaction is single-home and no votes were needed). From
    /// here the commit is irrevocable — the client's WAL `Commit` record
    /// below is the coordinator's durable decision record, and the
    /// commit-release slices retransmit until every shard applies.
    fn commit_decided(&mut self, now: SimTime, client: ClientId, txn: TxnId) {
        let c = &mut self.clients[client.index()];
        // lint:allow(L3): commit is only reachable from a client with an active txn
        let active = c.txn.take().expect("committing client has a transaction");
        debug_assert_eq!(active.id, txn);
        self.table.set_status(txn, TxnStatus::Committed);
        let measured = self
            .collector
            .on_commit_sized(now.since(active.start), active.spec.len());
        self.trace
            .record(now, TraceKind::Committed, Some(txn), None, client.into());

        // Group the transaction's accesses by owning shard: a multi-home
        // commit sends one combined commit/release message per involved
        // shard (§3.1's single message, per home), all in the same round.
        let mut by_shard: BTreeMap<u32, ShardCommitGroup> = BTreeMap::new();
        let mut records = Vec::new();
        for (idx, &(item, mode)) in active.spec.accesses.iter().enumerate() {
            let observed = active.versions[idx];
            let slot = by_shard.entry(self.cfg.shard_of(item)).or_default();
            match mode {
                AccessMode::Write => {
                    slot.0.push((item, observed + 1));
                    records.push(AccessRecord {
                        item,
                        mode,
                        version: observed + 1,
                    });
                }
                AccessMode::Read => {
                    slot.1.push(item);
                    records.push(AccessRecord {
                        item,
                        mode,
                        version: observed,
                    });
                }
            }
        }
        // One commit/release round trip per involved shard, in parallel.
        self.spans
            .commit_local(now, txn, by_shard.len() as u32, measured);
        if let Some(h) = &mut self.history {
            h.push(CommitRecord {
                txn,
                at: now,
                accesses: records,
            });
        }

        if let Some(wal) = &mut self.wal {
            let log = &mut wal[client.index()];
            for (writes, _) in by_shard.values() {
                for &(item, new) in writes {
                    log.append(LogRecord::Update {
                        txn,
                        item,
                        old: new - 1,
                        new,
                    });
                }
            }
            log.append(LogRecord::Commit { txn });
        }

        if self.rec.faults_on {
            // Commit durability under loss: retransmit each shard's
            // release until that shard acknowledges; the next transaction
            // starts only when every slice is acked (see the SCommitAck
            // handler).
            c.retry_progress();
            c.pending_commits = by_shard
                .iter()
                .map(|(&shard, (writes, reads))| {
                    (
                        shard,
                        Message::SCommit {
                            txn,
                            writes: writes.clone(),
                            reads: reads.clone(),
                        },
                    )
                })
                .collect();
        } else {
            let idle = self.cfg.profile.draw_idle(&mut c.time_rng);
            self.cal.schedule_in(
                idle,
                Ev::Timer {
                    client,
                    kind: TimerKind::IdleDone,
                },
            );
        }
        for (shard, (writes, reads)) in by_shard {
            let bytes = CTRL_BYTES + writes.len() as u64 * self.cfg.item_size_bytes;
            self.net.send(
                &mut self.cal,
                client.into(),
                SiteId::server(shard),
                "s2pl.commit_release",
                bytes,
                Message::SCommit { txn, writes, reads },
            );
        }
        if self.rec.faults_on {
            self.clients[client.index()].arm_retry(&mut self.cal, self.rec.retry_base);
        }
    }

    fn on_client_msg(&mut self, now: SimTime, client: ClientId, msg: Message) {
        match msg {
            Message::SGrant { txn, item, version } => {
                let faults_on = self.rec.faults_on;
                let c = &mut self.clients[client.index()];
                let Some(active) = &mut c.txn else {
                    debug_assert!(faults_on, "grant for idle client");
                    return;
                };
                if active.id != txn {
                    debug_assert!(faults_on, "grant for stale transaction");
                    return;
                }
                if !matches!(active.phase, ClientPhase::WaitingGrant(_))
                    || active.spec.access(active.granted).0 != item
                {
                    // Duplicate of an already-consumed grant (lossy link).
                    debug_assert!(faults_on, "unexpected duplicate grant");
                    return;
                }
                active.versions.push(version);
                active.granted += 1;
                active.phase = ClientPhase::Thinking;
                let wait = now.since(active.request_sent_at);
                if faults_on {
                    c.retry_progress();
                }
                self.collector.on_access_wait(wait);
                let think = self.cfg.profile.draw_think(&mut c.time_rng);
                self.trace.record(
                    now,
                    TraceKind::Granted,
                    Some(txn),
                    Some(item),
                    client.into(),
                );
                self.spans.granted(now, txn, item);
                self.cal.schedule_in(
                    think,
                    Ev::Timer {
                        client,
                        kind: TimerKind::ThinkDone(txn),
                    },
                );
            }
            Message::SAbortNotice { txn } => self.finalize_abort(now, client, txn),
            Message::PrepareAck { txn, shard } => {
                let c = &mut self.clients[client.index()];
                match c.take_ack(
                    shard,
                    |m| matches!(m, Message::Prepare { txn: t, .. } if *t == txn),
                ) {
                    None => {} // duplicate ack of an already-counted vote
                    // Other shards still owe votes: keep retransmitting
                    // their prepares from a fresh backoff.
                    Some(false) => c.arm_retry(&mut self.cal, self.rec.retry_base),
                    // Unanimous yes. An abort may still have raced the
                    // voting round (a lease victim whose notice is in
                    // flight); the oracle resolves it in the abort's
                    // favour — the shards' prepared votes are retired by
                    // the victim's releases.
                    Some(true) if self.table.status(txn) != TxnStatus::Active => {
                        self.finalize_abort(now, client, txn);
                    }
                    Some(true) => self.commit_decided(now, client, txn),
                }
            }
            Message::SCommitAck { txn, shard } => {
                let c = &mut self.clients[client.index()];
                match c.take_ack(
                    shard,
                    |m| matches!(m, Message::SCommit { txn: t, .. } if *t == txn),
                ) {
                    None => {} // duplicate ack of an older commit slice
                    // Other shards still owe acks: keep retransmitting
                    // their slices from a fresh backoff.
                    Some(false) => c.arm_retry(&mut self.cal, self.rec.retry_base),
                    Some(true) => {
                        let idle = self.cfg.profile.draw_idle(&mut c.time_rng);
                        self.cal.schedule_in(
                            idle,
                            Ev::Timer {
                                client,
                                kind: TimerKind::IdleDone,
                            },
                        );
                    }
                }
            }
            Message::ReregisterReq { shard, epoch } => {
                // Re-report everything the client holds of the restarted
                // shard: granted items of the live transaction homed
                // there and that shard's slice of an unacknowledged
                // (committed-but-unreleased) commit.
                let c = &self.clients[client.index()];
                let mut held = Vec::new();
                let mut txn = None;
                if let Some(active) = &c.txn {
                    txn = Some(active.id);
                    for idx in 0..active.granted {
                        let (item, mode) = active.spec.access(idx);
                        if self.cfg.shard_of(item) == shard {
                            held.push((item, lock_mode(mode)));
                        }
                    }
                }
                let pending = c.pending_commits.iter().find_map(|(s, m)| match m {
                    Message::SCommit { txn, writes, reads } if *s == shard => {
                        Some((*txn, writes.clone(), reads.clone()))
                    }
                    _ => None,
                });
                let bytes = CTRL_BYTES + 8 * held.len() as u64;
                self.net.send(
                    &mut self.cal,
                    client.into(),
                    SiteId::server(shard),
                    "s2pl.reregister",
                    bytes,
                    Message::SReregister {
                        client,
                        epoch,
                        txn,
                        held,
                        pending,
                        cached: Vec::new(),
                    },
                );
            }
            other => unreachable!("s-2PL client cannot receive {other:?}"),
        }
    }

    /// Abort the client's transaction locally: on receipt of the server's
    /// notice, or — under faults — when the client discovers the abort
    /// on its own (restart after a crash, or a commit racing the notice).
    fn finalize_abort(&mut self, now: SimTime, client: ClientId, txn: TxnId) {
        let c = &mut self.clients[client.index()];
        let Some(active) = &c.txn else { return };
        if active.id != txn {
            return;
        }
        let read_only = active.spec.is_read_only();
        let waste = now.since(active.start);
        let depth = active.granted;
        c.txn = None;
        // An abort during the voting round withdraws the outstanding
        // prepares; shards that already voted are cleaned up by the
        // victim's releases.
        c.pending_commits
            .retain(|(_, m)| !matches!(m, Message::Prepare { txn: t, .. } if *t == txn));
        if self.rec.faults_on {
            c.retry_progress();
        }
        self.table.set_status(txn, TxnStatus::Aborted);
        self.collector.on_abort_diag(read_only, waste, depth);
        if let Some(wal) = &mut self.wal {
            wal[client.index()].append(LogRecord::Abort { txn });
        }
        self.trace
            .record(now, TraceKind::Aborted, Some(txn), None, client.into());
        self.spans.aborted(now, txn);
        let idle = self
            .cfg
            .profile
            .draw_idle(&mut self.clients[client.index()].time_rng);
        self.cal.schedule_in(
            idle,
            Ev::Timer {
                client,
                kind: TimerKind::IdleDone,
            },
        );
    }

    // ---- server crash recovery ----

    /// A scheduled crash or restart of shard `shard` from the fault plan.
    /// A crash loses the shard's lock table and its items' installed
    /// versions; a restart restores the versions from the replayed log
    /// and opens the re-registration handshake.
    fn on_server_fault(&mut self, now: SimTime, shard: usize, up: bool) {
        if up {
            let versions = &mut self.versions;
            self.rec
                .restart(now, shard, &mut self.net, &mut self.cal, |img| {
                    for (&item, &v) in &img.versions {
                        versions[item.index()] = v;
                    }
                });
        } else {
            self.rec.crash_server(now, shard, &mut self.trace);
            self.locks[shard] = LockTable::new();
            let per = self.cfg.items.items_per_shard as usize;
            self.versions[shard * per..(shard + 1) * per].fill(0);
        }
    }

    /// Close shard `shard`'s re-registration handshake: settle the
    /// in-doubt votes from the commit oracle, restore every outstanding
    /// durable grant whose owner still needs it, resume normal service,
    /// then abort the active transactions of clients that never answered
    /// (presumed dead).
    fn finish_recovery(&mut self, now: SimTime, shard: usize) {
        for txn in self.rec.settle_in_doubt(shard, &self.table) {
            self.resolve_indoubt_commit(now, shard, txn);
        }
        let silent = self.rec.restore_grants(
            now,
            shard,
            &self.table,
            &mut self.locks[shard],
            &mut self.cal,
        );
        self.rec.reopen(shard);
        self.trace.record(
            now,
            TraceKind::ServerRecovered,
            None,
            None,
            SiteId::server(shard as u32),
        );
        for txn in silent {
            self.abort_victim(now, txn);
        }
    }

    /// Positive commit evidence arrived for an in-doubt prepared vote at
    /// shard `shard`: install the prepared write slice exactly as the lost
    /// commit-release would have, and release the transaction's locks.
    fn resolve_indoubt_commit(&mut self, now: SimTime, shard: usize, txn: TxnId) {
        if let Some(writes) = self.rec.commit_in_doubt(now, shard, txn, &mut self.trace) {
            self.install(txn, writes);
            self.release_at(now, shard, txn);
        }
    }

    /// Install `txn`'s written versions at their home shard and mark them
    /// permanent in the committer's WAL.
    fn install(&mut self, txn: TxnId, writes: Vec<(ItemId, Version)>) {
        let committer = self.table.info(txn).client;
        for (item, version) in writes {
            debug_assert_eq!(
                version,
                self.versions[item.index()] + 1,
                "write version chain broken for {item}"
            );
            self.versions[item.index()] = version;
            if let Some(wal) = &mut self.wal {
                wal[committer.index()].mark_permanent(txn, item);
            }
        }
    }

    /// Release every lock `txn` holds at shard `shard`, shipping the
    /// grants it wakes.
    fn release_at(&mut self, now: SimTime, shard: usize, txn: TxnId) {
        for (item, t, _) in self.locks[shard].release_all(txn) {
            let c = self.table.info(t).client;
            self.send_grant(now, c, t, item);
        }
    }

    /// Tell `txn`'s client, from shard `from`, that it was aborted.
    fn send_abort_notice(&mut self, from: usize, txn: TxnId) {
        let client = self.table.info(txn).client;
        self.net.send(
            &mut self.cal,
            SiteId::server(from as u32),
            client.into(),
            "s2pl.abort_notice",
            CTRL_BYTES,
            Message::SAbortNotice { txn },
        );
    }

    // ---- server side ----

    fn on_server_msg(&mut self, now: SimTime, shard: usize, msg: Message) {
        match msg {
            Message::SLockReq {
                txn,
                client,
                item,
                mode,
            } => {
                debug_assert_eq!(
                    self.cfg.shard_of(item) as usize,
                    shard,
                    "lock request routed to the wrong shard"
                );
                match self.table.status(txn) {
                    TxnStatus::Active => {}
                    TxnStatus::Aborting | TxnStatus::Aborted if self.rec.faults_on => {
                        // A retried request from a victim whose abort
                        // notice may have been lost: answer it again.
                        self.send_abort_notice(shard, txn);
                        return;
                    }
                    _ => return, // stale request of a finished transaction
                }
                if self.rec.faults_on {
                    self.rec.touch(now, txn, &mut self.cal);
                    if self.locks[shard].mode_of(txn, item).is_some() {
                        // Duplicate of an already-granted request (the
                        // grant or the original request was lost or
                        // duplicated): re-ship the grant.
                        self.send_grant(now, client, txn, item);
                        return;
                    }
                    if self.locks[shard].queued_on(txn) == Some(item) {
                        return; // duplicate of a still-queued request
                    }
                }
                self.spans.req_arrived(now, txn, item);
                match self.locks[shard].acquire(txn, item, mode) {
                    AcquireOutcome::Granted => self.send_grant(now, client, txn, item),
                    AcquireOutcome::Queued => self.detect_deadlocks(now, txn),
                }
            }
            Message::Prepare {
                txn,
                writes,
                involved,
            } => {
                if self.table.status(txn) == TxnStatus::Active {
                    self.rec.touch(now, txn, &mut self.cal);
                }
                let voted = self.rec.on_prepare(
                    now,
                    shard,
                    txn,
                    writes,
                    involved,
                    &self.table,
                    &mut self.net,
                    &mut self.cal,
                    &mut self.trace,
                );
                if !voted {
                    // The abort won the race with the voting round:
                    // answer the (possibly lost) notice again.
                    self.send_abort_notice(shard, txn);
                }
            }
            Message::SCommit { txn, writes, .. } => {
                let committer = self.table.info(txn).client;
                if self.rec.faults_on {
                    // Duplicate commit-release slice (already applied at
                    // this shard): the ack was lost, so just acknowledge
                    // again. Each shard's bit of the applied set is
                    // durable — it survives crashes via log replay.
                    if self.rec.applied_at(txn, shard) {
                        self.send_commit_ack(shard, committer, txn);
                        return;
                    }
                    self.rec.end_lease(txn);
                }
                self.rec
                    .apply_commit(now, shard, txn, &writes, &mut self.trace);
                self.install(txn, writes);
                self.trace.record(
                    now,
                    TraceKind::ReleasedAtServer,
                    Some(txn),
                    None,
                    SiteId::server(shard as u32),
                );
                self.spans.release_arrived(now, txn, true);
                self.release_at(now, shard, txn);
                if self.rec.faults_on {
                    self.send_commit_ack(shard, committer, txn);
                }
            }
            Message::SReregister {
                client,
                epoch,
                txn,
                held,
                pending,
                cached: _,
            } => {
                if self
                    .rec
                    .reregistered(now, shard, client, epoch, txn, &mut self.trace)
                {
                    let pending = pending.as_ref();
                    self.rec
                        .check_lock_report(shard, &self.table, client, txn, &held, pending);
                    if self.rec.all_answered(shard) {
                        self.finish_recovery(now, shard);
                    }
                }
            }
            Message::CommitQuery {
                txn, from_shard, ..
            } => self.rec.answer_commit_query(
                shard,
                txn,
                from_shard,
                &self.table,
                &mut self.net,
                &mut self.cal,
            ),
            Message::CommitVerdict { txn, committed } => {
                if self.rec.on_commit_verdict(shard, txn, committed) {
                    self.resolve_indoubt_commit(now, shard, txn);
                }
            }
            other => unreachable!("s-2PL server cannot receive {other:?}"),
        }
    }

    /// Acknowledge a processed commit-release slice (faults only).
    fn send_commit_ack(&mut self, shard: usize, client: ClientId, txn: TxnId) {
        self.net.send(
            &mut self.cal,
            SiteId::server(shard as u32),
            client.into(),
            "s2pl.commit_ack",
            CTRL_BYTES,
            Message::SCommitAck {
                txn,
                shard: shard as u32,
            },
        );
    }

    fn send_grant(&mut self, now: SimTime, client: ClientId, txn: TxnId, item: ItemId) {
        let shard = self.cfg.shard_of(item) as usize;
        if let Some(slog) = self.rec.slog.get_mut(shard) {
            // Write-ahead: the grant is durable before it leaves.
            let exclusive = matches!(
                self.locks[shard].mode_of(txn, item),
                Some(LockMode::Exclusive)
            );
            slog.append(ServerRecord::Grant {
                txn,
                item,
                exclusive,
            });
        }
        self.trace.record(
            now,
            TraceKind::Dispatched,
            Some(txn),
            Some(item),
            client.into(),
        );
        self.spans.dispatched(now, txn, item);
        self.spans.hop_departed(now, txn, item);
        self.net.send(
            &mut self.cal,
            SiteId::server(shard as u32),
            client.into(),
            "s2pl.grant",
            CTRL_BYTES + self.cfg.item_size_bytes,
            Message::SGrant {
                txn,
                item,
                version: self.versions[item.index()],
            },
        );
    }

    /// §4: "deadlock detection is initiated when a lock cannot be
    /// granted." The waits-for relation is explored lazily from the
    /// blocked transaction — successors are computed on demand from the
    /// lock table, so only the reachable part of the graph is visited —
    /// and victims are aborted until no cycle through `trigger` remains.
    fn detect_deadlocks(&mut self, now: SimTime, trigger: TxnId) {
        // The finder is moved out for the duration of the search so its
        // buffers can be reused while the successor closure borrows the
        // lock table.
        let mut finder = std::mem::take(&mut self.finder);
        loop {
            let locks = &self.locks;
            // Deadlock detection stays centralized: accesses are
            // sequential, so a transaction queues on at most one item
            // globally — the scan finds the (unique) shard it waits at.
            let found = finder.find_cycle(trigger, |t, out| {
                for lt in locks {
                    if let Some(item) = lt.queued_on(t) {
                        lt.waits_for_into(t, item, out);
                        break;
                    }
                }
            });
            let Some(cycle) = found else { break };
            let victim = self.cfg.victim.choose(cycle, |t| {
                self.locks.iter().map(|lt| lt.held_by(t).len()).sum()
            });
            self.abort_victim(now, victim);
            if victim == trigger {
                break;
            }
        }
        self.finder = finder;
    }

    // lint:allow(L5): the abort is traced when it lands — the client records TraceKind::Aborted on the notice; a server-side record here would double-count the event for the P-properties
    fn abort_victim(&mut self, now: SimTime, victim: TxnId) {
        debug_assert_eq!(self.table.status(victim), TxnStatus::Active);
        self.table.set_status(victim, TxnStatus::Aborting);
        self.rec.retire_victim(victim);
        // The shards own the authoritative copies, so the victim's locks
        // are released immediately on every shard (in ascending shard
        // order); the client only learns of the abort one latency later.
        let mut woken = Vec::new();
        for lt in &mut self.locks {
            woken.extend(lt.release_all(victim));
        }
        for (item, t, _) in woken {
            let c = self.table.info(t).client;
            self.send_grant(now, c, t, item);
        }
        self.send_abort_notice(0, victim);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtocolKind;

    fn cfg(clients: u32, latency: u64, pr: f64) -> EngineConfig {
        let mut c = EngineConfig::table1(ProtocolKind::S2pl, clients, latency, pr);
        c.warmup_txns = 50;
        c.measured_txns = 300;
        c.drain = true;
        c
    }

    #[test]
    fn single_client_never_aborts() {
        let mut c = cfg(1, 10, 0.5);
        c.record_history = true;
        let m = S2plEngine::new(c).run();
        assert_eq!(m.aborted_total, 0, "no contention, no deadlock");
        assert!(m.committed_total >= 350);
        assert!(m.response.mean() > 0.0);
    }

    #[test]
    fn single_item_single_access_response_is_rtt_plus_think() {
        // One client, one item, exactly one access per txn: response =
        // 2 * latency (request + grant) + one think time in [1,3].
        let mut c = cfg(1, 100, 1.0);
        c.items = crate::config::ItemSpace::single(1);
        c.profile.min_items = 1;
        c.profile.max_items = 1;
        let m = S2plEngine::new(c).run();
        assert!(m.response.min().unwrap() >= 201.0);
        assert!(m.response.max().unwrap() <= 203.0);
    }

    #[test]
    fn contended_run_completes_with_aborts_counted() {
        let m = S2plEngine::new(cfg(10, 50, 0.2)).run();
        assert_eq!(
            m.aborts.trials(),
            300,
            "measurement window must be exactly full"
        );
        assert!(m.committed_total > 0);
        // With 10 clients on 25 hot items and 80% writes, some deadlocks
        // must occur.
        assert!(m.aborted_total > 0, "expected deadlock aborts");
    }

    #[test]
    fn read_only_workload_never_deadlocks() {
        let m = S2plEngine::new(cfg(10, 50, 1.0)).run();
        assert_eq!(m.aborted_total, 0, "S locks are all-compatible");
    }

    #[test]
    fn determinism_same_seed_same_metrics() {
        let a = S2plEngine::new(cfg(5, 100, 0.5)).run();
        let b = S2plEngine::new(cfg(5, 100, 0.5)).run();
        assert_eq!(a.response.mean(), b.response.mean());
        assert_eq!(a.committed_total, b.committed_total);
        assert_eq!(a.aborted_total, b.aborted_total);
        assert_eq!(a.net.messages(), b.net.messages());
    }

    #[test]
    fn different_seeds_differ() {
        let a = S2plEngine::new(cfg(5, 100, 0.5)).run();
        let mut c2 = cfg(5, 100, 0.5);
        c2.seed ^= 0xdead_beef;
        let b = S2plEngine::new(c2).run();
        assert_ne!(a.response.mean(), b.response.mean());
    }

    #[test]
    fn message_count_matches_formula_without_contention() {
        // 1 client => zero contention and zero aborts. Each txn with n
        // items costs n requests + n grants + 1 commit.
        let mut c = cfg(1, 10, 0.0);
        c.drain = true;
        let m = S2plEngine::new(c).run();
        let n_req = m.net.of_kind("s2pl.lock_request");
        let n_grant = m.net.of_kind("s2pl.grant");
        let n_commit = m.net.of_kind("s2pl.commit_release");
        assert_eq!(n_req, n_grant);
        assert_eq!(n_commit, m.committed_total);
        assert_eq!(m.net.messages(), n_req + n_grant + n_commit);
    }

    #[test]
    fn latency_dominates_response_time() {
        let low = S2plEngine::new(cfg(5, 1, 0.5)).run();
        let high = S2plEngine::new(cfg(5, 500, 0.5)).run();
        assert!(
            high.response.mean() > 50.0 * low.response.mean().max(1.0),
            "500-unit latency should dwarf 1-unit latency: {} vs {}",
            high.response.mean(),
            low.response.mean()
        );
    }

    #[test]
    fn lossy_run_completes_via_retries_and_leases() {
        // 5% message loss: the drain only empties the calendar if client
        // retransmission and the server's transaction lease recover every
        // lost request, grant, notice, and commit-release.
        let mut c = cfg(10, 50, 0.2);
        c.faults = Some(g2pl_faults::FaultPlan::message_loss(0.05));
        let m = S2plEngine::new(c).run();
        assert_eq!(m.aborts.trials(), 300, "measurement window filled");
        assert!(m.faults.injected.dropped > 0, "no faults injected");
        assert!(m.faults.retries > 0, "losses recovered without retries");
    }

    #[test]
    fn lossy_run_is_deterministic() {
        let mk = || {
            let mut c = cfg(8, 50, 0.3);
            c.faults = Some(g2pl_faults::FaultPlan::message_loss(0.08));
            S2plEngine::new(c).run()
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a.committed_total, b.committed_total);
        assert_eq!(a.aborted_total, b.aborted_total);
        assert_eq!(a.net.messages(), b.net.messages());
        assert_eq!(a.faults.injected, b.faults.injected);
    }

    #[test]
    fn inert_fault_plan_changes_nothing() {
        let base = S2plEngine::new(cfg(5, 100, 0.5)).run();
        let mut c = cfg(5, 100, 0.5);
        c.faults = Some(g2pl_faults::FaultPlan::default());
        let m = S2plEngine::new(c).run();
        assert_eq!(base.response.mean(), m.response.mean());
        assert_eq!(base.net.messages(), m.net.messages());
        assert_eq!(base.events, m.events);
        assert!(!m.faults.any());
    }

    #[test]
    fn server_crash_is_recovered() {
        let mut c = cfg(6, 50, 0.3);
        c.faults = Some(g2pl_faults::FaultPlan {
            server_crashes: vec![
                g2pl_faults::ServerCrashWindow::fixed(4_000, 1_500),
                g2pl_faults::ServerCrashWindow::fixed(15_000, 800),
            ],
            ..Default::default()
        });
        let m = S2plEngine::new(c).run();
        assert_eq!(m.faults.server_crashes, 2);
        assert!(m.faults.reregistrations > 0, "handshake never ran");
        assert!(m.faults.server_msgs_lost > 0, "outage lost no messages");
        assert_eq!(m.aborts.trials(), 300, "run completed despite crashes");
    }

    #[test]
    fn server_crash_run_is_deterministic() {
        let mk = || {
            let mut c = cfg(6, 50, 0.3);
            c.faults = Some(g2pl_faults::FaultPlan {
                drop_prob: 0.02,
                server_crashes: vec![g2pl_faults::ServerCrashWindow {
                    shard: 0,
                    at: 5_000,
                    down_for: 1_000,
                    jitter: 400,
                }],
                ..Default::default()
            });
            S2plEngine::new(c).run()
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a.committed_total, b.committed_total);
        assert_eq!(a.aborted_total, b.aborted_total);
        assert_eq!(a.net.messages(), b.net.messages());
        assert_eq!(a.faults.server_msgs_lost, b.faults.server_msgs_lost);
        assert_eq!(a.faults.reregistrations, b.faults.reregistrations);
    }

    #[test]
    fn client_crash_is_recovered() {
        let mut c = cfg(6, 50, 0.3);
        c.faults = Some(g2pl_faults::FaultPlan {
            crashes: vec![g2pl_faults::CrashWindow {
                client: 2,
                at: 4_000,
                down_for: 2_000,
            }],
            ..Default::default()
        });
        let m = S2plEngine::new(c).run();
        assert_eq!(m.faults.crashes, 1);
        assert_eq!(m.aborts.trials(), 300, "run completed despite the crash");
    }
}
