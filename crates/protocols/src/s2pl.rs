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
use crate::history::{AccessRecord, CommitRecord};
use crate::metrics::RunMetrics;
use crate::runtime::{
    lock_mode, on_commit_ack, on_prepare_ack, reopen_lock_shard, resend_commit_slices,
    restart_client, run, send_commit_ack, send_grant, try_commit, ClientPhase, Ev, Labels,
    LockLabels, LockServer, Message, Protocol, Shell, TimerKind, TxnStatus, CTRL_BYTES,
};
use crate::tracelog::TraceKind;
use g2pl_lockmgr::{AcquireOutcome, LockTable};
use g2pl_simcore::{ClientId, ItemId, SimTime, SiteId, TxnId, Version};
use g2pl_wal::LogRecord;
use g2pl_workload::AccessMode;
use std::collections::BTreeMap;

/// Per-shard slice of a committing transaction: written `(item,
/// version)` pairs plus read-only items, bound for one home server.
type ShardCommitGroup = (Vec<(ItemId, Version)>, Vec<ItemId>);

/// Accounting labels of the messages the shared code sends.
const LABELS: Labels = Labels {
    lock_request: "s2pl.lock_request",
    abort_notice: "s2pl.abort_notice",
    commit_query: "s2pl.commit_query",
    commit_verdict: "s2pl.commit_verdict",
    reregister_req: "s2pl.reregister_req",
    prepare_ack: "s2pl.prepare_ack",
};

/// The s-2PL simulation engine.
pub struct S2plEngine {
    sh: Shell,
    /// One lock table per server shard; an item's locks live at the
    /// shard owning it ([`EngineConfig::shard_of`]).
    locks: Vec<LockTable>,
    finder: CycleFinder,
}

impl S2plEngine {
    /// Build an engine for `cfg`.
    pub fn new(cfg: EngineConfig) -> Self {
        S2plEngine {
            locks: (0..cfg.num_shards()).map(|_| LockTable::new()).collect(),
            finder: CycleFinder::default(),
            sh: Shell::new(cfg, LABELS),
        }
    }

    /// Run to completion and report metrics.
    pub fn run(self) -> RunMetrics {
        run(self)
    }

    /// Install `txn`'s written versions at their home shard and mark them
    /// permanent in the committer's WAL.
    fn install(&mut self, txn: TxnId, writes: Vec<(ItemId, Version)>) {
        let sh = &mut self.sh;
        let committer = sh.table.info(txn).client;
        for (item, version) in writes {
            debug_assert_eq!(
                version,
                sh.versions[item.index()] + 1,
                "write version chain broken for {item}"
            );
            sh.versions[item.index()] = version;
            if let Some(wal) = &mut sh.wal {
                wal[committer.index()].mark_permanent(txn, item);
            }
        }
    }

    /// Release every lock `txn` holds at shard `shard`, shipping the
    /// grants it wakes.
    fn release_at(&mut self, now: SimTime, shard: usize, txn: TxnId) {
        for (item, t, _) in self.locks[shard].release_all(txn) {
            let c = self.sh.table.info(t).client;
            send_grant(self, now, c, t, item);
        }
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
            let victim = self.sh.cfg.victim.choose(cycle, |t| {
                self.locks.iter().map(|lt| lt.held_by(t).len()).sum()
            });
            self.abort_victim(now, victim);
            if victim == trigger {
                break;
            }
        }
        self.finder = finder;
    }
}

impl Protocol for S2plEngine {
    fn shell(&mut self) -> &mut Shell {
        &mut self.sh
    }

    fn issue_access(&mut self, now: SimTime, client: ClientId, txn: TxnId, idx: usize) {
        self.sh.request_access(now, client, txn, idx);
    }

    fn try_commit(&mut self, now: SimTime, client: ClientId, txn: TxnId) {
        try_commit(self, now, client, txn);
    }

    fn resend_pending_commits(&mut self, client: ClientId) {
        resend_commit_slices(self, client);
    }

    fn on_client_msg(&mut self, now: SimTime, client: ClientId, msg: Message) {
        let sh = &mut self.sh;
        match msg {
            Message::SGrant { txn, item, version } => {
                let faults_on = sh.rec.faults_on;
                let c = &mut sh.clients[client.index()];
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
                sh.collector.on_access_wait(wait);
                let think = sh.cfg.profile.draw_think(&mut c.time_rng);
                sh.trace.record(
                    now,
                    TraceKind::Granted,
                    Some(txn),
                    Some(item),
                    client.into(),
                );
                sh.spans.granted(now, txn, item);
                sh.cal.schedule_in(
                    think,
                    Ev::Timer {
                        client,
                        kind: TimerKind::ThinkDone(txn),
                    },
                );
            }
            Message::AbortNotice { txn } => self.finalize_abort(now, client, txn),
            Message::PrepareAck { txn, shard } => on_prepare_ack(self, now, client, txn, shard),
            Message::SCommitAck { txn, shard } => on_commit_ack(sh, client, txn, shard),
            Message::ReregisterReq { shard, epoch } => {
                // Re-report everything the client holds of the restarted
                // shard: granted items of the live transaction homed
                // there and that shard's slice of an unacknowledged
                // (committed-but-unreleased) commit.
                let c = &sh.clients[client.index()];
                let mut held = Vec::new();
                let mut txn = None;
                if let Some(active) = &c.txn {
                    txn = Some(active.id);
                    for idx in 0..active.granted {
                        let (item, mode) = active.spec.access(idx);
                        if sh.cfg.shard_of(item) == shard {
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
                sh.net.send(
                    &mut sh.cal,
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

    fn on_server_msg(&mut self, now: SimTime, shard: usize, msg: Message) {
        match msg {
            Message::LockReq {
                txn,
                client,
                item,
                mode,
            } => {
                debug_assert_eq!(
                    self.sh.cfg.shard_of(item) as usize,
                    shard,
                    "lock request routed to the wrong shard"
                );
                match self.sh.table.status(txn) {
                    TxnStatus::Active => {}
                    TxnStatus::Aborting | TxnStatus::Aborted if self.sh.rec.faults_on => {
                        // A retried request from a victim whose abort
                        // notice may have been lost: answer it again.
                        self.sh.send_abort_notice(shard, txn);
                        return;
                    }
                    _ => return, // stale request of a finished transaction
                }
                if self.sh.rec.faults_on {
                    self.sh.rec.touch(now, txn, &mut self.sh.cal);
                    if self.locks[shard].mode_of(txn, item).is_some() {
                        // Duplicate of an already-granted request (the
                        // grant or the original request was lost or
                        // duplicated): re-ship the grant.
                        send_grant(self, now, client, txn, item);
                        return;
                    }
                    if self.locks[shard].queued_on(txn) == Some(item) {
                        return; // duplicate of a still-queued request
                    }
                }
                self.sh.spans.req_arrived(now, txn, item);
                match self.locks[shard].acquire(txn, item, mode) {
                    AcquireOutcome::Granted => send_grant(self, now, client, txn, item),
                    AcquireOutcome::Queued => self.detect_deadlocks(now, txn),
                }
            }
            Message::Prepare {
                txn,
                writes,
                involved,
            } => {
                let sh = &mut self.sh;
                if sh.table.status(txn) == TxnStatus::Active {
                    sh.rec.touch(now, txn, &mut sh.cal);
                }
                let voted = sh.rec.on_prepare(
                    now,
                    shard,
                    txn,
                    writes,
                    involved,
                    &sh.table,
                    &mut sh.net,
                    &mut sh.cal,
                    &mut sh.trace,
                );
                if !voted {
                    // The abort won the race with the voting round:
                    // answer the (possibly lost) notice again.
                    sh.send_abort_notice(shard, txn);
                }
            }
            Message::SCommit { txn, writes, .. } => {
                let committer = self.sh.table.info(txn).client;
                if self.sh.rec.faults_on {
                    // Duplicate commit-release slice (already applied at
                    // this shard): the ack was lost, so just acknowledge
                    // again. Each shard's bit of the applied set is
                    // durable — it survives crashes via log replay.
                    if self.sh.rec.applied_at(txn, shard) {
                        send_commit_ack(self, shard, committer, txn);
                        return;
                    }
                    self.sh.rec.end_lease(txn);
                }
                let sh = &mut self.sh;
                sh.rec.apply_commit(now, shard, txn, &writes, &mut sh.trace);
                self.install(txn, writes);
                self.sh.trace.record(
                    now,
                    TraceKind::ReleasedAtServer,
                    Some(txn),
                    None,
                    SiteId::server(shard as u32),
                );
                self.sh.spans.release_arrived(now, txn, true);
                self.release_at(now, shard, txn);
                if self.sh.rec.faults_on {
                    send_commit_ack(self, shard, committer, txn);
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
                let sh = &mut self.sh;
                if sh
                    .rec
                    .reregistered(now, shard, client, epoch, txn, &mut sh.trace)
                {
                    let pending = pending.as_ref();
                    sh.rec
                        .check_lock_report(shard, &sh.table, client, txn, &held, pending);
                    if sh.rec.all_answered(shard) {
                        self.finish_recovery(now, shard);
                    }
                }
            }
            Message::CommitQuery {
                txn, from_shard, ..
            } => {
                let sh = &mut self.sh;
                sh.rec.answer_commit_query(
                    shard,
                    txn,
                    from_shard,
                    &sh.table,
                    &mut sh.net,
                    &mut sh.cal,
                );
            }
            Message::CommitVerdict { txn, committed } => {
                if self.sh.rec.on_commit_verdict(shard, txn, committed) {
                    self.resolve_indoubt_commit(now, shard, txn);
                }
            }
            other => unreachable!("s-2PL server cannot receive {other:?}"),
        }
    }

    fn on_restart(&mut self, now: SimTime, client: ClientId) {
        restart_client(self, now, client);
    }

    /// A crash loses the shard's lock table and its items' installed
    /// versions; a restart restores the versions from the replayed log
    /// and opens the re-registration handshake.
    fn on_server_fault(&mut self, now: SimTime, shard: usize, up: bool) {
        if up {
            self.sh.restart_shard(now, shard, |_| {});
        } else {
            self.sh.crash_shard(now, shard);
            self.locks[shard] = LockTable::new();
        }
    }

    /// Restore the shard's grants, then abort the active transactions of
    /// clients that never answered the handshake (presumed dead).
    fn finish_recovery(&mut self, now: SimTime, shard: usize) {
        let silent = reopen_lock_shard(self, now, shard);
        self.sh.trace.record(
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

    // lint:allow(L5): the abort is traced when it lands — the client records TraceKind::Aborted on the notice; a server-side record here would double-count the event for the P-properties
    fn abort_victim(&mut self, now: SimTime, victim: TxnId) {
        debug_assert_eq!(self.sh.table.status(victim), TxnStatus::Active);
        self.sh.table.set_status(victim, TxnStatus::Aborting);
        self.sh.rec.retire_victim(victim);
        // The shards own the authoritative copies, so the victim's locks
        // are released immediately on every shard (in ascending shard
        // order); the client only learns of the abort one latency later.
        let mut woken = Vec::new();
        for lt in &mut self.locks {
            woken.extend(lt.release_all(victim));
        }
        for (item, t, _) in woken {
            let c = self.sh.table.info(t).client;
            send_grant(self, now, c, t, item);
        }
        self.sh.send_abort_notice(0, victim);
    }

    fn assert_drained(&self) {
        assert!(
            self.locks.iter().all(LockTable::is_quiescent),
            "locks leaked after drain"
        );
    }

    fn into_metrics(self, events: u64) -> RunMetrics {
        self.sh.into_metrics("s-2PL", events)
    }
}

impl LockServer for S2plEngine {
    const LOCK_LABELS: LockLabels = LockLabels {
        grant: "s2pl.grant",
        prepare: "s2pl.prepare",
        commit_release: "s2pl.commit_release",
        commit_ack: "s2pl.commit_ack",
    };

    fn parts(&mut self) -> (&mut Shell, &mut [LockTable]) {
        (&mut self.sh, &mut self.locks)
    }

    /// The commit decision point: every involved shard has voted yes (or
    /// the transaction is single-home and no votes were needed). From
    /// here the commit is irrevocable — the client's WAL `Commit` record
    /// below is the coordinator's durable decision record, and the
    /// commit-release slices retransmit until every shard applies.
    fn commit_decided(&mut self, now: SimTime, client: ClientId, txn: TxnId) {
        let sh = &mut self.sh;
        let c = &mut sh.clients[client.index()];
        // lint:allow(L3): commit is only reachable from a client with an active txn
        let active = c.txn.take().expect("committing client has a transaction");
        debug_assert_eq!(active.id, txn);
        sh.table.set_status(txn, TxnStatus::Committed);
        let measured = sh
            .collector
            .on_commit_sized(now.since(active.start), active.spec.len());
        sh.trace
            .record(now, TraceKind::Committed, Some(txn), None, client.into());

        // Group the transaction's accesses by owning shard: a multi-home
        // commit sends one combined commit/release message per involved
        // shard (§3.1's single message, per home), all in the same round.
        let mut by_shard: BTreeMap<u32, ShardCommitGroup> = BTreeMap::new();
        let mut records = Vec::new();
        for (idx, &(item, mode)) in active.spec.accesses.iter().enumerate() {
            let observed = active.versions[idx];
            let slot = by_shard.entry(sh.cfg.shard_of(item)).or_default();
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
        sh.spans
            .commit_local(now, txn, by_shard.len() as u32, measured);
        if let Some(h) = &mut sh.history {
            h.push(CommitRecord {
                txn,
                at: now,
                accesses: records,
            });
        }

        if let Some(wal) = &mut sh.wal {
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

        if sh.rec.faults_on {
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
            sh.schedule_idle(client);
        }
        for (shard, (writes, reads)) in by_shard {
            let bytes = CTRL_BYTES + writes.len() as u64 * sh.cfg.item_size_bytes;
            sh.net.send(
                &mut sh.cal,
                client.into(),
                SiteId::server(shard),
                Self::LOCK_LABELS.commit_release,
                bytes,
                Message::SCommit { txn, writes, reads },
            );
        }
        if sh.rec.faults_on {
            sh.clients[client.index()].arm_retry(&mut sh.cal, sh.rec.retry_base);
        }
    }

    /// Abort the client's transaction locally: on receipt of the server's
    /// notice, or — under faults — when the client discovers the abort
    /// on its own (restart after a crash, or a commit racing the notice).
    fn finalize_abort(&mut self, now: SimTime, client: ClientId, txn: TxnId) {
        let sh = &mut self.sh;
        let c = &mut sh.clients[client.index()];
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
        if sh.rec.faults_on {
            c.retry_progress();
        }
        sh.table.set_status(txn, TxnStatus::Aborted);
        sh.collector.on_abort_diag(read_only, waste, depth);
        if let Some(wal) = &mut sh.wal {
            wal[client.index()].append(LogRecord::Abort { txn });
        }
        sh.trace
            .record(now, TraceKind::Aborted, Some(txn), None, client.into());
        sh.spans.aborted(now, txn);
        sh.schedule_idle(client);
    }

    /// Positive commit evidence arrived for an in-doubt prepared vote at
    /// shard `shard`: install the prepared write slice exactly as the lost
    /// commit-release would have, and release the transaction's locks.
    fn resolve_indoubt_commit(&mut self, now: SimTime, shard: usize, txn: TxnId) {
        let sh = &mut self.sh;
        if let Some(writes) = sh.rec.commit_in_doubt(now, shard, txn, &mut sh.trace) {
            self.install(txn, writes);
            self.release_at(now, shard, txn);
        }
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
