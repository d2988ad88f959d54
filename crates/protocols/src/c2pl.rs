//! Caching two-phase locking (c-2PL) — the extension variant of §3.1.
//!
//! "A variation of s-2PL that allows caching of locks across transaction
//! boundaries is called caching 2PL (c-2PL)." The paper evaluates only
//! s-2PL and g-2PL and notes the results "can be easily extended to the
//! c-2PL protocol"; we implement c-2PL so the benches can quantify that
//! claim.
//!
//! # Model
//!
//! After a transaction ends, its client *retains* the data items it
//! accessed, together with a shared cache lock registered in the server's
//! directory (exclusive locks demote to cached-shared at commit). A later
//! transaction at the same client reads a cached item locally — zero
//! messages, zero latency: the caching win.
//!
//! A write request for an item with remote cached copies triggers a
//! **callback** round: the server recalls every cached copy and ships the
//! exclusive grant only after the transactional lock is available *and*
//! every callback has been acknowledged. A client whose *current*
//! transaction is reading its cached copy defers the acknowledgement
//! until that transaction ends (the standard callback-locking rule, per
//! the paper's reference \[5\], Franklin & Carey). Deferred callbacks
//! create waits-for edges, so the deadlock detector sees them.
//!
//! The lock server is s-2PL's (`runtime::LockServer`); this file is the
//! cache layer it reaches through the trait's hooks.

use crate::config::EngineConfig;
use crate::history::AccessRecord;
use crate::metrics::RunMetrics;
use crate::runtime::{
    abort_victim, detect_deadlocks, finalize_abort, finish_commit, finish_recovery, on_client_msg,
    on_server_msg, run, send_grant, Ev, Labels, LockCore, LockLabels, LockServer, Message,
    Protocol, Shell, TxnStatus, CTRL_BYTES,
};
use crate::tracelog::TraceKind;
use g2pl_lockmgr::LockMode;
use g2pl_simcore::{ClientId, ItemId, SimTime, Slab, TxnId, Version};
use g2pl_workload::AccessMode;

/// Accounting labels of the messages the shared code sends.
const LABELS: Labels = Labels {
    lock_request: "c2pl.lock_request",
    abort_notice: "c2pl.abort_notice",
    commit_query: "c2pl.commit_query",
    commit_verdict: "c2pl.commit_verdict",
    reregister_req: "c2pl.reregister_req",
    prepare_ack: "c2pl.prepare_ack",
    prepare: "c2pl.prepare",
    commit: "c2pl.commit_release",
};

/// A granted-but-callback-blocked exclusive request.
struct XBarrier {
    txn: TxnId,
    client: ClientId,
    acks_left: usize,
}

/// The c-2PL simulation engine: the s-2PL lock server plus the cache
/// layer below, which it reaches through the [`LockServer`] hooks.
pub struct C2plEngine {
    /// The shared lock-server state. Its fault domains' retry period also
    /// paces the server-side callback re-sends.
    core: LockCore,
    /// Per-client cache contents, indexed by `ItemId::index()`: `Some(v)`
    /// when the client caches version `v` of the item.
    caches: Vec<Vec<Option<Version>>>,
    /// Items of the client's *current* transaction that were read from
    /// the local cache (they pin the cache entry until transaction end).
    /// A transaction touches at most a handful of items, so a linear
    /// scan of this list beats hashing.
    reading_cached: Vec<Vec<ItemId>>,
    /// Callbacks received while the item was pinned; acknowledged at
    /// transaction end. A `Vec` (not a set) so every callback message
    /// gets exactly one acknowledgement, even if the same item is
    /// recalled twice across dismantled barriers.
    deferred_callbacks: Vec<Vec<ItemId>>,
    /// Server-side cache directory: which clients cache each item, as a
    /// sorted vector per item (so recall fan-out needs no re-sort).
    /// Indexed globally by item; each row is owned by the item's shard.
    directory: Vec<Vec<ClientId>>,
    /// Exclusive grants waiting for callback acknowledgements, indexed
    /// by `ItemId::index()` (at most one barrier per item).
    barriers: Vec<Option<XBarrier>>,
    /// The item whose barrier each transaction owns, indexed by
    /// `TxnId::index()`: a barrier owner waits for its grant, so it owns
    /// at most one.
    barrier_of: Slab<Option<ItemId>>,
}

impl C2plEngine {
    /// Build an engine for `cfg`.
    pub fn new(cfg: EngineConfig) -> Self {
        let n = cfg.num_clients as usize;
        C2plEngine {
            caches: vec![vec![None; cfg.num_items() as usize]; n],
            reading_cached: vec![Vec::new(); n],
            deferred_callbacks: vec![Vec::new(); n],
            directory: vec![Vec::new(); cfg.num_items() as usize],
            barriers: (0..cfg.num_items()).map(|_| None).collect(),
            barrier_of: Slab::new(),
            core: LockCore::new(cfg, LABELS),
        }
    }

    /// Run to completion and report metrics.
    pub fn run(self) -> RunMetrics {
        run(self)
    }

    /// Acknowledge the recall of `client`'s cached copy of `item`.
    fn send_callback_ack(&mut self, client: ClientId, item: ItemId) {
        let sh = &mut self.core.sh;
        sh.net.send(
            &mut sh.cal,
            client.into(),
            sh.cfg.shard_site(item),
            "c2pl.callback_ack",
            CTRL_BYTES,
            Message::CallbackAck { client, item },
        );
    }

    /// Recall `target`'s cached copy of `item`.
    fn send_callback(&mut self, item: ItemId, target: ClientId) {
        let sh = &mut self.core.sh;
        sh.net.send(
            &mut sh.cal,
            sh.cfg.shard_site(item),
            target.into(),
            "c2pl.callback",
            CTRL_BYTES,
            Message::Callback { item },
        );
    }

    /// Insert `client` into a sorted directory row (no-op when present).
    fn directory_insert(row: &mut Vec<ClientId>, client: ClientId) {
        if let Err(pos) = row.binary_search(&client) {
            row.insert(pos, client);
        }
    }

    /// Remove `client` from a sorted directory row; true when it was there.
    fn directory_remove(row: &mut Vec<ClientId>, client: ClientId) -> bool {
        match row.binary_search(&client) {
            Ok(pos) => {
                row.remove(pos);
                true
            }
            Err(_) => false,
        }
    }
}

impl Protocol for C2plEngine {
    fn shell(&mut self) -> &mut Shell {
        &mut self.core.sh
    }

    /// Issue access `idx`: serve reads from the local cache when
    /// possible, otherwise go to the server.
    fn issue_access(&mut self, now: SimTime, client: ClientId, txn: TxnId, idx: usize) {
        let sh = &mut self.core.sh;
        let (item, mode) = sh.clients[client.index()].txn().spec.access(idx);
        if mode == AccessMode::Read {
            if let Some(version) = self.caches[client.index()][item.index()] {
                // Cache hit: grant locally, instantly, with zero messages.
                sh.collector.on_access_wait(SimTime::ZERO);
                let pins = &mut self.reading_cached[client.index()];
                if !pins.contains(&item) {
                    pins.push(item);
                }
                sh.trace.record(
                    now,
                    TraceKind::CacheHit,
                    Some(txn),
                    Some(item),
                    client.into(),
                );
                sh.spans.granted_local(now, txn, item);
                sh.begin_think(client, txn, version);
                return;
            }
        }
        sh.request_access(now, client, txn, idx);
    }

    /// The cache fills at the end of the commit (`on_txn_end`), not
    /// before the decision: an abort may still win the race.
    fn finish_commit(&mut self, now: SimTime, client: ClientId, txn: TxnId) {
        finish_commit(self, now, client, txn);
    }

    fn finalize_abort(&mut self, now: SimTime, client: ClientId, txn: TxnId) {
        finalize_abort(self, now, client, txn);
    }

    fn on_client_msg(&mut self, now: SimTime, client: ClientId, msg: Message) {
        let Message::Callback { item } = msg else {
            return on_client_msg(self, now, client, msg);
        };
        if self.reading_cached[client.index()].contains(&item) {
            // The current transaction reads this cached copy: defer the
            // acknowledgement until it finishes.
            self.deferred_callbacks[client.index()].push(item);
        } else {
            self.caches[client.index()][item.index()] = None;
            self.send_callback_ack(client, item);
        }
    }

    fn on_server_msg(&mut self, now: SimTime, shard: usize, msg: Message) {
        let Message::CallbackAck { client, item } = msg else {
            return on_server_msg(self, now, shard, msg);
        };
        // Only an ack that actually evicts a directory entry may decrement
        // the barrier: duplicate acks (possible when a dismantled
        // barrier's callbacks race a successor barrier's) must not release
        // the successor early.
        if !Self::directory_remove(&mut self.directory[item.index()], client) {
            return;
        }
        let Some(b) = self.barriers[item.index()].as_mut() else {
            return;
        };
        b.acks_left -= 1;
        if b.acks_left == 0 {
            let (txn, owner) = (b.txn, b.client);
            self.barriers[item.index()] = None;
            *self.barrier_of.ensure(txn.index()) = None;
            // Aborted owners dismantle their barriers eagerly, so a
            // surviving barrier always has a live owner.
            debug_assert_eq!(self.core.sh.table.status(txn), TxnStatus::Active);
            send_grant(self, now, owner, txn, item);
        }
    }

    /// Re-send the callbacks still outstanding for the transaction's
    /// exclusive barrier(s). Directory entries shrink as acks land, so
    /// only unacknowledged copies are recalled again; a duplicate
    /// callback to a pinning client yields a duplicate ack, which the
    /// ack handler already refuses to double-count.
    fn on_event(&mut self, _now: SimTime, ev: Ev) {
        let Ev::CallbackRetry { txn } = ev else {
            unreachable!("{ev:?} is not part of the c-2PL protocol")
        };
        let Some(item) = self.barrier_of.get(txn.index()).copied().flatten() else {
            return;
        };
        let owner = self.barriers[item.index()]
            .as_ref()
            // lint:allow(L3): barrier_of only names items whose barrier txn owns
            .expect("owned barrier")
            .client;
        let remote: Vec<ClientId> = self.directory[item.index()]
            .iter()
            .copied()
            .filter(|&c| c != owner)
            .collect();
        for target in remote {
            self.core.sh.rec.fsum.retries += 1;
            self.send_callback(item, target);
        }
        let sh = &mut self.core.sh;
        sh.cal
            .schedule_in(sh.rec.retry_base, Ev::CallbackRetry { txn });
    }

    /// A crash loses the client's cache, except the copies its active
    /// transaction has read: those reads belong to the transaction, which
    /// survives the crash like its server-held locks, so their pins — and
    /// the callbacks deferred behind them — survive too, and a writer
    /// cannot overwrite what the transaction read before it ends. The
    /// server's directory becomes stale, which is safe — retried
    /// callbacks to a copy the client no longer holds are simply
    /// acknowledged, shrinking the directory back to truth.
    fn on_client_crash(&mut self, client: ClientId) {
        let pins = &self.reading_cached[client.index()];
        for (i, copy) in self.caches[client.index()].iter_mut().enumerate() {
            if !pins.contains(&ItemId::new(i as u32)) {
                *copy = None;
            }
        }
    }

    /// On top of the s-2PL volatile state, a crash loses the shard's slice
    /// of the cache directory and every callback barrier there: the
    /// directory is rebuilt from re-registration reports, and barrier
    /// owners re-form their recalls through the ordinary request-retry
    /// path (their exclusive grant was never shipped, so it is
    /// deliberately absent from the durable grant history).
    fn on_server_fault(&mut self, now: SimTime, shard: usize, up: bool) {
        let Some(items) = self.core.server_fault(now, shard, up) else {
            return;
        };
        self.directory[items.clone()]
            .iter_mut()
            .for_each(Vec::clear);
        for b in self.barriers[items].iter_mut().filter_map(Option::take) {
            *self.barrier_of.ensure(b.txn.index()) = None;
        }
    }

    /// Close the handshake (`runtime::finish_recovery`). A client that stayed
    /// silent is presumed crashed, and its directory entries are not
    /// rebuilt. That is exact for the copies a crash drops, but not for
    /// the copies a live-but-silent client, or a crashed client's active
    /// transaction, still holds: a later writer is granted without
    /// recalling them (a known gap).
    fn finish_recovery(&mut self, now: SimTime, shard: usize) {
        finish_recovery(self, now, shard);
    }

    fn abort_victim(&mut self, now: SimTime, victim: TxnId) {
        abort_victim(self, now, victim);
    }

    fn assert_drained(&self) {
        self.core.assert_drained();
        assert!(
            self.barriers.iter().all(Option::is_none),
            "callback barriers leaked"
        );
    }

    fn into_metrics(self, events: u64) -> RunMetrics {
        self.core.sh.into_metrics("c-2PL", events)
    }
}

impl LockServer for C2plEngine {
    const LOCK_LABELS: LockLabels = LockLabels {
        grant: "c2pl.grant",
        commit_ack: "c2pl.commit_ack",
        reregister: "c2pl.reregister",
    };

    fn core(&self) -> &LockCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut LockCore {
        &mut self.core
    }

    /// An exclusive grant recalls the remote cached copies first: it
    /// ships only once every callback is acknowledged.
    fn ship_grant(
        &mut self,
        now: SimTime,
        client: ClientId,
        txn: TxnId,
        item: ItemId,
        mode: LockMode,
    ) {
        if mode.is_exclusive() {
            // The directory is kept sorted, so the recall fan-out below is
            // already in deterministic client order.
            let remote: Vec<ClientId> = self.directory[item.index()]
                .iter()
                .copied()
                .filter(|&c| c != client)
                .collect();
            // The writer's own stale copy is superseded by the grant.
            Self::directory_remove(&mut self.directory[item.index()], client);
            self.caches[client.index()][item.index()] = None;
            if !remote.is_empty() {
                for &target in &remote {
                    self.send_callback(item, target);
                }
                self.barriers[item.index()] = Some(XBarrier {
                    txn,
                    client,
                    acks_left: remote.len(),
                });
                let owned = self.barrier_of.ensure(txn.index());
                debug_assert!(owned.is_none(), "{txn} already owns a barrier");
                *owned = Some(item);
                let sh = &mut self.core.sh;
                if sh.rec.faults_on {
                    // Callbacks (or their acks) can be lost: keep
                    // re-sending to the still-registered copies until the
                    // barrier opens or its owner dies.
                    sh.cal
                        .schedule_in(sh.rec.retry_base, Ev::CallbackRetry { txn });
                }
                // The new barrier can close a waits-for cycle (its owner
                // now waits on every transaction pinning a cached copy),
                // so detection must run here, not only on lock queueing.
                detect_deadlocks(self, now, txn);
                return;
            }
        }
        send_grant(self, now, client, txn, item);
    }

    /// An exclusive grant behind a callback barrier is not re-shipped:
    /// the callback-retry timer drives its progress.
    fn grant_gated(&self, txn: TxnId, item: ItemId) -> bool {
        self.barriers[item.index()]
            .as_ref()
            .is_some_and(|b| b.txn == txn)
    }

    /// Cache pins never took a server lock, so the report leaves them out
    /// of the held locks.
    fn cache_report(
        &self,
        client: ClientId,
        shard: u32,
        held: &mut Vec<(ItemId, LockMode)>,
    ) -> Vec<ItemId> {
        let pins = &self.reading_cached[client.index()];
        held.retain(|(item, _)| !pins.contains(item));
        let cfg = &self.core.sh.cfg;
        self.caches[client.index()]
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.map(|_| ItemId::new(i as u32)))
            .filter(|&item| cfg.shard_of(item) == shard)
            .collect()
    }

    /// The report rebuilds the client's slice of the cache directory.
    fn on_cached_report(&mut self, client: ClientId, items: &[ItemId]) {
        for &item in items {
            Self::directory_insert(&mut self.directory[item.index()], client);
        }
    }

    /// The committer keeps every item of the slice cached.
    fn on_commit_slice(
        &mut self,
        committer: ClientId,
        writes: &[(ItemId, Version)],
        reads: &[ItemId],
    ) {
        for &(item, _) in writes {
            // Remote copies were recalled before the X grant; the writer
            // keeps the new version cached.
            debug_assert!(
                self.directory[item.index()].iter().all(|&c| c == committer),
                "cached copies survived an exclusive grant"
            );
            Self::directory_insert(&mut self.directory[item.index()], committer);
        }
        for &item in reads {
            // A commit-release can be retried and arrive late: by then the
            // reader may already have answered a callback and evicted this
            // copy (its ack possibly opening an exclusive barrier).
            // Re-inserting it would resurrect a directory entry the recall
            // protocol already retired, so consult the cache before
            // registering the copy.
            if self.core.sh.rec.faults_on && self.caches[committer.index()][item.index()].is_none()
            {
                continue;
            }
            Self::directory_insert(&mut self.directory[item.index()], committer);
        }
    }

    /// A committed transaction's items stay cached at the version it read
    /// or installed (exclusive locks demote to cached-shared). Then the
    /// transaction's cache pins release and its deferred callbacks answer.
    fn on_txn_end(&mut self, client: ClientId, accesses: &[AccessRecord]) {
        for a in accesses {
            self.caches[client.index()][a.item.index()] = Some(a.version);
        }
        self.reading_cached[client.index()].clear();
        let mut deferred = std::mem::take(&mut self.deferred_callbacks[client.index()]);
        deferred.sort_unstable();
        for item in deferred {
            self.caches[client.index()][item.index()] = None;
            self.send_callback_ack(client, item);
        }
    }

    /// Dismantle any callback barrier the victim owns: keeping its
    /// exclusive lock until the acknowledgements drained could leave a
    /// permanent deadlock (a pinning transaction may be waiting on
    /// another lock the victim holds). Outstanding callbacks still arrive
    /// and merely shrink the directory.
    fn on_victim(&mut self, victim: TxnId) {
        if let Some(item) = self
            .barrier_of
            .get_mut(victim.index())
            .and_then(Option::take)
        {
            self.barriers[item.index()] = None;
        }
    }

    /// A barrier owner also waits for every transaction currently pinning
    /// a cached copy of its item.
    fn extra_waits_for(&self, txn: TxnId, out: &mut Vec<TxnId>) {
        let Some(item) = self.barrier_of.get(txn.index()).copied().flatten() else {
            return;
        };
        debug_assert!(self.barriers[item.index()]
            .as_ref()
            .is_some_and(|b| b.txn == txn));
        for (ci, pins) in self.reading_cached.iter().enumerate() {
            if pins.contains(&item) {
                if let Some(active) = &self.core.sh.clients[ci].txn {
                    out.push(active.id);
                }
            }
        }
    }

    /// A live barrier owner recalling a copy that `txn`'s client pins
    /// waits on `txn`.
    fn extra_waited_on(&self, txn: TxnId) -> bool {
        let table = &self.core.sh.table;
        let client = table.info(txn).client;
        self.reading_cached[client.index()].iter().any(|item| {
            self.barriers[item.index()]
                .as_ref()
                .is_some_and(|b| table.is_live(b.txn))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtocolKind;
    use std::collections::HashMap;

    fn cfg(clients: u32, latency: u64, pr: f64) -> EngineConfig {
        let mut c = EngineConfig::table1(ProtocolKind::C2pl, clients, latency, pr);
        c.warmup_txns = 50;
        c.measured_txns = 300;
        c.drain = true;
        c
    }

    #[test]
    fn single_client_read_only_hits_cache() {
        let mut c = cfg(1, 100, 1.0);
        c.items = crate::config::ItemSpace::single(3); // tiny pool: every item is soon cached
        c.profile.max_items = 3;
        let m = C2plEngine::new(c).run();
        assert_eq!(m.aborted_total, 0);
        assert!(m.committed_total >= 350);
        // After warm-up every read hits the cache; only the first few
        // accesses ever needed a grant.
        let grants = m.net.of_kind("c2pl.grant");
        assert!(
            grants < m.committed_total / 10,
            "cached reads should eliminate grants: {grants} grants for {} txns",
            m.committed_total
        );
    }

    #[test]
    fn cached_reads_beat_s2pl_on_read_only_hot_data() {
        use crate::s2pl::S2plEngine;
        let c = cfg(4, 250, 1.0);
        let mc = C2plEngine::new(c.clone()).run();
        let mut cs = c;
        cs.protocol = ProtocolKind::S2pl;
        let ms = S2plEngine::new(cs).run();
        assert!(
            mc.response.mean() < ms.response.mean() * 0.8,
            "c-2PL {} should beat s-2PL {} on read-only hot data",
            mc.response.mean(),
            ms.response.mean()
        );
    }

    #[test]
    fn writes_invalidate_remote_caches() {
        let m = C2plEngine::new(cfg(6, 50, 0.5)).run();
        assert!(
            m.net.of_kind("c2pl.callback") > 0,
            "mixed workload must trigger callbacks"
        );
        assert_eq!(
            m.net.of_kind("c2pl.callback"),
            m.net.of_kind("c2pl.callback_ack"),
            "every callback must be acknowledged"
        );
        assert_eq!(m.aborts.trials(), 300);
    }

    #[test]
    fn determinism() {
        let a = C2plEngine::new(cfg(5, 100, 0.6)).run();
        let b = C2plEngine::new(cfg(5, 100, 0.6)).run();
        assert_eq!(a.response.mean(), b.response.mean());
        assert_eq!(a.net.messages(), b.net.messages());
    }

    #[test]
    fn write_heavy_workload_completes() {
        let m = C2plEngine::new(cfg(10, 50, 0.1)).run();
        assert_eq!(m.aborts.trials(), 300);
        assert!(m.committed_total > 0);
    }

    #[test]
    fn history_versions_are_monotone_per_item() {
        let mut c = cfg(6, 50, 0.5);
        c.record_history = true;
        let m = C2plEngine::new(c).run();
        let h = m.history.expect("history recorded");
        let mut last: HashMap<ItemId, Version> = HashMap::new();
        for rec in h.records() {
            for acc in &rec.accesses {
                if acc.mode.is_write() {
                    let prev = last.insert(acc.item, acc.version);
                    assert!(prev.is_none_or(|p| acc.version > p));
                }
            }
        }
    }

    #[test]
    fn lossy_run_completes_via_retries_and_leases() {
        // 5% message loss: request retries, callback re-sends, and the
        // server's transaction lease must recover every stall for the
        // drain to empty the calendar.
        let mut c = cfg(10, 50, 0.2);
        c.faults = Some(g2pl_faults::FaultPlan::message_loss(0.05));
        let m = C2plEngine::new(c).run();
        assert_eq!(m.aborts.trials(), 300, "measurement window filled");
        assert!(m.faults.injected.dropped > 0, "no faults injected");
        assert!(m.faults.retries > 0, "losses recovered without retries");
    }

    #[test]
    fn lossy_run_is_deterministic() {
        let mk = || {
            let mut c = cfg(8, 50, 0.3);
            c.faults = Some(g2pl_faults::FaultPlan::message_loss(0.08));
            C2plEngine::new(c).run()
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a.committed_total, b.committed_total);
        assert_eq!(a.aborted_total, b.aborted_total);
        assert_eq!(a.net.messages(), b.net.messages());
        assert_eq!(a.faults.injected, b.faults.injected);
    }

    #[test]
    fn inert_fault_plan_changes_nothing() {
        let base = C2plEngine::new(cfg(5, 100, 0.5)).run();
        let mut c = cfg(5, 100, 0.5);
        c.faults = Some(g2pl_faults::FaultPlan::default());
        let m = C2plEngine::new(c).run();
        assert_eq!(base.response.mean(), m.response.mean());
        assert_eq!(base.net.messages(), m.net.messages());
        assert_eq!(base.events, m.events);
        assert!(!m.faults.any());
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
        let m = C2plEngine::new(c).run();
        assert_eq!(m.faults.crashes, 1);
        assert_eq!(m.aborts.trials(), 300, "run completed despite the crash");
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
        let m = C2plEngine::new(c).run();
        assert_eq!(m.faults.server_crashes, 2);
        assert!(m.faults.reregistrations > 0, "handshake never ran");
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
            C2plEngine::new(c).run()
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a.committed_total, b.committed_total);
        assert_eq!(a.aborted_total, b.aborted_total);
        assert_eq!(a.net.messages(), b.net.messages());
        assert_eq!(a.faults.reregistrations, b.faults.reregistrations);
    }
}
