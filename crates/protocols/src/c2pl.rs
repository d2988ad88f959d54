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
use g2pl_lockmgr::{AcquireOutcome, LockMode, LockTable};
use g2pl_simcore::{ClientId, ItemId, SimTime, SiteId, TxnId, Version};
use g2pl_wal::LogRecord;
use g2pl_workload::AccessMode;
use std::collections::BTreeMap;

/// Per-shard slice of a committing transaction: written `(item,
/// version)` pairs plus read-only items, bound for one home server.
type ShardCommitGroup = (Vec<(ItemId, Version)>, Vec<ItemId>);

/// Accounting labels of the messages the shared code sends.
const LABELS: Labels = Labels {
    lock_request: "c2pl.lock_request",
    abort_notice: "c2pl.abort_notice",
    commit_query: "c2pl.commit_query",
    commit_verdict: "c2pl.commit_verdict",
    reregister_req: "c2pl.reregister_req",
    prepare_ack: "c2pl.prepare_ack",
};

/// A granted-but-callback-blocked exclusive request.
struct XBarrier {
    txn: TxnId,
    client: ClientId,
    acks_left: usize,
}

/// The c-2PL simulation engine.
pub struct C2plEngine {
    /// The shared state. Its fault domains' retry period also paces the
    /// server-side callback re-sends.
    sh: Shell,
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
    /// One lock table per server shard; an item's locks live at the
    /// shard owning it ([`EngineConfig::shard_of`]).
    locks: Vec<LockTable>,
    /// Server-side cache directory: which clients cache each item, as a
    /// sorted vector per item (so recall fan-out needs no re-sort).
    /// Indexed globally by item; each row is owned by the item's shard.
    directory: Vec<Vec<ClientId>>,
    /// Exclusive grants waiting for callback acknowledgements, indexed
    /// by `ItemId::index()` (at most one barrier per item).
    barriers: Vec<Option<XBarrier>>,
    finder: CycleFinder,
}

impl C2plEngine {
    /// Build an engine for `cfg`.
    pub fn new(cfg: EngineConfig) -> Self {
        let n = cfg.num_clients as usize;
        C2plEngine {
            caches: vec![vec![None; cfg.num_items() as usize]; n],
            reading_cached: vec![Vec::new(); n],
            deferred_callbacks: vec![Vec::new(); n],
            locks: (0..cfg.num_shards()).map(|_| LockTable::new()).collect(),
            directory: vec![Vec::new(); cfg.num_items() as usize],
            barriers: (0..cfg.num_items()).map(|_| None).collect(),
            finder: CycleFinder::default(),
            sh: Shell::new(cfg, LABELS),
        }
    }

    /// Run to completion and report metrics.
    pub fn run(self) -> RunMetrics {
        run(self)
    }

    // ---- client side ----

    /// Release this transaction's cache pins and answer its deferred
    /// callbacks.
    fn answer_deferred_callbacks(&mut self, client: ClientId) {
        self.reading_cached[client.index()].clear();
        let mut deferred: Vec<ItemId> =
            std::mem::take(&mut self.deferred_callbacks[client.index()]);
        deferred.sort_unstable();
        for item in deferred {
            self.caches[client.index()][item.index()] = None;
            self.send_callback_ack(client, item);
        }
    }

    /// Acknowledge the recall of `client`'s cached copy of `item`.
    fn send_callback_ack(&mut self, client: ClientId, item: ItemId) {
        let sh = &mut self.sh;
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
        let sh = &mut self.sh;
        sh.net.send(
            &mut sh.cal,
            sh.cfg.shard_site(item),
            target.into(),
            "c2pl.callback",
            CTRL_BYTES,
            Message::Callback { item },
        );
    }

    // ---- server side ----

    /// Install `txn`'s written versions at their home shard and mark them
    /// permanent in the committer's WAL.
    fn install(&mut self, txn: TxnId, writes: &[(ItemId, Version)]) {
        let sh = &mut self.sh;
        let committer = sh.table.info(txn).client;
        for &(item, version) in writes {
            debug_assert_eq!(version, sh.versions[item.index()] + 1);
            sh.versions[item.index()] = version;
            if let Some(wal) = &mut sh.wal {
                wal[committer.index()].mark_permanent(txn, item);
            }
        }
    }

    /// Release every lock `txn` holds at shard `shard`, granting the
    /// woken waiters (exclusive ones recall cached copies first).
    fn release_at(&mut self, now: SimTime, shard: usize, txn: TxnId) {
        for (item, t, mode) in self.locks[shard].release_all(txn) {
            let c = self.sh.table.info(t).client;
            self.on_lock_granted(now, c, t, item, mode);
        }
    }

    /// A transactional lock was granted; exclusive grants recall remote
    /// cached copies first.
    fn on_lock_granted(
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
                if self.sh.rec.faults_on {
                    // Callbacks (or their acks) can be lost: keep
                    // re-sending to the still-registered copies until the
                    // barrier opens or its owner dies.
                    self.sh
                        .cal
                        .schedule_in(self.sh.rec.retry_base, Ev::CallbackRetry { txn });
                }
                // The new barrier can close a waits-for cycle (its owner
                // now waits on every transaction pinning a cached copy),
                // so detection must run here, not only on lock queueing.
                self.detect_deadlocks(now, txn);
                return;
            }
        }
        send_grant(self, now, client, txn, item);
    }

    /// Waits-for search over lock-table waits plus callback waits: a
    /// barrier owner additionally waits for every transaction currently
    /// pinning a cached copy of the item. Only live transactions source
    /// edges (an aborting barrier owner still holds its lock until the
    /// callbacks drain, but no longer waits — otherwise the victim loop
    /// could pick it twice).
    fn detect_deadlocks(&mut self, now: SimTime, trigger: TxnId) {
        let mut finder = std::mem::take(&mut self.finder);
        loop {
            let locks = &self.locks;
            let table = &self.sh.table;
            let barriers = &self.barriers;
            let reading_cached = &self.reading_cached;
            let clients = &self.sh.clients;
            let found = finder.find_cycle(trigger, |t, out| {
                if !table.is_live(t) {
                    return;
                }
                // Accesses are sequential, so a transaction queues on at
                // most one item globally — scan the shards for it.
                for lt in locks {
                    if let Some(item) = lt.queued_on(t) {
                        lt.waits_for_into(t, item, out);
                        break;
                    }
                }
                for (i, slot) in barriers.iter().enumerate() {
                    let Some(barrier) = slot else { continue };
                    if barrier.txn != t {
                        continue;
                    }
                    let item = ItemId::new(i as u32);
                    for (ci, pins) in reading_cached.iter().enumerate() {
                        if pins.contains(&item) {
                            if let Some(active) = &clients[ci].txn {
                                out.push(active.id);
                            }
                        }
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
        &mut self.sh
    }

    /// Issue access `idx`: serve reads from the local cache when
    /// possible, otherwise go to the server.
    fn issue_access(&mut self, now: SimTime, client: ClientId, txn: TxnId, idx: usize) {
        let sh = &mut self.sh;
        let (item, mode) = sh.clients[client.index()].txn().spec.access(idx);
        if mode == AccessMode::Read {
            if let Some(version) = self.caches[client.index()][item.index()] {
                // Cache hit: grant locally, instantly, with zero messages.
                sh.collector.on_access_wait(SimTime::ZERO);
                let pins = &mut self.reading_cached[client.index()];
                if !pins.contains(&item) {
                    pins.push(item);
                }
                let c = &mut sh.clients[client.index()];
                let active = c.txn_mut();
                active.versions.push(version);
                active.granted += 1;
                active.phase = ClientPhase::Thinking;
                sh.trace.record(
                    now,
                    TraceKind::CacheHit,
                    Some(txn),
                    Some(item),
                    client.into(),
                );
                sh.spans.granted_local(now, txn, item);
                let think = sh.cfg.profile.draw_think(&mut c.time_rng);
                sh.cal.schedule_in(
                    think,
                    Ev::Timer {
                        client,
                        kind: TimerKind::ThinkDone(txn),
                    },
                );
                return;
            }
        }
        sh.request_access(now, client, txn, idx);
    }

    /// Cache hits count toward a voting round's involved mask too — their
    /// shard still releases the transactional footprint. Cache state is
    /// untouched until the decision: an abort may still win the race.
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
                let Some(active) = &mut c.txn else { return };
                if active.id != txn {
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
            Message::Callback { item } => {
                if self.reading_cached[client.index()].contains(&item) {
                    // The current transaction reads this cached copy:
                    // defer the acknowledgement until it finishes.
                    self.deferred_callbacks[client.index()].push(item);
                } else {
                    self.caches[client.index()][item.index()] = None;
                    self.send_callback_ack(client, item);
                }
            }
            Message::ReregisterReq { shard, epoch } => {
                // Re-report everything the client holds of the restarted
                // shard: server-granted accesses of the live transaction
                // homed there (cache pins never took a server lock, so
                // they are excluded), that shard's unacknowledged commit
                // slice, and the cached copies the rebuilt directory
                // must know about.
                let pins = &self.reading_cached[client.index()];
                let c = &sh.clients[client.index()];
                let mut held = Vec::new();
                let mut txn = None;
                if let Some(active) = &c.txn {
                    txn = Some(active.id);
                    for idx in 0..active.granted {
                        let (item, mode) = active.spec.access(idx);
                        if !pins.contains(&item) && sh.cfg.shard_of(item) == shard {
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
                let cached: Vec<ItemId> = self.caches[client.index()]
                    .iter()
                    .enumerate()
                    .filter_map(|(i, v)| v.map(|_| ItemId::new(i as u32)))
                    .filter(|&item| sh.cfg.shard_of(item) == shard)
                    .collect();
                let bytes = CTRL_BYTES + 8 * (held.len() + cached.len()) as u64;
                sh.net.send(
                    &mut sh.cal,
                    client.into(),
                    SiteId::server(shard),
                    "c2pl.reregister",
                    bytes,
                    Message::SReregister {
                        client,
                        epoch,
                        txn,
                        held,
                        pending,
                        cached,
                    },
                );
            }
            other => unreachable!("c-2PL client cannot receive {other:?}"),
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
                    _ => return,
                }
                if self.sh.rec.faults_on {
                    self.sh.rec.touch(now, txn, &mut self.sh.cal);
                    if self.locks[shard].mode_of(txn, item).is_some() {
                        // Already granted. Unless the exclusive grant is
                        // still gated on a callback barrier (in which case
                        // the callback-retry timer drives progress),
                        // re-ship the lost grant.
                        let gated = self.barriers[item.index()]
                            .as_ref()
                            .is_some_and(|b| b.txn == txn);
                        if !gated {
                            send_grant(self, now, client, txn, item);
                        }
                        return;
                    }
                    if self.locks[shard].queued_on(txn) == Some(item) {
                        return; // duplicate of a still-queued request
                    }
                }
                self.sh.spans.req_arrived(now, txn, item);
                match self.locks[shard].acquire(txn, item, mode) {
                    AcquireOutcome::Granted => {
                        self.on_lock_granted(now, client, txn, item, mode);
                    }
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
            Message::SCommit { txn, writes, reads } => {
                let committer = self.sh.table.info(txn).client;
                if self.sh.rec.faults_on {
                    // Duplicate commit-release slice (already applied at
                    // this shard): the ack was lost, so just acknowledge
                    // again.
                    if self.sh.rec.applied_at(txn, shard) {
                        send_commit_ack(self, shard, committer, txn);
                        return;
                    }
                    self.sh.rec.end_lease(txn);
                }
                let sh = &mut self.sh;
                sh.rec.apply_commit(now, shard, txn, &writes, &mut sh.trace);
                self.install(txn, &writes);
                for &(item, _) in &writes {
                    // Remote copies were recalled before the X grant; the
                    // writer keeps the new version cached.
                    debug_assert!(
                        self.directory[item.index()].iter().all(|&c| c == committer),
                        "cached copies survived an exclusive grant"
                    );
                    Self::directory_insert(&mut self.directory[item.index()], committer);
                }
                for &item in &reads {
                    // A commit-release can be retried and arrive late: by
                    // then the reader may already have answered a callback
                    // and evicted this copy (its ack possibly opening an
                    // exclusive barrier). Re-inserting it would resurrect a
                    // directory entry the recall protocol already retired,
                    // so consult the cache before registering the copy.
                    if self.sh.rec.faults_on
                        && self.caches[committer.index()][item.index()].is_none()
                    {
                        continue;
                    }
                    Self::directory_insert(&mut self.directory[item.index()], committer);
                }
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
            Message::CallbackAck { client, item } => {
                // Only an ack that actually evicts a directory entry may
                // decrement the barrier: duplicate acks (possible when a
                // dismantled barrier's callbacks race a successor
                // barrier's) must not release the successor early.
                let evicted = Self::directory_remove(&mut self.directory[item.index()], client);
                let barrier_open = if evicted {
                    if let Some(b) = self.barriers[item.index()].as_mut() {
                        b.acks_left -= 1;
                        b.acks_left == 0
                    } else {
                        false
                    }
                } else {
                    false
                };
                if barrier_open {
                    // lint:allow(L3): barrier_open checked the entry one statement ago
                    let b = self.barriers[item.index()].take().expect("just observed");
                    // Aborted owners dismantle their barriers eagerly, so
                    // a surviving barrier always has a live owner.
                    debug_assert_eq!(self.sh.table.status(b.txn), TxnStatus::Active);
                    send_grant(self, now, b.client, b.txn, item);
                }
            }
            Message::SReregister {
                client,
                epoch,
                txn,
                held,
                pending,
                cached,
            } => {
                let sh = &mut self.sh;
                if sh
                    .rec
                    .reregistered(now, shard, client, epoch, txn, &mut sh.trace)
                {
                    // The report rebuilds the client's slice of the cache
                    // directory.
                    for &item in &cached {
                        Self::directory_insert(&mut self.directory[item.index()], client);
                    }
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
            other => unreachable!("c-2PL server cannot receive {other:?}"),
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
        let mut any = false;
        for i in 0..self.barriers.len() {
            let Some(b) = &self.barriers[i] else { continue };
            if b.txn != txn {
                continue;
            }
            any = true;
            let owner = b.client;
            let item = ItemId::new(i as u32);
            let remote: Vec<ClientId> = self.directory[i]
                .iter()
                .copied()
                .filter(|&c| c != owner)
                .collect();
            for target in remote {
                self.sh.rec.fsum.retries += 1;
                self.send_callback(item, target);
            }
        }
        if any {
            self.sh
                .cal
                .schedule_in(self.sh.rec.retry_base, Ev::CallbackRetry { txn });
        }
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

    fn on_restart(&mut self, now: SimTime, client: ClientId) {
        restart_client(self, now, client);
    }

    /// On top of the s-2PL volatile state, a crash loses the shard's slice
    /// of the cache directory and every callback barrier there: the
    /// directory is rebuilt from re-registration reports, and barrier
    /// owners re-form their recalls through the ordinary request-retry
    /// path (their exclusive grant was never shipped, so it is
    /// deliberately absent from the durable grant history). A restart
    /// restores the versions from the replayed log and opens the
    /// handshake.
    fn on_server_fault(&mut self, now: SimTime, shard: usize, up: bool) {
        if up {
            self.sh.restart_shard(now, shard, |_| {});
        } else {
            let items = self.sh.crash_shard(now, shard);
            self.locks[shard] = LockTable::new();
            self.directory[items.clone()]
                .iter_mut()
                .for_each(Vec::clear);
            self.barriers[items].fill_with(|| None);
        }
    }

    /// Close the handshake (see the s-2PL engine). A client that stayed
    /// silent is presumed crashed, and its directory entries are not
    /// rebuilt. That is exact for the copies a crash drops, but not for
    /// the copies a live-but-silent client, or a crashed client's active
    /// transaction, still holds: a later writer is granted without
    /// recalling them (a known gap).
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
        // Dismantle any callback barrier the victim owns: keeping its
        // exclusive lock until the acknowledgements drained could leave a
        // permanent deadlock (a pinning transaction may be waiting on
        // another lock the victim holds). Outstanding callbacks still
        // arrive and merely shrink the directory.
        for slot in &mut self.barriers {
            if slot.as_ref().is_some_and(|b| b.txn == victim) {
                *slot = None;
            }
        }
        // Release across shards in ascending order for determinism.
        let mut woken = Vec::new();
        for lt in &mut self.locks {
            woken.extend(lt.release_all(victim));
        }
        for (item, t, mode) in woken {
            let c = self.sh.table.info(t).client;
            self.on_lock_granted(now, c, t, item, mode);
        }
        self.sh.send_abort_notice(0, victim);
    }

    fn assert_drained(&self) {
        assert!(
            self.locks.iter().all(LockTable::is_quiescent),
            "locks leaked after drain"
        );
        assert!(
            self.barriers.iter().all(Option::is_none),
            "callback barriers leaked"
        );
    }

    fn into_metrics(self, events: u64) -> RunMetrics {
        self.sh.into_metrics("c-2PL", events)
    }
}

impl LockServer for C2plEngine {
    const LOCK_LABELS: LockLabels = LockLabels {
        grant: "c2pl.grant",
        prepare: "c2pl.prepare",
        commit_release: "c2pl.commit_release",
        commit_ack: "c2pl.commit_ack",
    };

    fn parts(&mut self) -> (&mut Shell, &mut [LockTable]) {
        (&mut self.sh, &mut self.locks)
    }

    /// The commit decision point (see the s-2PL engine): every involved
    /// shard voted yes, or no votes were needed. The client's WAL
    /// `Commit` record is the coordinator's durable decision record.
    fn commit_decided(&mut self, now: SimTime, client: ClientId, txn: TxnId) {
        let sh = &mut self.sh;
        let active = sh.clients[client.index()]
            .txn
            .take()
            // lint:allow(L3): guarded by the caller
            .expect("committing client has a transaction");
        debug_assert_eq!(active.id, txn);
        sh.table.set_status(txn, TxnStatus::Committed);
        let measured = sh
            .collector
            .on_commit_sized(now.since(active.start), active.spec.len());

        // One combined commit/release message per involved shard, in
        // ascending shard order. A single-shard space degenerates to
        // exactly the old single message.
        let mut by_shard: BTreeMap<u32, ShardCommitGroup> = BTreeMap::new();
        let mut records = Vec::new();
        for (idx, &(item, mode)) in active.spec.accesses.iter().enumerate() {
            let observed = active.versions[idx];
            let slice = by_shard.entry(sh.cfg.shard_of(item)).or_default();
            match mode {
                AccessMode::Write => {
                    let installed = observed + 1;
                    slice.0.push((item, installed));
                    records.push(AccessRecord {
                        item,
                        mode,
                        version: installed,
                    });
                    // The writer's copy stays cached (demoted to shared).
                    self.caches[client.index()][item.index()] = Some(installed);
                }
                AccessMode::Read => {
                    slice.1.push(item);
                    records.push(AccessRecord {
                        item,
                        mode,
                        version: observed,
                    });
                    self.caches[client.index()][item.index()] = Some(observed);
                }
            }
        }
        sh.spans
            .commit_local(now, txn, by_shard.len() as u32, measured);
        sh.trace
            .record(now, TraceKind::Committed, Some(txn), None, client.into());
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
            // Commit durability under loss: retransmit every slice until
            // its shard acknowledges; the idle period starts on the last
            // ack.
            let c = &mut sh.clients[client.index()];
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
        // Pins release and deferred callbacks answer at transaction end
        // regardless; only the next transaction's start is gated on the
        // ack under faults.
        self.answer_deferred_callbacks(client);
        let sh = &mut self.sh;
        if sh.rec.faults_on {
            sh.clients[client.index()].arm_retry(&mut sh.cal, sh.rec.retry_base);
        } else {
            sh.schedule_idle(client);
        }
    }

    /// Abort the client's transaction locally: on receipt of the server's
    /// notice, or — under faults — when the client discovers the abort
    /// on its own (restart after a crash, or a commit racing the notice).
    /// Its cache pins release and its deferred callbacks answer now.
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
        // prepares (see the s-2PL engine).
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
        self.answer_deferred_callbacks(client);
        self.sh.schedule_idle(client);
    }

    /// A recovered shard learned that an in-doubt transaction committed:
    /// install its write slice and hand the released locks on. The cache
    /// directory is deliberately left alone — directory truth after a
    /// crash comes exclusively from re-registration reports, and a client
    /// that never re-registered has lost its cache, so inventing entries
    /// here would resurrect dead copies.
    fn resolve_indoubt_commit(&mut self, now: SimTime, shard: usize, txn: TxnId) {
        let sh = &mut self.sh;
        if let Some(writes) = sh.rec.commit_in_doubt(now, shard, txn, &mut sh.trace) {
            self.install(txn, &writes);
            self.release_at(now, shard, txn);
        }
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
