//! A server shard's fault domain, one copy for all three engines: message
//! gating, crash, log replay, the epoch-bumped re-registration handshake,
//! presumed-abort votes and their resolution, and the server-side
//! transaction leases.
//!
//! Each shard crashes on its own, replays only its own durable
//! [`ServerLog`], re-registers the clients, and resolves its in-doubt
//! prepared votes by asking the other involved shards — falling back on
//! the commit oracle at the handshake deadline. [`Recovery`] owns that
//! policy and its state. An engine calls into it directly and keeps only
//! what really differs between the protocols:
//!
//! * what its shard loses on a crash (the lock table; the cache directory
//!   and callback barriers; or the item windows and dispatch epochs);
//! * what it rebuilds from the replayed [`ServerImage`];
//! * how it restores grants when the handshake ends (a lock table via
//!   [`Recovery::restore_grants`], or forward-list redispatch);
//! * how it applies an in-doubt commit (install the write slice and
//!   release the locks, or nothing beyond the durable record when the
//!   versions migrate client-side).

use crate::config::EngineConfig;
use crate::metrics::FaultSummary;
use crate::runtime::{Ev, Message, Net, ServerCpu, TxnStatus, TxnTable};
use crate::s2pl::CTRL_BYTES;
use crate::tracelog::{TraceKind, TraceLog};
use g2pl_faults::FaultPlan;
use g2pl_lockmgr::{AcquireOutcome, LockMode, LockTable};
use g2pl_simcore::{Calendar, ClientId, ItemId, SimTime, SiteId, TxnId, Version};
use g2pl_wal::{PreparedImage, ServerImage, ServerLog, ServerRecord};
use std::collections::BTreeMap;

/// One shard's crash/recovery state.
#[derive(Clone, Debug, Default)]
struct ShardFaultState {
    /// True while the shard is crashed (between the fault-plan crash and
    /// restart instants): every message addressed to it is dropped.
    down: bool,
    /// True from restart until the re-registration handshake finishes:
    /// only re-registration reports and commit-status traffic are
    /// accepted.
    recovering: bool,
    /// Recovery epoch, bumped once per restart of this shard. Stale
    /// recovery-check events and superseded re-registration replies
    /// identify themselves by a mismatched epoch.
    epoch: u64,
    /// When the current recovery began (restart instant).
    started: SimTime,
    /// Which clients have answered the current handshake.
    reregistered: Vec<bool>,
    /// The durable image replayed at restart, consumed when the
    /// handshake ends.
    image: Option<ServerImage>,
    /// In-doubt prepared transactions awaiting a commit verdict: the
    /// replayed `prepared` map, drained as verdicts arrive (or at
    /// handshake end via the commit oracle). Per presumed abort, an
    /// entry leaves this map only on positive evidence of the outcome.
    in_doubt: BTreeMap<TxnId, PreparedImage>,
}

impl ShardFaultState {
    /// Is the shard fully up (neither crashed nor in its handshake)?
    fn is_up(&self) -> bool {
        !self.down && !self.recovering
    }
}

/// The accounting labels of the messages [`Recovery`] sends on an
/// engine's behalf.
#[derive(Clone, Copy, Debug)]
pub struct Labels {
    /// Recovering shard → involved peer: [`Message::CommitQuery`].
    pub commit_query: &'static str,
    /// Peer → recovering shard: [`Message::CommitVerdict`].
    pub commit_verdict: &'static str,
    /// Recovering shard → client: [`Message::ReregisterReq`].
    pub reregister_req: &'static str,
    /// Shard → coordinating client: [`Message::PrepareAck`].
    pub prepare_ack: &'static str,
}

/// The server-side lease period for a fault plan: how long a checkout or
/// an idle transaction may show no progress before its holder is presumed
/// dead. Defaults to a generous multiple of the nominal one-way latency
/// so that ordinary round trips, think times, and a few retransmissions
/// never trip it.
fn lease_period(plan: &FaultPlan, nominal: u64) -> SimTime {
    SimTime::new(plan.lease_timeout.unwrap_or(64 * nominal.max(1) + 256))
}

/// The client-side base retransmission delay for a fault plan: a little
/// over one round trip, so a retry only fires once the original reply is
/// overdue. Doubles per attempt (see
/// [`crate::runtime::ClientCore::retry_backoff`]).
fn retry_period(plan: &FaultPlan, nominal: u64) -> SimTime {
    SimTime::new(plan.retry_base.unwrap_or(4 * nominal.max(1) + 16))
}

/// Set bit `shard` of `txn`'s entry in a per-transaction shard bitset.
fn set_bit(sets: &mut Vec<u64>, txn: TxnId, shard: usize) {
    let i = txn.index();
    if sets.len() <= i {
        sets.resize(i + 1, 0);
    }
    sets[i] |= 1u64 << shard;
}

/// Bit `shard` of `txn`'s entry in a per-transaction shard bitset.
fn has_bit(sets: &[u64], txn: TxnId, shard: usize) -> bool {
    sets.get(txn.index())
        .is_some_and(|m| m & (1u64 << shard) != 0)
}

/// Every shard's fault domain plus the fault-plan timing and counters.
pub struct Recovery {
    /// Whether a fault plan is active (the exact fault-free code path is
    /// taken when this is false).
    pub faults_on: bool,
    /// Whether the plan schedules server crashes. Gates the durable logs
    /// and two-phase commitment, so plans without server crashes take
    /// the exact crash-free fault paths.
    pub srv_faults_on: bool,
    /// Server-side lease period (faults only; `SimTime::MAX` otherwise).
    pub lease: SimTime,
    /// Client-side base retransmission delay, which also paces the
    /// server-side re-sends (faults only; `SimTime::MAX` otherwise).
    pub retry_base: SimTime,
    /// One serial CPU per shard.
    cpu: Vec<ServerCpu>,
    cpu_per_op: u64,
    /// One durable log per shard, empty unless server crashes are
    /// planned: each shard replays only its own log.
    pub slog: Vec<ServerLog>,
    /// Per-shard crash/recovery state; all-up defaults when no server
    /// crashes are planned.
    shards: Vec<ShardFaultState>,
    /// Which shards have applied each transaction's commit slice: bit
    /// `s` of `applied[txn]` is set once shard `s` logged the slice (the
    /// 64-shard cap in config validation keeps this a `u64`). Each bit
    /// mirrors its shard's durable applied set.
    applied: Vec<u64>,
    /// Which shards hold a durable, unretired prepared (yes) vote for
    /// each transaction — the volatile mirror of the logs'
    /// [`ServerRecord::Prepared`] records.
    prepared: Vec<u64>,
    /// Last server-observed activity per leased transaction.
    last_activity: Vec<SimTime>,
    /// Whether a transaction holds server resources under a pending
    /// [`Ev::TxnLease`].
    leased: Vec<bool>,
    /// Fault-injection and recovery counters.
    pub fsum: FaultSummary,
    labels: Labels,
    num_clients: u32,
}

impl Recovery {
    /// The fault domains of `cfg`'s shards, over the network `net` built
    /// for the same configuration.
    pub fn new(cfg: &EngineConfig, net: &Net, labels: Labels) -> Self {
        let nominal = cfg.latency.nominal();
        let (lease, retry_base) = match cfg.active_faults() {
            Some(plan) => (lease_period(plan, nominal), retry_period(plan, nominal)),
            None => (SimTime::MAX, SimTime::MAX),
        };
        let srv_faults_on = cfg
            .active_faults()
            .is_some_and(FaultPlan::has_server_crashes);
        let nshards = cfg.num_shards() as usize;
        Recovery {
            faults_on: net.faults_active(),
            srv_faults_on,
            lease,
            retry_base,
            cpu: vec![ServerCpu::new(cfg.server_cpu_per_op); nshards],
            cpu_per_op: cfg.server_cpu_per_op,
            slog: if srv_faults_on {
                (0..nshards).map(|_| ServerLog::new()).collect()
            } else {
                Vec::new()
            },
            shards: vec![ShardFaultState::default(); nshards],
            applied: Vec::new(),
            prepared: Vec::new(),
            last_activity: Vec::new(),
            leased: Vec::new(),
            fsum: FaultSummary::default(),
            labels,
            num_clients: cfg.num_clients,
        }
    }

    // ---- message gating ----

    /// Whether shard `shard` can process `msg` right now: everything
    /// while up, nothing while down. While its recovery handshake is
    /// open a shard processes only re-registration reports and the
    /// commit-status traffic that resolves in-doubt votes.
    #[inline]
    fn accepts(&self, shard: usize, msg: &Message) -> bool {
        let st = &self.shards[shard];
        !st.down
            && (!st.recovering
                || matches!(
                    msg,
                    Message::SReregister { .. }
                        | Message::GReregister { .. }
                        | Message::CommitQuery { .. }
                        | Message::CommitVerdict { .. }
                ))
    }

    /// `msg` reached shard `shard` at `now`: `None` when the shard cannot
    /// take it (the message is lost), otherwise the delay until its CPU
    /// has processed it (zero when the CPU is free and costless).
    #[inline]
    pub fn admit(&mut self, now: SimTime, shard: usize, msg: &Message) -> Option<SimTime> {
        if !self.accepts(shard, msg) {
            self.fsum.server_msgs_lost += 1;
            return None;
        }
        Some(self.cpu[shard].service(now))
    }

    /// A message that queued behind shard `shard`'s CPU is due. Gated
    /// again: a crash may have hit while it sat in the queue.
    #[inline]
    pub fn admit_queued(&mut self, shard: usize, msg: &Message) -> bool {
        let ok = self.accepts(shard, msg);
        if !ok {
            self.fsum.server_msgs_lost += 1;
        }
        ok
    }

    // ---- crash and restart ----

    /// The shared part of shard `shard`'s crash: the shard goes down, and
    /// its handshake bookkeeping, CPU queue and bits of the applied and
    /// prepared sets are gone — as are the transaction leases when the
    /// shard is shard 0, which coordinates them. Only the durable log
    /// survives. The engine then drops its own volatile state; other
    /// shards are untouched.
    pub fn crash_server(&mut self, now: SimTime, shard: usize, trace: &mut TraceLog) {
        let st = &mut self.shards[shard];
        debug_assert!(!st.down, "shard crashed while already down");
        st.down = true;
        st.recovering = false;
        st.reregistered.clear();
        st.image = None;
        st.in_doubt.clear();
        self.fsum.server_crashes += 1;
        trace.record(
            now,
            TraceKind::ServerCrashed,
            None,
            None,
            SiteId::server(shard as u32),
        );
        self.cpu[shard] = ServerCpu::new(self.cpu_per_op);
        if shard == 0 {
            self.leased.iter_mut().for_each(|l| *l = false);
            self.last_activity
                .iter_mut()
                .for_each(|t| *t = SimTime::ZERO);
        }
        let bit = !(1u64 << shard);
        self.applied.iter_mut().for_each(|a| *a &= bit);
        self.prepared.iter_mut().for_each(|p| *p &= bit);
    }

    /// Shard `shard` restarts: replay its log and hand the image to the
    /// engine's `rebuild`, restore the applied bits and in-doubt votes,
    /// bump the epoch, ask the surviving peers of every in-doubt
    /// transaction for the outcome, poll every client for
    /// re-registration, and arm the first handshake check.
    pub fn restart(
        &mut self,
        now: SimTime,
        shard: usize,
        net: &mut Net,
        cal: &mut Calendar<Ev>,
        rebuild: impl FnOnce(&ServerImage),
    ) {
        debug_assert!(self.shards[shard].down, "shard restarted while up");
        let img = self.slog[shard].replay();
        rebuild(&img);
        for &txn in &img.committed {
            self.mark_applied(txn, shard);
        }
        for &txn in img.prepared.keys() {
            self.mark_prepared(txn, shard);
        }
        let st = &mut self.shards[shard];
        st.down = false;
        st.recovering = true;
        st.epoch += 1;
        st.started = now;
        st.reregistered = vec![false; self.num_clients as usize];
        st.in_doubt = img.prepared.clone();
        st.image = Some(img);
        let epoch = st.epoch;
        self.poll(shard, false, net, cal);
        cal.schedule_in(
            self.retry_base,
            Ev::RecoveryCheck {
                shard: shard as u32,
                epoch,
            },
        );
    }

    /// Poll `shard`'s handshake: ask the surviving peers of every
    /// still-in-doubt transaction for its commit outcome, then poll the
    /// clients for re-registration. Presumed abort resolves a vote only
    /// on positive evidence, so each recovery-check tick (`retry`) asks
    /// again until answered or the handshake deadline falls back to the
    /// commit oracle; a retry polls only the clients that have not
    /// answered yet, and counts as retransmission. Queries are subject to
    /// shard↔shard partitions like any other message.
    fn poll(&mut self, shard: usize, retry: bool, net: &mut Net, cal: &mut Calendar<Ev>) {
        let st = &self.shards[shard];
        let from = SiteId::server(shard as u32);
        for (&txn, p) in &st.in_doubt {
            for peer in 0..self.shards.len() as u32 {
                if peer as usize == shard || p.involved & (1u64 << peer) == 0 {
                    continue;
                }
                if retry {
                    self.fsum.retries += 1;
                }
                net.send(
                    cal,
                    from,
                    SiteId::server(peer),
                    self.labels.commit_query,
                    CTRL_BYTES,
                    Message::CommitQuery {
                        txn,
                        from_shard: shard as u32,
                        epoch: st.epoch,
                    },
                );
            }
        }
        for i in 0..self.num_clients {
            let c = ClientId::new(i);
            if retry {
                if st.reregistered[c.index()] {
                    continue;
                }
                self.fsum.retries += 1;
            }
            net.send(
                cal,
                from,
                c.into(),
                self.labels.reregister_req,
                CTRL_BYTES,
                Message::ReregisterReq {
                    shard: shard as u32,
                    epoch: st.epoch,
                },
            );
        }
    }

    /// The handshake timer of `shard` armed at `epoch` fired. Returns true
    /// when the deadline (one lease period) has passed and the engine must
    /// finish the handshake now; otherwise polls the silent clients and
    /// unanswered peers again and re-arms. A timer of an older recovery
    /// is stale and does nothing.
    pub fn on_recovery_check(
        &mut self,
        now: SimTime,
        shard: usize,
        epoch: u64,
        net: &mut Net,
        cal: &mut Calendar<Ev>,
    ) -> bool {
        let st = &self.shards[shard];
        if !st.recovering || epoch != st.epoch {
            return false;
        }
        if now.since(st.started) >= self.lease {
            return true;
        }
        self.poll(shard, true, net, cal);
        cal.schedule_in(
            self.retry_base,
            Ev::RecoveryCheck {
                shard: shard as u32,
                epoch,
            },
        );
        false
    }

    /// `client`'s re-registration report for `shard`'s handshake at
    /// `epoch` arrived (`txn`: its active transaction, when the report
    /// names one). Returns false for a late report of an older recovery
    /// or a duplicate (absorbed, which makes re-delivery idempotent);
    /// true when it counts, for the engine to rebuild from it and then
    /// finish once [`Recovery::all_answered`].
    pub fn reregistered(
        &mut self,
        now: SimTime,
        shard: usize,
        client: ClientId,
        epoch: u64,
        txn: Option<TxnId>,
        trace: &mut TraceLog,
    ) -> bool {
        let st = &mut self.shards[shard];
        if !st.recovering || epoch != st.epoch || st.reregistered[client.index()] {
            return false;
        }
        st.reregistered[client.index()] = true;
        self.fsum.reregistrations += 1;
        trace.record(now, TraceKind::Reregister, txn, None, client.into());
        true
    }

    /// End `shard`'s handshake: the shard resumes normal service.
    pub fn reopen(&mut self, shard: usize) {
        debug_assert!(self.shards[shard].recovering);
        self.shards[shard].recovering = false;
    }

    /// Has every client answered `shard`'s current handshake?
    pub fn all_answered(&self, shard: usize) -> bool {
        self.shards[shard].reregistered.iter().all(|&r| r)
    }

    /// Whether `client` answered `shard`'s current handshake.
    pub fn answered(&self, shard: usize, client: ClientId) -> bool {
        self.shards[shard].reregistered[client.index()]
    }

    /// The image `shard` replayed at its restart, while its handshake is
    /// open.
    pub fn image(&self, shard: usize) -> Option<&ServerImage> {
        self.shards[shard].image.as_ref()
    }

    /// Take the replayed image of `shard` at handshake end.
    pub fn take_image(&mut self, shard: usize) -> ServerImage {
        self.shards[shard].image.take().unwrap_or_default()
    }

    /// Handshake end, first step: resolve the in-doubt votes no peer
    /// verdict settled from the commit oracle — the coordinator's durable
    /// decision record, which the surviving peers answer queries from.
    /// Aborted owners' votes are retired here; the committed ones are
    /// returned in transaction order, for the engine to apply before it
    /// restores grants. A still-active owner keeps its vote in doubt
    /// (presumed abort never guesses): either it answered the handshake
    /// and will decide through the normal message path, or it stayed
    /// silent and its abort as a victim retires the vote.
    pub fn settle_in_doubt(&mut self, shard: usize, table: &TxnTable) -> Vec<TxnId> {
        let in_doubt: Vec<TxnId> = self.shards[shard].in_doubt.keys().copied().collect();
        let mut committed = Vec::new();
        for txn in in_doubt {
            match table.status(txn) {
                TxnStatus::Committed => committed.push(txn),
                TxnStatus::Aborting | TxnStatus::Aborted => self.abort_in_doubt(shard, txn),
                TxnStatus::Active => {}
            }
        }
        committed
    }

    /// Handshake end for a lock-table engine: re-insert into `locks` (the
    /// shard's fresh table) every durable grant whose owner still needs
    /// it, re-arming its lease. An active owner that answered gets its
    /// locks back exactly as granted. A committed owner whose slice this
    /// shard has not applied keeps them too: its commit-release is being
    /// retransmitted and must find the pre-crash locks in place, or a
    /// competing writer could slip in under it and break the version
    /// chain the acknowledged commit depends on. Released owners were
    /// folded away by replay. Active owners that stayed silent are
    /// presumed dead and returned, for the engine to abort once service
    /// resumes. Pre-crash holders coexisted, so every re-acquisition is
    /// granted immediately.
    pub fn restore_grants(
        &mut self,
        now: SimTime,
        shard: usize,
        table: &TxnTable,
        locks: &mut LockTable,
        cal: &mut Calendar<Ev>,
    ) -> Vec<TxnId> {
        let img = self.take_image(shard);
        let mut silent = Vec::new();
        for (&txn, items) in &img.grants {
            let needed = match table.status(txn) {
                TxnStatus::Active if self.answered(shard, table.info(txn).client) => true,
                TxnStatus::Active => {
                    silent.push(txn);
                    false
                }
                TxnStatus::Committed => !self.applied_at(txn, shard),
                TxnStatus::Aborting | TxnStatus::Aborted => false,
            };
            if !needed {
                continue;
            }
            for (&item, &exclusive) in items {
                let mode = if exclusive {
                    LockMode::Exclusive
                } else {
                    LockMode::Shared
                };
                let outcome = locks.acquire(txn, item, mode);
                debug_assert!(
                    matches!(outcome, AcquireOutcome::Granted),
                    "restored grants conflict: {txn} {item}"
                );
            }
            self.touch(now, txn, cal);
        }
        silent
    }

    /// Debug-build cross-check of a lock-table engine's re-registration
    /// report against the durable grant history. Restoration itself works
    /// off the log (so a crashed client's committed-but-unreleased locks
    /// come back even without a report), but every lock a live client
    /// re-reports for a still-active transaction, and every write of an
    /// unlogged pending commit slice, must have been durably granted
    /// before the crash.
    pub fn check_lock_report(
        &self,
        shard: usize,
        table: &TxnTable,
        client: ClientId,
        txn: Option<TxnId>,
        held: &[(ItemId, LockMode)],
        pending: Option<&crate::runtime::PendingCommit>,
    ) {
        if !cfg!(debug_assertions) {
            return;
        }
        let Some(img) = self.image(shard) else { return };
        if let Some(t) = txn.filter(|&t| table.status(t) == TxnStatus::Active) {
            for &(item, _) in held {
                debug_assert!(
                    img.was_granted(t, item),
                    "{client} re-reported a grant the log never saw: {t} {item}"
                );
            }
        }
        if let Some((t, writes, _)) = pending {
            if !img.is_committed(*t) && !img.prepared.contains_key(t) {
                for &(item, _) in writes {
                    debug_assert!(
                        img.was_granted(*t, item),
                        "{client} re-reported an unlogged pending write: {t} {item}"
                    );
                }
            }
        }
    }

    // ---- presumed-abort votes ----

    /// Record that shard `shard` has applied `txn`'s commit slice.
    fn mark_applied(&mut self, txn: TxnId, shard: usize) {
        set_bit(&mut self.applied, txn, shard);
    }

    /// Whether shard `shard` has applied `txn`'s commit slice.
    pub fn applied_at(&self, txn: TxnId, shard: usize) -> bool {
        has_bit(&self.applied, txn, shard)
    }

    /// Record that shard `shard` holds a durable prepared vote for `txn`.
    fn mark_prepared(&mut self, txn: TxnId, shard: usize) {
        set_bit(&mut self.prepared, txn, shard);
    }

    /// Whether shard `shard` holds a durable, unretired prepared vote for
    /// `txn`.
    pub fn prepared_at(&self, txn: TxnId, shard: usize) -> bool {
        has_bit(&self.prepared, txn, shard)
    }

    /// Retire shard `shard`'s prepared vote for `txn` (its log holds the
    /// retiring record).
    fn clear_prepared(&mut self, txn: TxnId, shard: usize) {
        if let Some(m) = self.prepared.get_mut(txn.index()) {
            *m &= !(1u64 << shard);
        }
    }

    /// Phase 1 at shard `shard`: `txn`'s coordinator asks for a vote on
    /// the write slice `writes`, with `involved` the mask of every
    /// involved shard. An active transaction's yes vote is forced to the
    /// log — once; retransmitted prepares are re-acked idempotently —
    /// before its ack leaves the shard. A committed one already consumed
    /// its vote: the earlier ack was lost, so re-ack without logging.
    /// Returns false when the abort won the race with the voting round,
    /// for the engine to answer with its (possibly lost) abort notice.
    #[allow(clippy::too_many_arguments)] // the prepare's fields plus the engine services it uses
    pub fn on_prepare(
        &mut self,
        now: SimTime,
        shard: usize,
        txn: TxnId,
        writes: Vec<(ItemId, Version)>,
        involved: u64,
        table: &TxnTable,
        net: &mut Net,
        cal: &mut Calendar<Ev>,
        trace: &mut TraceLog,
    ) -> bool {
        match table.status(txn) {
            TxnStatus::Aborting | TxnStatus::Aborted => return false,
            TxnStatus::Active if !self.prepared_at(txn, shard) => {
                self.slog[shard].append(ServerRecord::Prepared {
                    txn,
                    writes,
                    involved,
                });
                self.mark_prepared(txn, shard);
                trace.record(
                    now,
                    TraceKind::Prepared,
                    Some(txn),
                    None,
                    SiteId::server(shard as u32),
                );
            }
            TxnStatus::Active | TxnStatus::Committed => {}
        }
        net.send(
            cal,
            SiteId::server(shard as u32),
            table.info(txn).client.into(),
            self.labels.prepare_ack,
            CTRL_BYTES,
            Message::PrepareAck {
                txn,
                shard: shard as u32,
            },
        );
        true
    }

    /// Shard `shard` applies `txn`'s commit slice (`writes`): it is marked
    /// applied and, under a server-crash plan, the commit, the installed
    /// versions and the release are logged write-ahead of any ack (the
    /// release also retires a prepared vote). A prepared vote consumed
    /// this way is phase 2 of a multi-home commit landing, traced as
    /// `CommitApplied`. The engine installs the versions and releases the
    /// locks.
    pub fn apply_commit(
        &mut self,
        now: SimTime,
        shard: usize,
        txn: TxnId,
        writes: &[(ItemId, Version)],
        trace: &mut TraceLog,
    ) {
        self.mark_applied(txn, shard);
        if let Some(slog) = self.slog.get_mut(shard) {
            slog.append(ServerRecord::Committed { txn });
            for &(item, version) in writes {
                slog.append(ServerRecord::Permanent { item, version });
            }
            slog.append(ServerRecord::Released { txn });
        }
        if self.prepared_at(txn, shard) {
            self.clear_prepared(txn, shard);
            self.shards[shard].in_doubt.remove(&txn);
            trace.record(
                now,
                TraceKind::CommitApplied,
                Some(txn),
                None,
                SiteId::server(shard as u32),
            );
        }
    }

    /// Positive commit evidence arrived for `txn`'s in-doubt vote at
    /// shard `shard`: apply the prepared slice durably, exactly as the
    /// lost phase 2 would have. Returns the write slice for the engine to
    /// install, or `None` when the vote was already resolved.
    pub fn commit_in_doubt(
        &mut self,
        now: SimTime,
        shard: usize,
        txn: TxnId,
        trace: &mut TraceLog,
    ) -> Option<Vec<(ItemId, Version)>> {
        let pimg = self.shards[shard].in_doubt.remove(&txn)?;
        self.apply_commit(now, shard, txn, &pimg.writes, trace);
        Some(pimg.writes)
    }

    /// Positive abort evidence arrived for `txn`'s in-doubt vote at shard
    /// `shard`: retire the vote durably (presumed abort needs no record
    /// beyond the release). The shard's lock table was rebuilt at restart
    /// and grants are only restored after the in-doubt pass, so nothing
    /// of the victim's is held there to release.
    fn abort_in_doubt(&mut self, shard: usize, txn: TxnId) {
        if self.shards[shard].in_doubt.remove(&txn).is_some() {
            self.slog[shard].append(ServerRecord::Released { txn });
            self.clear_prepared(txn, shard);
        }
    }

    /// A surviving shard answers a recovering peer's query about `txn`
    /// from the commit oracle — the shared transaction table stands in
    /// for the coordinator's durable decision record. An active
    /// transaction has no outcome yet: the answer is "unknown", and the
    /// asker keeps its vote in doubt.
    pub fn answer_commit_query(
        &mut self,
        shard: usize,
        txn: TxnId,
        from_shard: u32,
        table: &TxnTable,
        net: &mut Net,
        cal: &mut Calendar<Ev>,
    ) {
        let committed = match table.status(txn) {
            TxnStatus::Committed => Some(true),
            TxnStatus::Aborting | TxnStatus::Aborted => Some(false),
            TxnStatus::Active => None,
        };
        net.send(
            cal,
            SiteId::server(shard as u32),
            SiteId::server(from_shard),
            self.labels.commit_verdict,
            CTRL_BYTES,
            Message::CommitVerdict { txn, committed },
        );
    }

    /// A peer's verdict on `txn` reached recovering shard `shard`. An
    /// abort verdict retires the in-doubt vote here; returns true when
    /// the verdict proves commit of a still-in-doubt vote, for the engine
    /// to apply. An unknown verdict keeps the vote in doubt (the query is
    /// asked again), and a vote already resolved ignores the verdict.
    pub fn on_commit_verdict(&mut self, shard: usize, txn: TxnId, committed: Option<bool>) -> bool {
        if !self.shards[shard].in_doubt.contains_key(&txn) {
            return false;
        }
        match committed {
            Some(true) => return true,
            Some(false) => self.abort_in_doubt(shard, txn),
            None => {}
        }
        false
    }

    /// The durable traces of abort victim `victim`: every live shard logs
    /// its release (folding away its grants and any prepared vote), its
    /// votes are retired everywhere and its lease ends. A crashed shard
    /// cannot log — it learns the outcome at restart through its commit
    /// queries instead.
    pub fn retire_victim(&mut self, victim: TxnId) {
        if self.srv_faults_on {
            for (slog, st) in self.slog.iter_mut().zip(&mut self.shards) {
                if !st.down {
                    slog.append(ServerRecord::Released { txn: victim });
                }
                st.in_doubt.remove(&victim);
            }
            if let Some(m) = self.prepared.get_mut(victim.index()) {
                *m = 0;
            }
        }
        self.end_lease(victim);
    }

    // ---- transaction leases (lock-table engines) ----

    /// Record server-observed activity for `txn` and arm its lease on
    /// first contact. Called only under an active fault plan.
    pub fn touch(&mut self, now: SimTime, txn: TxnId, cal: &mut Calendar<Ev>) {
        let i = txn.index();
        if self.last_activity.len() <= i {
            self.last_activity.resize(i + 1, SimTime::ZERO);
            self.leased.resize(i + 1, false);
        }
        self.last_activity[i] = now;
        if !self.leased[i] {
            self.leased[i] = true;
            cal.schedule_in(self.lease, Ev::TxnLease { txn });
        }
    }

    /// `txn` no longer holds server resources under a lease.
    pub fn end_lease(&mut self, txn: TxnId) {
        if let Some(l) = self.leased.get_mut(txn.index()) {
            *l = false;
        }
    }

    /// `txn`'s lease fired. Leases are coordinated at shard 0, so a dead
    /// or still-recovering coordinator holds none — recovery re-arms them
    /// for every restored grant. A transaction that holds server
    /// resources but showed no activity for a full lease period is
    /// presumed dead: returns true, for the engine to abort it and then
    /// call [`Recovery::lease_reclaimed`]. A committed transaction is
    /// never aborted — its commit-release is being retransmitted and will
    /// land — and recent activity simply re-arms the lease for the
    /// remainder.
    pub fn on_txn_lease(
        &mut self,
        now: SimTime,
        txn: TxnId,
        table: &TxnTable,
        cal: &mut Calendar<Ev>,
        trace: &mut TraceLog,
    ) -> bool {
        if !self.shards[0].is_up() || !self.leased.get(txn.index()).copied().unwrap_or(false) {
            return false;
        }
        let idle_for = now.since(self.last_activity[txn.index()]);
        if idle_for < self.lease {
            cal.schedule_in(self.lease.since(idle_for), Ev::TxnLease { txn });
            return false;
        }
        match table.status(txn) {
            TxnStatus::Committed => {
                cal.schedule_in(self.lease, Ev::TxnLease { txn });
                false
            }
            TxnStatus::Active => {
                self.fsum.lease_expiries += 1;
                self.fsum.recovery_stall += idle_for.as_f64();
                trace.record(
                    now,
                    TraceKind::LeaseExpired,
                    Some(txn),
                    None,
                    SiteId::SERVER0,
                );
                true
            }
            TxnStatus::Aborting | TxnStatus::Aborted => {
                self.leased[txn.index()] = false;
                false
            }
        }
    }

    /// The engine aborted lease victim `txn`: count and trace the reclaim.
    pub fn lease_reclaimed(&mut self, now: SimTime, txn: TxnId, trace: &mut TraceLog) {
        self.fsum.redispatches += 1;
        trace.record(now, TraceKind::Redispatch, Some(txn), None, SiteId::SERVER0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtocolKind;
    use g2pl_faults::ServerCrashWindow;

    const LABELS: Labels = Labels {
        commit_query: "t.commit_query",
        commit_verdict: "t.commit_verdict",
        reregister_req: "t.reregister_req",
        prepare_ack: "t.prepare_ack",
    };

    fn crash_plan_rec(clients: u32, shards: u32) -> (Recovery, Net) {
        let mut cfg = EngineConfig::table1(ProtocolKind::S2pl, clients, 10, 0.5);
        cfg.items = crate::config::ItemSpace::sharded(shards, 4);
        cfg.faults = Some(FaultPlan {
            server_crashes: vec![ServerCrashWindow::fixed(100, 50)],
            ..Default::default()
        });
        let net = Net::for_config(&cfg);
        (Recovery::new(&cfg, &net, LABELS), net)
    }

    #[test]
    fn gating_follows_the_shard_lifecycle() {
        let (mut rec, mut net) = crash_plan_rec(2, 2);
        let mut cal = Calendar::new();
        let mut trace = TraceLog::new(false);
        let req = Message::SAbortNotice { txn: TxnId::new(0) };
        let report = Message::GReregister {
            client: ClientId::new(0),
            epoch: 1,
            holds: Vec::new(),
        };
        assert_eq!(rec.admit(SimTime::ZERO, 1, &req), Some(SimTime::ZERO));
        rec.crash_server(SimTime::ZERO, 1, &mut trace);
        assert_eq!(rec.admit(SimTime::ZERO, 1, &report), None, "down: all lost");
        assert!(rec.admit_queued(0, &req), "other shards are untouched");
        rec.restart(SimTime::new(5), 1, &mut net, &mut cal, |_| {});
        assert_eq!(rec.admit(SimTime::new(5), 1, &req), None, "recovering");
        assert!(
            rec.admit_queued(1, &report),
            "reports pass the handshake gate"
        );
        assert_eq!(rec.fsum.server_msgs_lost, 2);
        assert_eq!(rec.fsum.server_crashes, 1);
    }

    #[test]
    fn handshake_absorbs_stale_and_duplicate_reports() {
        let (mut rec, mut net) = crash_plan_rec(2, 1);
        let mut cal = Calendar::new();
        let mut trace = TraceLog::new(false);
        rec.crash_server(SimTime::ZERO, 0, &mut trace);
        rec.restart(SimTime::new(5), 0, &mut net, &mut cal, |_| {});
        let epoch = rec.shards[0].epoch;
        let (a, b) = (ClientId::new(0), ClientId::new(1));
        let now = SimTime::new(6);
        assert!(
            !rec.reregistered(now, 0, a, epoch - 1, None, &mut trace),
            "stale epoch"
        );
        assert!(rec.reregistered(now, 0, a, epoch, None, &mut trace));
        assert!(
            !rec.reregistered(now, 0, a, epoch, None, &mut trace),
            "duplicate"
        );
        assert!(!rec.all_answered(0));
        assert!(rec.reregistered(now, 0, b, epoch, None, &mut trace));
        assert!(rec.all_answered(0));
        assert_eq!(rec.fsum.reregistrations, 2);
        // The first check re-polls nobody once everyone answered, and the
        // deadline one lease after the restart ends the handshake.
        assert!(!rec.on_recovery_check(now, 0, epoch, &mut net, &mut cal));
        let deadline = SimTime::new(5).after(rec.lease);
        assert!(rec.on_recovery_check(deadline, 0, epoch, &mut net, &mut cal));
        assert!(!rec.on_recovery_check(deadline, 0, epoch + 1, &mut net, &mut cal));
    }

    #[test]
    fn crash_clears_only_the_crashed_shards_bits() {
        let (mut rec, _net) = crash_plan_rec(1, 3);
        let mut trace = TraceLog::new(false);
        let t = TxnId::new(4);
        rec.mark_applied(t, 0);
        rec.mark_applied(t, 2);
        rec.mark_prepared(t, 1);
        rec.mark_prepared(t, 2);
        rec.crash_server(SimTime::ZERO, 2, &mut trace);
        assert!(rec.applied_at(t, 0) && !rec.applied_at(t, 2));
        assert!(rec.prepared_at(t, 1) && !rec.prepared_at(t, 2));
    }
}
