//! Shared simulation plumbing for all protocol engines: events, messages,
//! the network sender, per-client state, and the global transaction table.

use crate::config::EngineConfig;
use g2pl_faults::{FaultCounts, FaultPlan};
use g2pl_fwdlist::ForwardList;
use g2pl_lockmgr::LockMode;
use g2pl_netmodel::{LatencyModel, LossyLink, NetAccounting};
use g2pl_simcore::{Calendar, ClientId, ItemId, RngStream, SimTime, SiteId, TxnId, Version};
use g2pl_workload::{Trace, TxnGenerator, TxnSpec};
use std::rc::Rc;

/// Client-side timers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimerKind {
    /// The inter-transaction idle period ended: start the next
    /// transaction.
    IdleDone,
    /// The per-operation think time of this transaction ended: issue the
    /// next request or commit. Carrying the transaction id makes stale
    /// timers (from a transaction aborted while the timer was pending)
    /// self-identifying.
    ThinkDone(TxnId),
    /// Fault-recovery retry timer (armed only when a fault plan is
    /// active): re-send the outstanding request or commit if it is still
    /// outstanding. `epoch` is the client's retry epoch at arming time;
    /// the client bumps its epoch on every progress transition, which
    /// makes stale retry timers self-cancelling.
    Retry {
        /// Client retry epoch at arming time.
        epoch: u64,
    },
    /// g-2PL phase-2 retransmission timer: re-send [`Message::Decide`]
    /// for the committed transaction to every shard still owing a
    /// [`Message::DecideAck`]. Runs independently of the client's main
    /// retry epoch because the decision outlives the transaction slot
    /// (the client may already be running its next transaction).
    DecideRetry(TxnId),
}

/// A committed-but-unacknowledged commit release carried by an s/c-2PL
/// re-registration report: `(txn, writes, reads)` exactly as the
/// outstanding [`Message::SCommit`] carries them.
pub type PendingCommit = (TxnId, Vec<(ItemId, Version)>, Vec<ItemId>);

/// Protocol messages. One enum serves every engine; each engine handles
/// its own subset and treats the rest as unreachable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Message {
    // ---- s-2PL / c-2PL ----
    /// Client → server: lock + data request for one item.
    SLockReq {
        /// Requesting transaction.
        txn: TxnId,
        /// Requesting client.
        client: ClientId,
        /// Requested item.
        item: ItemId,
        /// Requested mode.
        mode: LockMode,
    },
    /// Server → client: lock granted, data shipped.
    SGrant {
        /// Granted transaction.
        txn: TxnId,
        /// Granted item.
        item: ItemId,
        /// Version shipped.
        version: Version,
    },
    /// Client → server: commit; releases every lock and returns dirty
    /// data in a single message (§3.1 shrinking phase).
    SCommit {
        /// Committing transaction.
        txn: TxnId,
        /// Items written, with the installed versions.
        writes: Vec<(ItemId, Version)>,
        /// Items only read.
        reads: Vec<ItemId>,
    },
    /// Server → client: the transaction was chosen as a deadlock victim.
    SAbortNotice {
        /// Aborted transaction.
        txn: TxnId,
    },
    /// Server → client: the commit's lock release was processed. Only
    /// sent when a fault plan is active — the client retransmits
    /// [`Message::SCommit`] until acknowledged, so a lost commit-release
    /// cannot strand its locks at the server.
    SCommitAck {
        /// Acknowledged transaction.
        txn: TxnId,
        /// The shard acknowledging its slice of the commit (a multi-home
        /// commit sends one [`Message::SCommit`] per involved shard, each
        /// acknowledged independently).
        shard: u32,
    },
    /// Server → client (c-2PL): recall the cached copy of an item.
    Callback {
        /// Item to drop from the cache.
        item: ItemId,
    },
    /// Client → server (c-2PL): cache entry dropped.
    CallbackAck {
        /// Responding client.
        client: ClientId,
        /// Item dropped.
        item: ItemId,
    },

    // ---- g-2PL ----
    /// Client → server: lock + data request for one item.
    GLockReq {
        /// Requesting transaction.
        txn: TxnId,
        /// Requesting client.
        client: ClientId,
        /// Requested item.
        item: ItemId,
        /// Requested mode.
        mode: LockMode,
    },
    /// Data + forward list arriving at the entry at `pos` (from the
    /// server at dispatch, or from the previous writer during migration).
    GData {
        /// The migrating item.
        item: ItemId,
        /// The version carried.
        version: Version,
        /// The dispatched forward list (travels with the data, §3.2).
        fl: Rc<ForwardList>,
        /// Receiving entry's position in `fl`.
        pos: usize,
        /// The forwarding holder when this hop is a client-to-client
        /// migration (its lock release rides this very message — the
        /// §3.2 release/grant merge); `None` on a server dispatch.
        from_txn: Option<TxnId>,
        /// Dispatch epoch of the forward list this data belongs to. The
        /// server bumps the item's epoch on every (re-)dispatch, so
        /// deliveries from a superseded checkout (stale duplicates, or
        /// survivors of a lease-expiry redispatch) identify themselves
        /// and are dropped. Constant within a run when no faults are
        /// injected.
        epoch: u64,
    },
    /// A reader's release: to the next writer on the list (carrying the
    /// data in the non-MR1W protocol, a pure token under MR1W), or to the
    /// server when the reader group is the final segment.
    GReaderRelease {
        /// The item released.
        item: ItemId,
        /// The version the reader held.
        version: Version,
        /// The dispatched forward list.
        fl: Rc<ForwardList>,
        /// Releasing entry's position.
        from_pos: usize,
        /// Receiving writer's position, or `None` when sent to the server.
        to_pos: Option<usize>,
        /// Dispatch epoch of the forward list (see [`Message::GData`]).
        epoch: u64,
    },
    /// Final entry → server: the item comes home with its final version.
    GReturn {
        /// The returning item.
        item: ItemId,
        /// Final version of this window.
        version: Version,
        /// The final holder whose release this return is.
        txn: TxnId,
        /// Dispatch epoch of the forward list (see [`Message::GData`]).
        epoch: u64,
    },
    /// Server → client: the transaction was chosen as a deadlock victim.
    GAbortNotice {
        /// Aborted transaction.
        txn: TxnId,
    },
    /// Server → client: the given transaction's entry on `item`'s
    /// dispatched forward list is dead (its transaction aborted before
    /// the data reached it); forwarders that have learnt this skip the
    /// entry instead of paying a serial hop through an aborted client.
    GPrune {
        /// Item whose forward list contains the dead entry.
        item: ItemId,
        /// The aborted transaction.
        txn: TxnId,
    },

    // ---- two-phase commitment of multi-home transactions (all engines) ----
    /// Client (coordinator) → involved shard: phase-1 prepare. The shard
    /// forces a [`g2pl_wal::ServerRecord::Prepared`] with the write slice
    /// and the involved-shard mask before its ack leaves, per presumed
    /// abort. Sent only for multi-home transactions under a fault plan
    /// with server crashes; single-home commits keep the one-phase path
    /// (the single-participant presumed-abort optimization).
    Prepare {
        /// Preparing transaction.
        txn: TxnId,
        /// The write slice this shard would apply on commit.
        writes: Vec<(ItemId, Version)>,
        /// Bitmask of every involved shard (bit `k` = shard `k`).
        involved: u64,
    },
    /// Shard → client: yes vote, durably logged. Retransmitted
    /// [`Message::Prepare`]s are re-acked idempotently.
    PrepareAck {
        /// Prepared transaction.
        txn: TxnId,
        /// The voting shard.
        shard: u32,
    },
    /// Client → involved shard (g-2PL): phase-2 commit decision. Under
    /// g-2PL the commit itself is client-local and the data migrates via
    /// forward lists, so the decision message only retires the shard's
    /// prepared vote (forcing a `Committed` record). s-2PL/c-2PL reuse
    /// [`Message::SCommit`] as their phase 2 — it carries the write
    /// slice home anyway.
    Decide {
        /// Committed transaction.
        txn: TxnId,
    },
    /// Shard → client (g-2PL): the commit decision is durable at this
    /// shard; the client stops retransmitting [`Message::Decide`].
    DecideAck {
        /// Committed transaction.
        txn: TxnId,
        /// The acknowledging shard.
        shard: u32,
    },
    /// Recovering shard → surviving involved shard: what became of this
    /// transaction I hold a prepared vote for? Sent during the
    /// re-registration handshake for every in-doubt transaction; subject
    /// to shard↔shard partitions and retransmitted every recovery-check
    /// tick until answered.
    CommitQuery {
        /// The in-doubt transaction.
        txn: TxnId,
        /// The asking (recovering) shard, so the verdict can route back.
        from_shard: u32,
        /// The asker's recovery epoch (diagnostic; verdicts are facts
        /// about durable state and never go stale).
        epoch: u64,
    },
    /// Surviving shard → recovering shard: the commit status of a queried
    /// transaction, from this shard's durable state and the commit
    /// oracle. `None` means this shard cannot prove either outcome yet —
    /// the asker keeps the vote in doubt rather than presuming abort.
    CommitVerdict {
        /// The queried transaction.
        txn: TxnId,
        /// `Some(true)` = committed, `Some(false)` = aborted, `None` =
        /// unknown here.
        committed: Option<bool>,
    },

    // ---- server crash recovery (all engines) ----
    /// Restarted shard → every client: report your server-visible state.
    /// Broadcast at restart and re-broadcast to non-responders every
    /// retry period until the recovery deadline.
    ReregisterReq {
        /// The recovering shard (clients answer with that shard's slice
        /// of their state, to that shard).
        shard: u32,
        /// Recovery epoch: bumped per shard restart, echoed by replies,
        /// so reports from a superseded recovery are absorbed.
        epoch: u64,
    },
    /// Client → restarted server (s-2PL / c-2PL): the client's full
    /// server-visible state, from which the server re-acquires locks and
    /// rebuilds the cache directory. Pure function of client state, so
    /// duplicated deliveries are idempotent.
    SReregister {
        /// Reporting client.
        client: ClientId,
        /// Recovery epoch being answered.
        epoch: u64,
        /// The client's active transaction, if any.
        txn: Option<TxnId>,
        /// Server locks granted to the active transaction (checked-out
        /// items), in grant order.
        held: Vec<(ItemId, LockMode)>,
        /// A committed-but-unacknowledged commit release
        /// (committed-but-unreturned versions live here).
        pending: Option<PendingCommit>,
        /// c-2PL: items cached (with retained shared locks) across
        /// transaction boundaries; empty under s-2PL.
        cached: Vec<ItemId>,
    },
    /// Client → restarted server (g-2PL): every slot this client holds
    /// on a dispatched forward list, with its in-flight position and
    /// version. Pure function of client state (idempotent).
    GReregister {
        /// Reporting client.
        client: ClientId,
        /// Recovery epoch being answered.
        epoch: u64,
        /// One report per held forward-list slot.
        holds: Vec<HoldReport>,
    },
}

/// One client-held forward-list slot, as re-reported during server crash
/// recovery.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HoldReport {
    /// The transaction owning the slot.
    pub txn: TxnId,
    /// The checked-out item.
    pub item: ItemId,
    /// The slot's position on the dispatched forward list.
    pub pos: usize,
    /// Dispatch epoch of the forward list the slot belongs to; the
    /// server ignores reports from superseded dispatches.
    pub epoch: u64,
    /// The version held (committed-but-unreturned when `forwarded` is
    /// still false and the owner already committed).
    pub version: Version,
    /// True once the slot's release/forward has been sent.
    pub forwarded: bool,
    /// True once the item's data actually arrived at this slot.
    pub data_arrived: bool,
}

/// A calendar event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Ev {
    /// A message arrives at a site.
    Deliver {
        /// Destination site.
        to: SiteId,
        /// Payload.
        msg: Message,
    },
    /// A client timer fires.
    Timer {
        /// The client whose timer fires.
        client: ClientId,
        /// Which timer.
        kind: TimerKind,
    },
    /// A server-side window-hold timer expired: close the item's window
    /// now (g-2PL `dispatch_delay` mode).
    WindowTimer {
        /// The held item.
        item: ItemId,
    },
    /// A server-shard CPU finished processing a message that had queued
    /// behind earlier work (only when `server_cpu_per_op > 0`).
    ServerProc {
        /// The shard whose CPU completes the work.
        shard: u32,
        /// The message whose processing completes now.
        msg: Message,
    },
    /// A scheduled client crash (`up == false`) or restart (`up == true`)
    /// from the fault plan.
    Fault {
        /// The client crashing or restarting.
        client: ClientId,
        /// `false` = crash, `true` = restart.
        up: bool,
    },
    /// Server-side lease check on an item's outstanding checkout (g-2PL).
    /// Stale if the item's dispatch epoch moved past `epoch`.
    LeaseCheck {
        /// The checked item.
        item: ItemId,
        /// Dispatch epoch the lease was armed for.
        epoch: u64,
    },
    /// Server-side idle-transaction lease check (s-2PL / c-2PL): if the
    /// transaction holds server resources but has shown no activity for a
    /// full lease period, it is presumed dead and aborted.
    TxnLease {
        /// The leased transaction.
        txn: TxnId,
    },
    /// Server-side callback retransmission check (c-2PL): re-send
    /// callbacks still outstanding for the transaction's exclusive
    /// barrier.
    CallbackRetry {
        /// The barrier-owning transaction.
        txn: TxnId,
    },
    /// A scheduled server-shard crash (`up == false`) or restart
    /// (`up == true`) from the fault plan.
    ServerFault {
        /// The shard crashing or restarting.
        shard: u32,
        /// `false` = crash, `true` = restart.
        up: bool,
    },
    /// Periodic check during a shard's post-restart re-registration
    /// handshake: re-broadcast [`Message::ReregisterReq`] (and re-send
    /// unanswered [`Message::CommitQuery`]s) to non-responders, or
    /// finish recovery at the deadline. Stale if the shard's recovery
    /// epoch moved past `epoch` (a later crash superseded this recovery).
    RecoveryCheck {
        /// The recovering shard.
        shard: u32,
        /// Recovery epoch the check was armed for.
        epoch: u64,
    },
}

/// A serial server CPU: each message costs `per_op` units of processing,
/// and messages queue when they arrive faster than they are served.
///
/// §3.3 argues the forward-list reordering "computations are done while
/// the server is waiting for the data items to be returned" and so "do
/// not increase the transaction blocking time". The default cost of 0
/// models exactly that; a nonzero cost lets the `ext-server-cpu`
/// ablation check how much headroom the claim really has.
#[derive(Clone, Copy, Debug)]
pub struct ServerCpu {
    free_at: SimTime,
    per_op: SimTime,
}

impl ServerCpu {
    /// A CPU costing `per_op` units per processed message (0 = free).
    pub fn new(per_op: u64) -> Self {
        ServerCpu {
            free_at: SimTime::ZERO,
            per_op: SimTime::new(per_op),
        }
    }

    /// Charge one message arriving at `now`; returns the delay until its
    /// processing completes (0 when the CPU is free and costless).
    pub fn service(&mut self, now: SimTime) -> SimTime {
        if self.per_op == SimTime::ZERO {
            return SimTime::ZERO;
        }
        let start = if self.free_at > now {
            self.free_at
        } else {
            now
        };
        self.free_at = start.after(self.per_op);
        self.free_at.since(now)
    }
}

/// The network: a (possibly lossy) link + accounting + the send
/// primitive.
pub struct Net {
    link: LossyLink,
    rng: RngStream,
    /// Message/byte counters (public: engines move it into the metrics).
    pub acct: NetAccounting,
    /// Scratch buffer of delivery delays for one send.
    delays: Vec<SimTime>,
    /// `(time, sending site)` of injected message faults not yet drained
    /// into the engine's trace log (see `take_fault_marks`).
    fault_marks: Vec<(SimTime, SiteId)>,
}

impl Net {
    /// A reliable network over `model`, with randomness derived from
    /// `seed`.
    pub fn new(model: Box<dyn LatencyModel>, seed: u64) -> Self {
        Self::build(LossyLink::reliable(model), seed)
    }

    /// A network executing the given fault plan over `model`.
    pub fn with_faults(model: Box<dyn LatencyModel>, plan: FaultPlan, seed: u64) -> Self {
        Self::build(LossyLink::lossy(model, plan, seed), seed)
    }

    fn build(link: LossyLink, seed: u64) -> Self {
        Net {
            link,
            rng: RngStream::derive(seed, "net"),
            acct: NetAccounting::new(),
            delays: Vec::with_capacity(2),
            fault_marks: Vec::new(),
        }
    }

    /// The network `cfg` describes: lossy under an active fault plan,
    /// reliable otherwise.
    pub fn for_config(cfg: &EngineConfig) -> Self {
        match cfg.active_faults() {
            Some(plan) => Self::with_faults(cfg.build_latency(), plan.clone(), cfg.seed),
            None => Self::new(cfg.build_latency(), cfg.seed),
        }
    }

    /// True if this network can inject faults.
    pub fn faults_active(&self) -> bool {
        self.link.faults_active()
    }

    /// Counters of message faults injected so far.
    pub fn fault_counts(&self) -> FaultCounts {
        self.link.counts()
    }

    /// The plan's crash/restart schedule (empty when reliable).
    pub fn crash_schedule(&self) -> Vec<(ClientId, SimTime, bool)> {
        self.link.crash_schedule()
    }

    /// The plan's per-shard server crash/restart schedule as
    /// `(shard, at, up)` triples (empty when reliable). Consumes the
    /// dedicated per-shard jitter streams; call once, at engine start.
    pub fn server_crash_schedule(&mut self) -> Vec<(u32, SimTime, bool)> {
        self.link.server_crash_schedule()
    }

    /// Drain the pending injected-fault marks (engines record one
    /// `FaultInjected` trace event per mark). The buffer is only ever
    /// non-empty when a fault plan is active.
    pub fn take_fault_marks(&mut self) -> Vec<(SimTime, SiteId)> {
        std::mem::take(&mut self.fault_marks)
    }

    /// Send `msg` from `from` to `to`, scheduling its delivery (or
    /// deliveries, or none, under an active fault plan) on `cal`.
    /// `kind` labels the message for accounting; `size` is its payload
    /// size in bytes.
    pub fn send(
        &mut self,
        cal: &mut Calendar<Ev>,
        from: SiteId,
        to: SiteId,
        kind: &'static str,
        size: u64,
        msg: Message,
    ) {
        self.acct.record(from, to, kind, size);
        let mut delays = std::mem::take(&mut self.delays);
        let injected = self
            .link
            .transmit(from, to, size, cal.now(), &mut self.rng, &mut delays);
        if injected {
            self.fault_marks.push((cal.now(), from));
        }
        if let Some((&last, rest)) = delays.split_last() {
            for &d in rest {
                cal.schedule_in(
                    d,
                    Ev::Deliver {
                        to,
                        msg: msg.clone(),
                    },
                );
            }
            cal.schedule_in(last, Ev::Deliver { to, msg });
        }
        self.delays = delays;
    }

    /// Like [`Net::send`] but with an explicit delay, bypassing the
    /// latency model *and* the fault injector (an instant-effect abort
    /// notice is a modelling construct, not a real wire message). Used
    /// only by diagnostic/ablation modes.
    #[allow(clippy::too_many_arguments)]
    pub fn send_with_delay(
        &mut self,
        cal: &mut Calendar<Ev>,
        from: SiteId,
        to: SiteId,
        kind: &'static str,
        size: u64,
        msg: Message,
        delay: SimTime,
    ) {
        self.acct.record(from, to, kind, size);
        cal.schedule_in(delay, Ev::Deliver { to, msg });
    }
}

/// Lifecycle status of a transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxnStatus {
    /// Running (possibly blocked).
    Active,
    /// Chosen as a deadlock victim; the abort notice is in flight. The
    /// transaction may still escape by committing first (see the g-2PL
    /// engine's race discussion).
    Aborting,
    /// Committed.
    Committed,
    /// Aborted.
    Aborted,
}

/// Global (oracle) per-transaction bookkeeping.
#[derive(Clone, Debug)]
pub struct TxnInfo {
    /// The client running the transaction.
    pub client: ClientId,
    /// Current status.
    pub status: TxnStatus,
    /// Whether the transaction's spec is read-only.
    pub read_only: bool,
}

/// Dense table of every transaction created during a run.
#[derive(Clone, Debug, Default)]
pub struct TxnTable {
    infos: Vec<TxnInfo>,
}

impl TxnTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a new transaction; ids are dense and age-ordered.
    pub fn create(&mut self, client: ClientId, read_only: bool) -> TxnId {
        let id = TxnId::new(self.infos.len() as u32);
        self.infos.push(TxnInfo {
            client,
            status: TxnStatus::Active,
            read_only,
        });
        id
    }

    /// Info for `txn`.
    pub fn info(&self, txn: TxnId) -> &TxnInfo {
        &self.infos[txn.index()]
    }

    /// Current status of `txn`.
    pub fn status(&self, txn: TxnId) -> TxnStatus {
        self.infos[txn.index()].status
    }

    /// Set the status of `txn`.
    pub fn set_status(&mut self, txn: TxnId, status: TxnStatus) {
        self.infos[txn.index()].status = status;
    }

    /// Whether `txn` counts as live for deadlock analysis (active and not
    /// already being aborted).
    pub fn is_live(&self, txn: TxnId) -> bool {
        self.status(txn) == TxnStatus::Active
    }

    /// Number of transactions ever created.
    pub fn len(&self) -> usize {
        self.infos.len()
    }

    /// True when no transaction was created yet.
    pub fn is_empty(&self) -> bool {
        self.infos.is_empty()
    }
}

/// What a client is currently doing within its transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClientPhase {
    /// Waiting for the grant of the access at index `.0`.
    WaitingGrant(usize),
    /// Thinking after a grant (a `ThinkDone` timer is pending).
    Thinking,
    /// All accesses granted and processing done, but the commit is gated
    /// on outstanding MR1W reader releases (two-copy-version
    /// certification: a writer that ran concurrently with the readers of
    /// the previous version may only commit after they all released).
    CommitWait,
    /// Between transactions (an `IdleDone` timer is pending) or stopped.
    Idle,
}

/// The transaction a client is currently executing.
#[derive(Clone, Debug)]
pub struct ActiveTxn {
    /// Transaction id.
    pub id: TxnId,
    /// The access list.
    pub spec: TxnSpec,
    /// How many accesses have been granted.
    pub granted: usize,
    /// Creation instant (response time starts here).
    pub start: SimTime,
    /// Version observed (reads) or installed (writes) per granted access,
    /// parallel to `spec.accesses[..granted]`.
    pub versions: Vec<Version>,
    /// Current phase.
    pub phase: ClientPhase,
    /// When the outstanding request was sent (valid in `WaitingGrant`);
    /// used for the per-access wait diagnostic.
    pub request_sent_at: SimTime,
}

/// What a due [`TimerKind::Retry`] re-sends (see
/// [`ClientCore::due_resend`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Resend {
    /// Every message of [`ClientCore::pending_commits`].
    CommitPhase,
    /// The lock request of the access the transaction waits on.
    Request,
}

impl ActiveTxn {
    /// Bitmask of the shards the transaction's accesses touch (bit `k` =
    /// shard `k`).
    pub fn involved(&self, cfg: &EngineConfig) -> u64 {
        self.spec
            .accesses
            .iter()
            .fold(0, |m, &(item, _)| m | 1u64 << cfg.shard_of(item))
    }
}

/// Per-client state shared by all engines.
pub struct ClientCore {
    /// This client's id.
    pub id: ClientId,
    /// The in-flight transaction, if any.
    pub txn: Option<ActiveTxn>,
    /// Workload stream: transaction specs.
    pub spec_rng: RngStream,
    /// Workload stream: think/idle durations.
    pub time_rng: RngStream,
    /// Recorded spec sequence to replay instead of drawing, if any.
    pub replay: Option<Rc<Trace>>,
    /// Next replay position for this client.
    pub replay_idx: usize,
    /// True while the client is crashed (fault plan): inbound messages
    /// and local timers are dropped until the scheduled restart.
    pub crashed: bool,
    /// Retry epoch: bumped on every progress transition (request sent,
    /// grant received, commit acknowledged, abort, restart). A pending
    /// [`TimerKind::Retry`] whose epoch does not match is stale and
    /// ignored, so retry timers never need cancelling.
    pub retry_epoch: u64,
    /// Consecutive retransmissions of the current outstanding operation
    /// (exponential-backoff exponent; reset on progress).
    pub retry_attempts: u32,
    /// Commit-release messages awaiting [`Message::SCommitAck`], one per
    /// involved shard, keyed by shard index (armed only under an active
    /// fault plan): survives crashes — it stands in for the client's WAL
    /// tail, from which a restarted client resumes retransmission. Kept
    /// in ascending shard order.
    pub pending_commits: Vec<(u32, Message)>,
}

impl ClientCore {
    /// Build the per-client state for `id`, deriving its random streams
    /// from the run's master seed.
    pub fn new(id: ClientId, seed: u64) -> Self {
        ClientCore {
            id,
            txn: None,
            spec_rng: RngStream::derive_indexed(seed, "spec-client", u64::from(id.0)),
            time_rng: RngStream::derive_indexed(seed, "time-client", u64::from(id.0)),
            replay: None,
            replay_idx: 0,
            crashed: false,
            retry_epoch: 0,
            retry_attempts: 0,
            pending_commits: Vec::new(),
        }
    }

    /// Bump the retry epoch (invalidating pending retry timers) and reset
    /// the backoff counter. Called on every progress transition when a
    /// fault plan is active.
    pub fn retry_progress(&mut self) {
        self.retry_epoch += 1;
        self.retry_attempts = 0;
    }

    /// The backoff delay for the next retransmission: `base << attempts`,
    /// capped at 6 doublings so retries never back off past 64× base.
    pub fn retry_backoff(&self, base: SimTime) -> SimTime {
        SimTime::new(base.units() << self.retry_attempts.min(6))
    }

    /// Arm a [`TimerKind::Retry`] for the current epoch, one backoff
    /// delay over `base` from now. Only under an active fault plan.
    pub fn arm_retry(&self, cal: &mut Calendar<Ev>, base: SimTime) {
        cal.schedule_in(
            self.retry_backoff(base),
            Ev::Timer {
                client: self.id,
                kind: TimerKind::Retry {
                    epoch: self.retry_epoch,
                },
            },
        );
    }

    /// `shard` acknowledged the pending commit-phase message that `acked`
    /// matches: drop it and count the progress. `None` for a duplicate
    /// ack (nothing pending matched); otherwise whether every pending
    /// message is now acknowledged.
    pub fn take_ack(&mut self, shard: u32, acked: impl Fn(&Message) -> bool) -> Option<bool> {
        let pos = self
            .pending_commits
            .iter()
            .position(|(s, m)| *s == shard && acked(m))?;
        self.pending_commits.remove(pos);
        self.retry_progress();
        Some(self.pending_commits.is_empty())
    }

    /// What a retry timer armed at `epoch` must re-send: nothing when the
    /// client made progress since (a stale epoch) or has nothing
    /// outstanding; otherwise the unacknowledged commit-phase messages,
    /// or else the request of the access it waits on.
    pub fn due_resend(&self, epoch: u64) -> Option<Resend> {
        if self.retry_epoch != epoch {
            None
        } else if !self.pending_commits.is_empty() {
            Some(Resend::CommitPhase)
        } else if matches!(&self.txn, Some(a) if matches!(a.phase, ClientPhase::WaitingGrant(_))) {
            Some(Resend::Request)
        } else {
            None
        }
    }

    /// Like [`ClientCore::new`], replaying specs from `trace` (clients
    /// beyond the trace's width fall back to generated specs).
    pub fn with_replay(id: ClientId, seed: u64, trace: Rc<Trace>) -> Self {
        let mut c = Self::new(id, seed);
        if id.0 < trace.clients() {
            c.replay = Some(trace);
        }
        c
    }

    /// Produce the next transaction spec: the recorded one when
    /// replaying (cycling past the end), a fresh draw otherwise.
    fn next_spec(&mut self, generator: &TxnGenerator) -> TxnSpec {
        if let Some(trace) = &self.replay {
            let per_client = trace.total_txns() / trace.clients() as usize;
            if per_client > 0 {
                let spec = trace
                    .get(self.id, self.replay_idx % per_client)
                    // lint:allow(L3): index is reduced modulo per_client
                    .expect("index within per-client length")
                    .clone();
                self.replay_idx += 1;
                return spec;
            }
        }
        generator.draw(&mut self.spec_rng)
    }

    /// Draw the next spec and open a transaction at time `now`.
    pub fn begin_txn(
        &mut self,
        generator: &TxnGenerator,
        table: &mut TxnTable,
        now: SimTime,
    ) -> TxnId {
        debug_assert!(
            self.txn.is_none(),
            "client {} already has a transaction",
            self.id
        );
        let spec = self.next_spec(generator);
        let id = table.create(self.id, spec.is_read_only());
        self.txn = Some(ActiveTxn {
            id,
            spec,
            granted: 0,
            start: now,
            versions: Vec::new(),
            phase: ClientPhase::WaitingGrant(0),
            request_sent_at: now,
        });
        id
    }

    /// The active transaction (panics if none — engine invariant).
    pub fn txn(&self) -> &ActiveTxn {
        // lint:allow(L3): documented engine invariant of this accessor
        self.txn.as_ref().expect("client has an active transaction")
    }

    /// Mutable active transaction.
    pub fn txn_mut(&mut self) -> &mut ActiveTxn {
        // lint:allow(L3): documented engine invariant of this accessor
        self.txn.as_mut().expect("client has an active transaction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use g2pl_netmodel::ConstantLatency;
    use g2pl_workload::TxnProfile;

    #[test]
    fn net_send_schedules_after_latency() {
        let mut cal: Calendar<Ev> = Calendar::new();
        let mut net = Net::new(Box::new(ConstantLatency::new(SimTime::new(7))), 1);
        net.send(
            &mut cal,
            SiteId::SERVER0,
            SiteId::Client(ClientId::new(0)),
            "grant",
            64,
            Message::SAbortNotice { txn: TxnId::new(0) },
        );
        let (at, ev) = cal.pop().expect("delivery scheduled");
        assert_eq!(at, SimTime::new(7));
        assert!(matches!(ev, Ev::Deliver { .. }));
        assert_eq!(net.acct.messages(), 1);
        assert_eq!(net.acct.bytes(), 64);
    }

    #[test]
    fn lossy_net_drops_and_marks() {
        let mut cal: Calendar<Ev> = Calendar::new();
        let mut net = Net::with_faults(
            Box::new(ConstantLatency::new(SimTime::new(7))),
            g2pl_faults::FaultPlan::message_loss(1.0),
            1,
        );
        net.send(
            &mut cal,
            SiteId::SERVER0,
            SiteId::Client(ClientId::new(0)),
            "grant",
            64,
            Message::SAbortNotice { txn: TxnId::new(0) },
        );
        assert!(cal.pop().is_none(), "certain loss delivers nothing");
        assert_eq!(net.fault_counts().dropped, 1);
        assert_eq!(net.take_fault_marks().len(), 1);
        assert!(net.take_fault_marks().is_empty(), "marks drain once");
        assert_eq!(net.acct.messages(), 1, "the send itself is accounted");
    }

    #[test]
    fn retry_backoff_doubles_and_caps() {
        let mut c = ClientCore::new(ClientId::new(0), 1);
        let base = SimTime::new(10);
        assert_eq!(c.retry_backoff(base), SimTime::new(10));
        c.retry_attempts = 3;
        assert_eq!(c.retry_backoff(base), SimTime::new(80));
        c.retry_attempts = 40;
        assert_eq!(c.retry_backoff(base), SimTime::new(640), "capped at 64x");
        c.retry_progress();
        assert_eq!(c.retry_attempts, 0);
        assert_eq!(c.retry_epoch, 1);
    }

    #[test]
    fn due_resend_follows_the_epoch_and_the_outstanding_work() {
        let gen = TxnGenerator::new(TxnProfile::table1(0.5), 25);
        let mut table = TxnTable::new();
        let mut c = ClientCore::new(ClientId::new(0), 1);
        assert_eq!(c.due_resend(0), None, "idle: nothing outstanding");
        let txn = c.begin_txn(&gen, &mut table, SimTime::ZERO);
        assert_eq!(c.due_resend(0), Some(Resend::Request));
        c.retry_progress();
        assert_eq!(c.due_resend(0), None, "progress made the timer stale");
        let prepare = |shard| {
            (
                shard,
                Message::Prepare {
                    txn,
                    writes: Vec::new(),
                    involved: 0b11,
                },
            )
        };
        c.pending_commits = vec![prepare(0), prepare(1)];
        assert_eq!(c.due_resend(1), Some(Resend::CommitPhase));
        let is_vote = |m: &Message| matches!(m, Message::Prepare { txn: t, .. } if *t == txn);
        assert_eq!(
            c.take_ack(1, is_vote),
            Some(false),
            "shard 0 still owes its vote"
        );
        assert_eq!(c.take_ack(1, is_vote), None, "duplicate ack");
        assert_eq!(c.take_ack(0, is_vote), Some(true));
        assert_eq!(c.retry_epoch, 3, "each counted ack is progress");
    }

    #[test]
    fn txn_table_ids_are_age_ordered() {
        let mut t = TxnTable::new();
        let a = t.create(ClientId::new(0), true);
        let b = t.create(ClientId::new(1), false);
        assert!(a < b);
        assert_eq!(t.len(), 2);
        assert!(t.info(a).read_only);
        assert!(t.is_live(b));
        t.set_status(b, TxnStatus::Aborting);
        assert!(!t.is_live(b));
    }

    #[test]
    fn client_begin_txn_draws_from_spec_stream() {
        let gen = TxnGenerator::new(TxnProfile::table1(0.5), 25);
        let mut table = TxnTable::new();
        let mut c = ClientCore::new(ClientId::new(3), 42);
        let id = c.begin_txn(&gen, &mut table, SimTime::new(5));
        assert_eq!(table.info(id).client, ClientId::new(3));
        assert_eq!(c.txn().start, SimTime::new(5));
        assert_eq!(c.txn().granted, 0);
        assert!(matches!(c.txn().phase, ClientPhase::WaitingGrant(0)));
    }

    #[test]
    fn same_seed_clients_draw_identical_specs() {
        let gen = TxnGenerator::new(TxnProfile::table1(0.5), 25);
        let mut t1 = TxnTable::new();
        let mut t2 = TxnTable::new();
        let mut a = ClientCore::new(ClientId::new(0), 9);
        let mut b = ClientCore::new(ClientId::new(0), 9);
        a.begin_txn(&gen, &mut t1, SimTime::ZERO);
        b.begin_txn(&gen, &mut t2, SimTime::ZERO);
        assert_eq!(a.txn().spec, b.txn().spec);
    }
}
