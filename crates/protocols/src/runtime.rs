//! Shared simulation plumbing for all protocol engines: events, messages,
//! the network sender, per-client state, the global transaction table,
//! and the engine shell — the state every engine shares, the one event
//! loop that drives them, and the client request and lock-server paths
//! the protocols have in common.

use crate::config::EngineConfig;
use crate::cycle::CycleFinder;
use crate::history::{AccessRecord, CommitRecord, History};
use crate::metrics::{Collector, RunMetrics, WalReport};
use crate::recovery::Recovery;
use crate::tracelog::{TraceKind, TraceLog};
use g2pl_faults::{FaultCounts, FaultPlan};
use g2pl_fwdlist::ForwardList;
use g2pl_lockmgr::{AcquireOutcome, LockMode, LockTable};
use g2pl_netmodel::{LatencyModel, LossyLink, NetAccounting};
use g2pl_obs::SpanRecorder;
use g2pl_simcore::{Calendar, ClientId, ItemId, RngStream, SimTime, SiteId, TxnId, Version};
use g2pl_wal::{LogRecord, ServerImage, ServerRecord, SiteLog};
use g2pl_workload::{AccessMode, Trace, TxnGenerator, TxnSpec};
use std::collections::BTreeMap;
use std::ops::Range;
use std::rc::Rc;

/// Control-message payload size in bytes (requests, notices).
pub(crate) const CTRL_BYTES: u64 = 64;

/// Hard cap on processed events — a deterministic simulation exceeding
/// this has livelocked, and panicking beats spinning forever.
pub(crate) const EVENT_BUDGET: u64 = 2_000_000_000;

/// The lock mode an access needs.
pub(crate) fn lock_mode(mode: AccessMode) -> LockMode {
    match mode {
        AccessMode::Read => LockMode::Shared,
        AccessMode::Write => LockMode::Exclusive,
    }
}

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
    // ---- every engine ----
    /// Client → server: lock + data request for one item.
    LockReq {
        /// Requesting transaction.
        txn: TxnId,
        /// Requesting client.
        client: ClientId,
        /// Requested item.
        item: ItemId,
        /// Requested mode.
        mode: LockMode,
    },
    /// Server → client: the transaction was chosen as a victim (of a
    /// deadlock, or of a lease expiry).
    AbortNotice {
        /// Aborted transaction.
        txn: TxnId,
    },

    // ---- s-2PL / c-2PL ----
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

    /// Whether the client is running transaction `txn`.
    pub fn runs(&self, txn: TxnId) -> bool {
        self.txn.as_ref().is_some_and(|a| a.id == txn)
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

/// The accounting labels of the messages the shared code sends on an
/// engine's behalf, one const per engine.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Labels {
    /// Client → shard: [`Message::LockReq`].
    pub(crate) lock_request: &'static str,
    /// Shard → client: [`Message::AbortNotice`].
    pub(crate) abort_notice: &'static str,
    /// Recovering shard → involved peer: [`Message::CommitQuery`].
    pub(crate) commit_query: &'static str,
    /// Peer → recovering shard: [`Message::CommitVerdict`].
    pub(crate) commit_verdict: &'static str,
    /// Recovering shard → client: [`Message::ReregisterReq`].
    pub(crate) reregister_req: &'static str,
    /// Shard → coordinating client: [`Message::PrepareAck`].
    pub(crate) prepare_ack: &'static str,
}

/// The state every engine shares. An engine owns one and adds only its
/// protocol's state; [`run`] drives it through the [`Protocol`] hooks.
pub(crate) struct Shell {
    pub(crate) cfg: EngineConfig,
    pub(crate) cal: Calendar<Ev>,
    pub(crate) net: Net,
    pub(crate) clients: Vec<ClientCore>,
    pub(crate) table: TxnTable,
    /// Installed version per item, at its home shard.
    pub(crate) versions: Vec<Version>,
    pub(crate) generator: TxnGenerator,
    pub(crate) collector: Collector,
    pub(crate) history: Option<History>,
    pub(crate) trace: TraceLog,
    pub(crate) spans: SpanRecorder,
    /// One client-site WAL per client, when enabled.
    pub(crate) wal: Option<Vec<SiteLog>>,
    /// False once the measurement window is full in drain mode: no new
    /// transaction starts, the in-flight ones finish.
    pub(crate) admitting: bool,
    /// The shards' fault domains: gating, crash recovery, presumed-abort
    /// votes, leases and fault counters. It keeps the engine's message
    /// labels.
    pub(crate) rec: Recovery,
}

impl Shell {
    /// The shared state of an engine for `cfg`, labelling the messages
    /// the shared code sends with `labels`.
    pub(crate) fn new(cfg: EngineConfig, labels: Labels) -> Self {
        let generator = TxnGenerator::new_sharded(
            cfg.profile.clone(),
            cfg.items.num_shards,
            cfg.items.items_per_shard,
        );
        let replay = cfg.replay.clone().map(Rc::new);
        let clients = (0..cfg.num_clients)
            .map(|i| match &replay {
                Some(t) => ClientCore::with_replay(ClientId::new(i), cfg.seed, Rc::clone(t)),
                None => ClientCore::new(ClientId::new(i), cfg.seed),
            })
            .collect();
        let net = Net::for_config(&cfg);
        Shell {
            rec: Recovery::new(&cfg, &net, labels),
            net,
            cal: Calendar::new(),
            clients,
            table: TxnTable::new(),
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
            cfg,
        }
    }

    /// Draw `client`'s idle period and schedule its next transaction.
    pub(crate) fn schedule_idle(&mut self, client: ClientId) {
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

    /// Request access `idx` of `client`'s transaction `txn` from the
    /// item's home shard.
    pub(crate) fn request_access(
        &mut self,
        now: SimTime,
        client: ClientId,
        txn: TxnId,
        idx: usize,
    ) {
        let t = self.clients[client.index()].txn_mut();
        let (item, mode) = t.spec.access(idx);
        t.phase = ClientPhase::WaitingGrant(idx);
        t.request_sent_at = now;
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
        self.send_lock_req(client, txn, item, mode);
        if self.rec.faults_on {
            self.clients[client.index()].arm_retry(&mut self.cal, self.rec.retry_base);
        }
    }

    /// Record `version` as the next granted access of `client`'s
    /// transaction `txn`, and start the think time that follows it.
    pub(crate) fn begin_think(&mut self, client: ClientId, txn: TxnId, version: Version) {
        let c = &mut self.clients[client.index()];
        let active = c.txn_mut();
        active.versions.push(version);
        active.granted += 1;
        active.phase = ClientPhase::Thinking;
        let think = self.cfg.profile.draw_think(&mut c.time_rng);
        self.cal.schedule_in(
            think,
            Ev::Timer {
                client,
                kind: TimerKind::ThinkDone(txn),
            },
        );
    }

    /// Re-send the outstanding lock request. No `RequestSent` trace or
    /// request span is recorded for a retransmission: trace consumers
    /// pair each logical request with one grant.
    pub(crate) fn resend_request(&mut self, client: ClientId) {
        let c = &mut self.clients[client.index()];
        let Some(active) = &c.txn else { return };
        let txn = active.id;
        let (item, mode) = active.spec.access(active.granted);
        c.retry_attempts = c.retry_attempts.saturating_add(1);
        self.rec.fsum.retries += 1;
        self.send_lock_req(client, txn, item, mode);
        self.clients[client.index()].arm_retry(&mut self.cal, self.rec.retry_base);
    }

    fn send_lock_req(&mut self, client: ClientId, txn: TxnId, item: ItemId, mode: AccessMode) {
        self.net.send(
            &mut self.cal,
            client.into(),
            self.cfg.shard_site(item),
            self.rec.labels.lock_request,
            CTRL_BYTES,
            Message::LockReq {
                txn,
                client,
                item,
                mode: lock_mode(mode),
            },
        );
    }

    /// Install `txn`'s written versions at their home shard and mark them
    /// permanent in the committer's WAL.
    pub(crate) fn install(&mut self, txn: TxnId, writes: &[(ItemId, Version)]) {
        let committer = self.table.info(txn).client;
        for &(item, version) in writes {
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

    /// Tell `txn`'s client, from shard `from`, that it was aborted.
    pub(crate) fn send_abort_notice(&mut self, from: usize, txn: TxnId) {
        let client = self.table.info(txn).client;
        self.net.send(
            &mut self.cal,
            SiteId::server(from as u32),
            client.into(),
            self.rec.labels.abort_notice,
            CTRL_BYTES,
            Message::AbortNotice { txn },
        );
    }

    /// Crash shard `shard`: its fault domain goes down and its items lose
    /// their installed versions. Returns the shard's item index range, for
    /// the engine to drop its own volatile state there.
    pub(crate) fn crash_shard(&mut self, now: SimTime, shard: usize) -> Range<usize> {
        self.rec.crash_server(now, shard, &mut self.trace);
        let per = self.cfg.items.items_per_shard as usize;
        let items = shard * per..(shard + 1) * per;
        self.versions[items.clone()].fill(0);
        items
    }

    /// Restart shard `shard` from its replayed log: restore its items'
    /// installed versions, let `rebuild` restore the engine's own durable
    /// state from the same image, and open the re-registration handshake.
    pub(crate) fn restart_shard(
        &mut self,
        now: SimTime,
        shard: usize,
        rebuild: impl FnOnce(&ServerImage),
    ) {
        let versions = &mut self.versions;
        self.rec
            .restart(now, shard, &mut self.net, &mut self.cal, |img| {
                for (&item, &v) in &img.versions {
                    versions[item.index()] = v;
                }
                rebuild(img);
            });
    }

    /// The run's metrics, with no protocol-specific extras.
    pub(crate) fn into_metrics(mut self, protocol: &'static str, events: u64) -> RunMetrics {
        let obs = self.spans.finish();
        let trace_dropped = self.trace.dropped();
        self.rec.fsum.injected = self.net.fault_counts();
        RunMetrics {
            faults: self.rec.fsum,
            protocol,
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
}

/// What makes an engine a protocol: the hooks the shared [`run`] loop
/// calls. Each engine implements them over its own state plus its
/// [`Shell`]; calls are static.
pub(crate) trait Protocol {
    /// The engine's shared state.
    fn shell(&mut self) -> &mut Shell;
    /// Start access `idx` of `client`'s transaction `txn`.
    fn issue_access(&mut self, now: SimTime, client: ClientId, txn: TxnId, idx: usize);
    /// Every access of `client`'s transaction `txn` was granted and
    /// processed: commit it (or start its voting round, or discover
    /// that it was aborted meanwhile).
    fn try_commit(&mut self, now: SimTime, client: ClientId, txn: TxnId);
    /// A retry timer found unacknowledged commit-phase messages.
    fn resend_pending_commits(&mut self, client: ClientId);
    /// A [`TimerKind::DecideRetry`] timer fired.
    fn on_decide_retry(&mut self, _now: SimTime, _client: ClientId, _txn: TxnId) {
        unreachable!("decide timer armed by a protocol without a decide phase")
    }
    /// A message reached a live client.
    fn on_client_msg(&mut self, now: SimTime, client: ClientId, msg: Message);
    /// A shard admitted a message.
    fn on_server_msg(&mut self, now: SimTime, shard: usize, msg: Message);
    /// A protocol-specific event ([`Ev::WindowTimer`], [`Ev::LeaseCheck`]
    /// or [`Ev::CallbackRetry`]).
    fn on_event(&mut self, _now: SimTime, ev: Ev) {
        unreachable!("{ev:?} is not part of this protocol")
    }
    /// `client` just crashed (the shell already marked it down).
    fn on_client_crash(&mut self, _client: ClientId) {}
    /// `client` came back up; every timer it had died with the crash.
    fn on_restart(&mut self, now: SimTime, client: ClientId);
    /// A scheduled crash (`up == false`) or restart of shard `shard`.
    fn on_server_fault(&mut self, now: SimTime, shard: usize, up: bool);
    /// Close shard `shard`'s re-registration handshake.
    fn finish_recovery(&mut self, now: SimTime, shard: usize);
    /// Abort `txn` as a victim (of a deadlock or a lease expiry).
    fn abort_victim(&mut self, now: SimTime, txn: TxnId);
    /// After a fault-free drain: the protocol's state must be quiescent.
    fn assert_drained(&self) {}
    /// The run's metrics, after `events` processed events.
    fn into_metrics(self, events: u64) -> RunMetrics;
}

/// Run `eng` to completion and report its metrics: the one event loop of
/// every engine.
pub(crate) fn run<P: Protocol>(mut eng: P) -> RunMetrics {
    let sh = eng.shell();
    // Stagger client start-up by one idle draw each, as the model's
    // "replaced after some idle time" rule implies for the very first
    // transaction too.
    for i in 0..sh.cfg.num_clients {
        sh.schedule_idle(ClientId::new(i));
    }
    for (client, at, up) in sh.net.crash_schedule() {
        sh.cal.schedule(at, Ev::Fault { client, up });
    }
    for (shard, at, up) in sh.net.server_crash_schedule() {
        sh.cal.schedule(at, Ev::ServerFault { shard, up });
    }

    let mut events: u64 = 0;
    while let Some((now, ev)) = eng.shell().cal.pop() {
        events += 1;
        assert!(events < EVENT_BUDGET, "event budget exhausted: livelock?");
        match ev {
            Ev::Timer { client, kind } => {
                if !eng.shell().clients[client.index()].crashed {
                    on_timer(&mut eng, now, client, kind);
                }
            }
            Ev::ServerProc { shard, msg } => {
                if eng.shell().rec.admit_queued(shard as usize, &msg) {
                    eng.on_server_msg(now, shard as usize, msg);
                }
            }
            Ev::Deliver { to, msg } => match to {
                SiteId::Server(shard) => match eng.shell().rec.admit(now, shard.index(), &msg) {
                    Some(SimTime::ZERO) => eng.on_server_msg(now, shard.index(), msg),
                    Some(d) => {
                        eng.shell().cal.schedule_in(
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
                    if !eng.shell().clients[c.index()].crashed {
                        eng.on_client_msg(now, c, msg);
                    }
                }
            },
            Ev::Fault { client, up } => {
                let sh = eng.shell();
                let c = &mut sh.clients[client.index()];
                // Crashing a down client or restarting a live one is a
                // no-op.
                if c.crashed == up {
                    c.crashed = !up;
                    if up {
                        c.retry_progress();
                        eng.on_restart(now, client);
                    } else {
                        sh.rec.fsum.crashes += 1;
                        sh.trace
                            .record(now, TraceKind::FaultInjected, None, None, client.into());
                        eng.on_client_crash(client);
                    }
                }
            }
            Ev::ServerFault { shard, up } => eng.on_server_fault(now, shard as usize, up),
            Ev::RecoveryCheck { shard, epoch } => {
                let s = shard as usize;
                let sh = eng.shell();
                if sh
                    .rec
                    .on_recovery_check(now, s, epoch, &mut sh.net, &mut sh.cal)
                {
                    eng.finish_recovery(now, s);
                }
            }
            Ev::TxnLease { txn } => {
                let sh = eng.shell();
                if sh
                    .rec
                    .on_txn_lease(now, txn, &sh.table, &mut sh.cal, &mut sh.trace)
                {
                    eng.abort_victim(now, txn);
                    let sh = eng.shell();
                    sh.rec.lease_reclaimed(now, txn, &mut sh.trace);
                }
            }
            ev @ (Ev::WindowTimer { .. } | Ev::LeaseCheck { .. } | Ev::CallbackRetry { .. }) => {
                eng.on_event(now, ev);
            }
        }
        let sh = eng.shell();
        if sh.rec.faults_on {
            for (at, site) in sh.net.take_fault_marks() {
                sh.trace
                    .record(at, TraceKind::FaultInjected, None, None, site);
            }
        }
        if sh.collector.done() {
            if !sh.cfg.drain {
                break;
            }
            sh.admitting = false;
        }
    }

    // Under an active fault plan the end-of-run snapshot may
    // legitimately hold residue (e.g. a client that crashed and never
    // restarted before the calendar emptied); liveness is checked by
    // trace property P8 instead of these structural asserts.
    let sh = eng.shell();
    if sh.cfg.drain && !sh.rec.faults_on {
        if let Some(wal) = &sh.wal {
            assert!(
                wal.iter().all(SiteLog::is_empty),
                "WAL records survived a drain: every version is home"
            );
        }
        eng.assert_drained();
    }
    eng.into_metrics(events)
}

/// A live client's timer fired.
fn on_timer<P: Protocol>(eng: &mut P, now: SimTime, client: ClientId, kind: TimerKind) {
    match kind {
        TimerKind::IdleDone => {
            let sh = eng.shell();
            if !sh.admitting {
                return;
            }
            let txn = sh.clients[client.index()].begin_txn(&sh.generator, &mut sh.table, now);
            if let Some(wal) = &mut sh.wal {
                wal[client.index()].append(LogRecord::Begin { txn });
            }
            eng.issue_access(now, client, txn, 0);
        }
        TimerKind::ThinkDone(txn) => {
            let Some(active) = &eng.shell().clients[client.index()].txn else {
                return;
            };
            if active.id != txn || active.phase != ClientPhase::Thinking {
                return; // stale timer of an aborted transaction
            }
            let granted = active.granted;
            if granted < active.spec.len() {
                eng.issue_access(now, client, txn, granted);
            } else {
                eng.try_commit(now, client, txn);
            }
        }
        TimerKind::Retry { epoch } => match eng.shell().clients[client.index()].due_resend(epoch) {
            Some(Resend::CommitPhase) => eng.resend_pending_commits(client),
            Some(Resend::Request) => eng.shell().resend_request(client),
            None => {}
        },
        TimerKind::DecideRetry(txn) => eng.on_decide_retry(now, client, txn),
    }
}

// ---- the s-2PL / c-2PL lock server ----

/// Labels of the messages only the lock-server engines send.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LockLabels {
    /// Shard → client: [`Message::SGrant`].
    pub(crate) grant: &'static str,
    /// Client → shard: [`Message::Prepare`].
    pub(crate) prepare: &'static str,
    /// Client → shard: [`Message::SCommit`].
    pub(crate) commit_release: &'static str,
    /// Shard → client: [`Message::SCommitAck`].
    pub(crate) commit_ack: &'static str,
    /// Client → recovering shard: [`Message::SReregister`].
    pub(crate) reregister: &'static str,
}

/// Per-shard slice of a committing transaction: written `(item,
/// version)` pairs plus read-only items, bound for one home server.
type ShardCommitGroup = (Vec<(ItemId, Version)>, Vec<ItemId>);

/// The state of a lock-server engine besides its protocol's own: the
/// shell, one lock table per shard, and the deadlock search.
pub(crate) struct LockCore {
    pub(crate) sh: Shell,
    /// One lock table per server shard; an item's locks live at the
    /// shard owning it ([`EngineConfig::shard_of`]).
    pub(crate) locks: Vec<LockTable>,
    finder: CycleFinder,
    /// True while a deadlock search's victim loop runs: an abort there
    /// can ship a grant whose own search (c-2PL: behind a new callback
    /// barrier) must then be a full one, since the outer trigger's cycles
    /// may not all be broken yet.
    searching: bool,
}

impl LockCore {
    /// The shared state of a lock-server engine for `cfg`.
    pub(crate) fn new(cfg: EngineConfig, labels: Labels) -> Self {
        LockCore {
            locks: (0..cfg.num_shards()).map(|_| LockTable::new()).collect(),
            finder: CycleFinder::default(),
            searching: false,
            sh: Shell::new(cfg, labels),
        }
    }

    /// A scheduled crash (`up == false`) or restart of shard `shard`. A
    /// crash loses the shard's lock table and its items' installed
    /// versions, and returns the item range, for the engine to drop its
    /// own volatile state there. A restart restores the versions from the
    /// replayed log and opens the re-registration handshake.
    pub(crate) fn server_fault(
        &mut self,
        now: SimTime,
        shard: usize,
        up: bool,
    ) -> Option<Range<usize>> {
        if up {
            self.sh.restart_shard(now, shard, |_| {});
            return None;
        }
        let items = self.sh.crash_shard(now, shard);
        self.locks[shard] = LockTable::new();
        Some(items)
    }

    /// After a fault-free drain no lock may be left.
    pub(crate) fn assert_drained(&self) {
        assert!(
            self.locks.iter().all(LockTable::is_quiescent),
            "locks leaked after drain"
        );
    }
}

/// An engine whose shards grant locks and ship data from a lock table,
/// and whose clients send their writes home at commit: s-2PL, and c-2PL,
/// which is s-2PL plus a client cache. The functions below are the one
/// lock server both run. The provided hooks are s-2PL's behaviour; c-2PL
/// overrides them to put its cache, directory, callbacks and barriers in.
/// The status writes stay with each engine: [`LockServer::commit_decided`]
/// and [`LockServer::finalize_abort`] here, and [`Protocol::abort_victim`]
/// and [`Protocol::finish_recovery`].
pub(crate) trait LockServer: Protocol + Sized {
    /// Labels of the lock-server messages.
    const LOCK_LABELS: LockLabels;

    /// The shared state.
    fn core(&self) -> &LockCore;
    /// The shared state, mutably.
    fn core_mut(&mut self) -> &mut LockCore;
    /// Abort `client`'s transaction `txn` locally: set its status and
    /// record the abort, then [`finish_abort`].
    fn finalize_abort(&mut self, now: SimTime, client: ClientId, txn: TxnId);
    /// The commit decision point: every involved shard voted yes, or no
    /// votes were needed. Set `txn`'s status and record the commit, then
    /// [`finish_commit`].
    fn commit_decided(&mut self, now: SimTime, client: ClientId, txn: TxnId);

    /// A lock on `item` was granted to `client`'s `txn` in `mode`: ship it.
    /// c-2PL first recalls the remote cached copies of an exclusive grant.
    fn ship_grant(
        &mut self,
        now: SimTime,
        client: ClientId,
        txn: TxnId,
        item: ItemId,
        _mode: LockMode,
    ) {
        send_grant(self, now, client, txn, item);
    }
    /// Whether `txn`'s granted lock on `item` is still held back from
    /// shipping by something that drives its own progress (c-2PL: a
    /// callback barrier and its retry timer), so a duplicate request must
    /// not re-ship it.
    fn grant_gated(&self, _txn: TxnId, _item: ItemId) -> bool {
        false
    }
    /// Fit `client`'s re-registration report to shard `shard`: drop from
    /// `held` what the client holds without a server lock (c-2PL: cache
    /// pins), and return the items there it caches.
    fn cache_report(
        &self,
        _client: ClientId,
        _shard: u32,
        _held: &mut Vec<(ItemId, LockMode)>,
    ) -> Vec<ItemId> {
        Vec::new()
    }
    /// A re-registration report of `client` listed the cached `items`.
    fn on_cached_report(&mut self, _client: ClientId, _items: &[ItemId]) {}
    /// `committer`'s commit-release slice installed `writes` and released
    /// `reads` at their shard, before the released locks move on.
    fn on_commit_slice(
        &mut self,
        _committer: ClientId,
        _writes: &[(ItemId, Version)],
        _reads: &[ItemId],
    ) {
    }
    /// `client`'s transaction ended: committed with `accesses` (each with
    /// the version it read or installed), after its commit releases went
    /// out, or aborted (no accesses).
    fn on_txn_end(&mut self, _client: ClientId, _accesses: &[AccessRecord]) {}
    /// `victim` was chosen to abort; its locks are released next.
    fn on_victim(&mut self, _victim: TxnId) {}
    /// Append the waits-for successors of the live `txn` beyond its
    /// lock-table wait (c-2PL: a barrier owner waits on the transactions
    /// pinning a recalled copy).
    fn extra_waits_for(&self, _txn: TxnId, _out: &mut Vec<TxnId>) {}
    /// Whether one of [`LockServer::extra_waits_for`]'s edges may enter
    /// `txn` (an over-approximation is fine).
    fn extra_waited_on(&self, _txn: TxnId) -> bool {
        false
    }
}

/// Ship `item` to `client` for `txn`, durably logging the grant first
/// when the shard keeps a log.
pub(crate) fn send_grant<E: LockServer>(
    eng: &mut E,
    now: SimTime,
    client: ClientId,
    txn: TxnId,
    item: ItemId,
) {
    let LockCore { sh, locks, .. } = eng.core_mut();
    let shard = sh.cfg.shard_of(item) as usize;
    if let Some(slog) = sh.rec.slog.get_mut(shard) {
        // Write-ahead: the grant is durable before it leaves.
        let exclusive = matches!(locks[shard].mode_of(txn, item), Some(LockMode::Exclusive));
        slog.append(ServerRecord::Grant {
            txn,
            item,
            exclusive,
        });
    }
    sh.trace.record(
        now,
        TraceKind::Dispatched,
        Some(txn),
        Some(item),
        client.into(),
    );
    sh.spans.dispatched(now, txn, item);
    sh.spans.hop_departed(now, txn, item);
    sh.net.send(
        &mut sh.cal,
        SiteId::server(shard as u32),
        client.into(),
        E::LOCK_LABELS.grant,
        CTRL_BYTES + sh.cfg.item_size_bytes,
        Message::SGrant {
            txn,
            item,
            version: sh.versions[item.index()],
        },
    );
}

/// A message reached a lock-server client.
pub(crate) fn on_client_msg<E: LockServer>(
    eng: &mut E,
    now: SimTime,
    client: ClientId,
    msg: Message,
) {
    match msg {
        Message::SGrant { txn, item, version } => {
            let sh = eng.shell();
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
            let wait = now.since(active.request_sent_at);
            if faults_on {
                c.retry_progress();
            }
            sh.collector.on_access_wait(wait);
            sh.trace.record(
                now,
                TraceKind::Granted,
                Some(txn),
                Some(item),
                client.into(),
            );
            sh.spans.granted(now, txn, item);
            sh.begin_think(client, txn, version);
        }
        Message::AbortNotice { txn } => eng.finalize_abort(now, client, txn),
        Message::PrepareAck { txn, shard } => on_prepare_ack(eng, now, client, txn, shard),
        Message::SCommitAck { txn, shard } => on_commit_ack(eng.shell(), client, txn, shard),
        Message::ReregisterReq { shard, epoch } => {
            // Re-report everything the client holds of the restarted
            // shard: server-granted accesses of the live transaction homed
            // there, that shard's slice of an unacknowledged
            // (committed-but-unreleased) commit, and the cached copies the
            // rebuilt directory must know about.
            let sh = &eng.core().sh;
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
            let cached = eng.cache_report(client, shard, &mut held);
            let sh = eng.shell();
            let bytes = CTRL_BYTES + 8 * (held.len() + cached.len()) as u64;
            sh.net.send(
                &mut sh.cal,
                client.into(),
                SiteId::server(shard),
                E::LOCK_LABELS.reregister,
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
        other => unreachable!("a lock-server client cannot receive {other:?}"),
    }
}

/// A lock-server shard admitted a message.
pub(crate) fn on_server_msg<E: LockServer>(eng: &mut E, now: SimTime, shard: usize, msg: Message) {
    match msg {
        Message::LockReq {
            txn,
            client,
            item,
            mode,
        } => {
            let LockCore { sh, locks, .. } = eng.core_mut();
            debug_assert_eq!(
                sh.cfg.shard_of(item) as usize,
                shard,
                "lock request routed to the wrong shard"
            );
            match sh.table.status(txn) {
                TxnStatus::Active => {}
                TxnStatus::Aborting | TxnStatus::Aborted if sh.rec.faults_on => {
                    // A retried request from a victim whose abort notice may have
                    // been lost: answer it again.
                    sh.send_abort_notice(shard, txn);
                    return;
                }
                _ => return, // stale request of a finished transaction
            }
            if sh.rec.faults_on {
                sh.rec.touch(now, txn, &mut sh.cal);
                if locks[shard].mode_of(txn, item).is_some() {
                    // Duplicate of an already-granted request (the grant or the
                    // original request was lost or duplicated): re-ship the
                    // grant, unless it is still gated.
                    if !eng.grant_gated(txn, item) {
                        send_grant(eng, now, client, txn, item);
                    }
                    return;
                }
                if locks[shard].queued_on(txn) == Some(item) {
                    return; // duplicate of a still-queued request
                }
            }
            sh.spans.req_arrived(now, txn, item);
            match locks[shard].acquire(txn, item, mode) {
                AcquireOutcome::Granted => eng.ship_grant(now, client, txn, item, mode),
                AcquireOutcome::Queued => detect_deadlocks(eng, now, txn),
            }
        }
        Message::Prepare {
            txn,
            writes,
            involved,
        } => {
            let sh = eng.shell();
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
                // The abort won the race with the voting round: answer
                // the (possibly lost) notice again.
                sh.send_abort_notice(shard, txn);
            }
        }
        Message::SCommit { txn, writes, reads } => {
            let sh = eng.shell();
            let committer = sh.table.info(txn).client;
            // Under faults a duplicate slice (already applied at this
            // shard) means the ack was lost: just acknowledge again. Each
            // shard's bit of the applied set is durable — it survives
            // crashes via log replay.
            if !(sh.rec.faults_on && sh.rec.applied_at(txn, shard)) {
                if sh.rec.faults_on {
                    sh.rec.end_lease(txn);
                }
                sh.rec.apply_commit(now, shard, txn, &writes, &mut sh.trace);
                sh.install(txn, &writes);
                eng.on_commit_slice(committer, &writes, &reads);
                let sh = eng.shell();
                sh.trace.record(
                    now,
                    TraceKind::ReleasedAtServer,
                    Some(txn),
                    None,
                    SiteId::server(shard as u32),
                );
                sh.spans.release_arrived(now, txn, true);
                release_at(eng, now, shard, txn);
            }
            let sh = eng.shell();
            if sh.rec.faults_on {
                sh.net.send(
                    &mut sh.cal,
                    SiteId::server(shard as u32),
                    committer.into(),
                    E::LOCK_LABELS.commit_ack,
                    CTRL_BYTES,
                    Message::SCommitAck {
                        txn,
                        shard: shard as u32,
                    },
                );
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
            let sh = eng.shell();
            if sh
                .rec
                .reregistered(now, shard, client, epoch, txn, &mut sh.trace)
            {
                eng.on_cached_report(client, &cached);
                let sh = eng.shell();
                let pending = pending.as_ref();
                sh.rec
                    .check_lock_report(shard, &sh.table, client, txn, &held, pending);
                if sh.rec.all_answered(shard) {
                    eng.finish_recovery(now, shard);
                }
            }
        }
        Message::CommitQuery {
            txn, from_shard, ..
        } => {
            let sh = eng.shell();
            sh.rec
                .answer_commit_query(shard, txn, from_shard, &sh.table, &mut sh.net, &mut sh.cal);
        }
        Message::CommitVerdict { txn, committed } => {
            if eng.shell().rec.on_commit_verdict(shard, txn, committed) {
                resolve_indoubt_commit(eng, now, shard, txn);
            }
        }
        other => unreachable!("a lock-server shard cannot receive {other:?}"),
    }
}

/// Release every lock `txn` holds at shard `shard`, shipping the grants
/// it wakes.
fn release_at<E: LockServer>(eng: &mut E, now: SimTime, shard: usize, txn: TxnId) {
    for (item, t, mode) in eng.core_mut().locks[shard].release_all(txn) {
        let c = eng.core().sh.table.info(t).client;
        eng.ship_grant(now, c, t, item, mode);
    }
}

/// Positive commit evidence arrived for an in-doubt prepared vote at
/// shard `shard`: install the prepared write slice exactly as the lost
/// commit-release would have, and release the transaction's locks. A
/// cache directory is deliberately left alone: after a crash its truth
/// comes from the re-registration reports only, and a client that never
/// re-registered has lost its cache, so inventing entries here would
/// resurrect dead copies.
fn resolve_indoubt_commit<E: LockServer>(eng: &mut E, now: SimTime, shard: usize, txn: TxnId) {
    let sh = eng.shell();
    if let Some(writes) = sh.rec.commit_in_doubt(now, shard, txn, &mut sh.trace) {
        sh.install(txn, &writes);
        release_at(eng, now, shard, txn);
    }
}

/// §4: "deadlock detection is initiated when a lock cannot be granted"
/// (and, under c-2PL, when an exclusive grant waits behind a callback
/// barrier). The waits-for relation is explored lazily from the blocked
/// transaction: successors are computed on demand from the lock table
/// and [`LockServer::extra_waits_for`], so only the reachable part of the
/// graph is visited, and victims are aborted until no cycle through
/// `trigger` remains. Only live transactions source edges (an aborting
/// c-2PL barrier owner still holds its lock but no longer waits, so the
/// victim loop cannot pick it twice). A trigger nothing waits on closes
/// no cycle, so its search is skipped ([`CycleFinder::find_new_cycle`]),
/// except inside another search's victim loop, where older cycles may
/// remain.
pub(crate) fn detect_deadlocks<E: LockServer>(eng: &mut E, now: SimTime, trigger: TxnId) {
    // The finder is moved out for the duration of the search so its
    // buffers can be reused while the successor closure borrows the
    // engine.
    let lc = eng.core_mut();
    let mut finder = std::mem::take(&mut lc.finder);
    let nested = std::mem::replace(&mut lc.searching, true);
    loop {
        let e = &*eng;
        let LockCore { sh, locks, .. } = e.core();
        let waited_on =
            nested || locks.iter().any(|lt| lt.is_waited_on(trigger)) || e.extra_waited_on(trigger);
        let found = finder.find_new_cycle(trigger, waited_on, |t, out| {
            if !sh.table.is_live(t) {
                return;
            }
            // Accesses are sequential, so a transaction queues on at most
            // one item globally: the scan finds the shard it waits at.
            for lt in locks {
                if let Some(item) = lt.queued_on(t) {
                    lt.waits_for_into(t, item, out);
                    break;
                }
            }
            e.extra_waits_for(t, out);
        });
        let Some(cycle) = found else { break };
        let victim = sh
            .cfg
            .victim
            .choose(cycle, |t| locks.iter().map(|lt| lt.held_by(t).len()).sum());
        eng.abort_victim(now, victim);
        if victim == trigger {
            break;
        }
    }
    let lc = eng.core_mut();
    lc.searching = nested;
    lc.finder = finder;
}

/// The shared part of aborting `victim` once its engine set its status:
/// retire its fault-domain state, release its locks on every shard (in
/// ascending shard order) and ship the grants that wakes, then notify its
/// client. The shards own the authoritative copies, so the locks go at
/// once; the client only learns of the abort one latency later.
pub(crate) fn release_victim<E: LockServer>(eng: &mut E, now: SimTime, victim: TxnId) {
    eng.shell().rec.retire_victim(victim);
    eng.on_victim(victim);
    let mut woken = Vec::new();
    for lt in &mut eng.core_mut().locks {
        woken.extend(lt.release_all(victim));
    }
    for (item, t, mode) in woken {
        let c = eng.core().sh.table.info(t).client;
        eng.ship_grant(now, c, t, item, mode);
    }
    eng.shell().send_abort_notice(0, victim);
}

/// The shared part of committing `client`'s transaction `txn` once its
/// engine set the status and recorded the commit. From here the commit is
/// irrevocable: the client's WAL `Commit` record below is the
/// coordinator's durable decision record, and the commit-release slices
/// retransmit until every shard applies.
pub(crate) fn finish_commit<E: LockServer>(
    eng: &mut E,
    now: SimTime,
    client: ClientId,
    txn: TxnId,
) {
    let sh = eng.shell();
    let c = &mut sh.clients[client.index()];
    // lint:allow(L3): commit is only reachable from a client with an active txn
    let active = c.txn.take().expect("committing client has a transaction");
    debug_assert_eq!(active.id, txn);
    let measured = sh
        .collector
        .on_commit_sized(now.since(active.start), active.spec.len());

    // Group the transaction's accesses by owning shard: a multi-home
    // commit sends one combined commit/release message per involved
    // shard (§3.1's single message, per home), all in the same round.
    let mut by_shard: BTreeMap<u32, ShardCommitGroup> = BTreeMap::new();
    let mut records = Vec::new();
    for (idx, &(item, mode)) in active.spec.accesses.iter().enumerate() {
        let observed = active.versions[idx];
        let slot = by_shard.entry(sh.cfg.shard_of(item)).or_default();
        let version = match mode {
            AccessMode::Write => {
                slot.0.push((item, observed + 1));
                observed + 1
            }
            AccessMode::Read => {
                slot.1.push(item);
                observed
            }
        };
        records.push(AccessRecord {
            item,
            mode,
            version,
        });
    }
    // One commit/release round trip per involved shard, in parallel.
    sh.spans
        .commit_local(now, txn, by_shard.len() as u32, measured);
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

    let slices: Vec<(u32, Message)> = by_shard
        .into_iter()
        .map(|(shard, (writes, reads))| (shard, Message::SCommit { txn, writes, reads }))
        .collect();
    if sh.rec.faults_on {
        // Commit durability under loss: retransmit each shard's release
        // until that shard acknowledges; the next transaction starts only
        // when every slice is acked (see the SCommitAck handler).
        let c = &mut sh.clients[client.index()];
        c.retry_progress();
        c.pending_commits = slices.clone();
    }
    send_phase::<E>(sh, client, slices);
    // Pins release and deferred callbacks answer at transaction end
    // regardless; only the next transaction's start is gated on the acks
    // under faults.
    eng.on_txn_end(client, &records);
    let sh = eng.shell();
    if let Some(h) = &mut sh.history {
        h.push(CommitRecord {
            txn,
            at: now,
            accesses: records,
        });
    }
    if sh.rec.faults_on {
        sh.clients[client.index()].arm_retry(&mut sh.cal, sh.rec.retry_base);
    } else {
        sh.schedule_idle(client);
    }
}

/// The shared part of aborting `client`'s transaction `txn` locally once
/// its engine set the status and recorded the abort: on receipt of the
/// server's notice, or — under faults — when the client discovers the
/// abort on its own (restart after a crash, or a commit racing the
/// notice).
pub(crate) fn finish_abort<E: LockServer>(eng: &mut E, now: SimTime, client: ClientId, txn: TxnId) {
    let sh = eng.shell();
    let c = &mut sh.clients[client.index()];
    let Some(active) = c.txn.take() else { return };
    debug_assert_eq!(active.id, txn);
    // An abort during the voting round withdraws the outstanding
    // prepares; shards that already voted are cleaned up by the victim's
    // releases.
    c.pending_commits
        .retain(|(_, m)| !matches!(m, Message::Prepare { txn: t, .. } if *t == txn));
    if sh.rec.faults_on {
        c.retry_progress();
    }
    sh.collector.on_abort_diag(
        active.spec.is_read_only(),
        now.since(active.start),
        active.granted,
    );
    if let Some(wal) = &mut sh.wal {
        wal[client.index()].append(LogRecord::Abort { txn });
    }
    sh.spans.aborted(now, txn);
    eng.on_txn_end(client, &[]);
    eng.shell().schedule_idle(client);
}

/// Every access of `client`'s transaction `txn` is granted: commit it,
/// or start its voting round.
pub(crate) fn try_commit<E: LockServer>(eng: &mut E, now: SimTime, client: ClientId, txn: TxnId) {
    let sh = eng.shell();
    // Under faults a lease expiry can pick a merely-slow (crashed and
    // restarted) transaction as victim while its abort notice is still in
    // flight; the oracle status resolves the race in favour of the abort,
    // exactly as the server already decided it.
    if sh.rec.faults_on && sh.table.status(txn) != TxnStatus::Active {
        eng.finalize_abort(now, client, txn);
        return;
    }
    // Under a server-crash plan a multi-home commit must be atomic across
    // shard fault domains: run presumed-abort two-phase commitment.
    // Single-home commits keep the one-phase path (the single-participant
    // optimization), as do all commits under plans without server
    // crashes. Cache hits count toward the involved mask too: their shard
    // still releases the transactional footprint.
    if sh.rec.srv_faults_on {
        let involved = sh.clients[client.index()].txn().involved(&sh.cfg);
        if involved.count_ones() > 1 {
            begin_prepare(eng, client, txn, involved);
            return;
        }
    }
    eng.commit_decided(now, client, txn);
}

/// Shard `shard` voted yes on `client`'s transaction `txn`.
fn on_prepare_ack<E: LockServer>(
    eng: &mut E,
    now: SimTime,
    client: ClientId,
    txn: TxnId,
    shard: u32,
) {
    let sh = eng.shell();
    let c = &mut sh.clients[client.index()];
    match c.take_ack(
        shard,
        |m| matches!(m, Message::Prepare { txn: t, .. } if *t == txn),
    ) {
        None => {} // duplicate ack of an already-counted vote
        // Other shards still owe votes: keep retransmitting their
        // prepares from a fresh backoff.
        Some(false) => c.arm_retry(&mut sh.cal, sh.rec.retry_base),
        // Unanimous yes. An abort may still have raced the voting round
        // (a lease victim whose notice is in flight); the oracle resolves
        // it in the abort's favour — the shards' prepared votes are
        // retired by the victim's releases.
        Some(true) if sh.table.status(txn) != TxnStatus::Active => {
            eng.finalize_abort(now, client, txn);
        }
        Some(true) => eng.commit_decided(now, client, txn),
    }
}

/// Shard `shard` applied `client`'s commit-release slice of `txn`.
fn on_commit_ack(sh: &mut Shell, client: ClientId, txn: TxnId, shard: u32) {
    let c = &mut sh.clients[client.index()];
    match c.take_ack(
        shard,
        |m| matches!(m, Message::SCommit { txn: t, .. } if *t == txn),
    ) {
        None => {} // duplicate ack of an older commit slice
        // Other shards still owe acks: keep retransmitting their slices
        // from a fresh backoff.
        Some(false) => c.arm_retry(&mut sh.cal, sh.rec.retry_base),
        Some(true) => sh.schedule_idle(client),
    }
}

/// Phase 1 of two-phase commitment: send each involved shard its prepare
/// (write slice + involved-shard mask) and wait for every yes vote before
/// deciding. The prepares sit in `pending_commits` and retransmit on the
/// usual backoff until acknowledged.
fn begin_prepare<E: LockServer>(eng: &mut E, client: ClientId, txn: TxnId, involved: u64) {
    let sh = eng.shell();
    let c = &mut sh.clients[client.index()];
    let active = c.txn_mut();
    debug_assert_eq!(active.id, txn);
    active.phase = ClientPhase::CommitWait;
    let mut by_shard: BTreeMap<u32, Vec<(ItemId, Version)>> = BTreeMap::new();
    for (idx, &(item, mode)) in active.spec.accesses.iter().enumerate() {
        let slot = by_shard.entry(sh.cfg.shard_of(item)).or_default();
        if mode == AccessMode::Write {
            slot.push((item, active.versions[idx] + 1));
        }
    }
    let prepares: Vec<(u32, Message)> = by_shard
        .into_iter()
        .map(|(shard, writes)| {
            let msg = Message::Prepare {
                txn,
                writes,
                involved,
            };
            (shard, msg)
        })
        .collect();
    c.retry_progress();
    c.pending_commits = prepares.clone();
    send_phase::<E>(sh, client, prepares);
    sh.clients[client.index()].arm_retry(&mut sh.cal, sh.rec.retry_base);
}

/// Send `client`'s commit-phase messages, one per shard: commit-releases
/// (a header plus the written items), or prepares (a header plus 12 bytes
/// per written `(item, version)`).
fn send_phase<E: LockServer>(sh: &mut Shell, client: ClientId, msgs: Vec<(u32, Message)>) {
    for (shard, msg) in msgs {
        let (kind, bytes) = match &msg {
            Message::SCommit { writes, .. } => (
                E::LOCK_LABELS.commit_release,
                CTRL_BYTES + writes.len() as u64 * sh.cfg.item_size_bytes,
            ),
            Message::Prepare { writes, .. } => (
                E::LOCK_LABELS.prepare,
                CTRL_BYTES + 12 * writes.len() as u64,
            ),
            other => unreachable!("{other:?} is not a commit-phase message"),
        };
        let to = SiteId::server(shard);
        sh.net
            .send(&mut sh.cal, client.into(), to, kind, bytes, msg);
    }
}

/// Re-send every unacknowledged commit-phase slice (the client's WAL
/// tail), one per still-unanswered shard: commit-releases, or — for a
/// multi-home transaction still in its voting round — prepares.
pub(crate) fn resend_commit_slices<E: LockServer>(eng: &mut E, client: ClientId) {
    let sh = eng.shell();
    let c = &mut sh.clients[client.index()];
    let pending = c.pending_commits.clone();
    if pending.is_empty() {
        return;
    }
    c.retry_attempts = c.retry_attempts.saturating_add(1);
    sh.rec.fsum.retries += pending.len() as u64;
    send_phase::<E>(sh, client, pending);
    sh.clients[client.index()].arm_retry(&mut sh.cal, sh.rec.retry_base);
}

/// A crashed client came back up. Each possible state re-establishes its
/// own wake-up: an unacknowledged commit resumes retransmission (the WAL
/// tail), an aborted transaction finalizes locally (the notice may have
/// been lost while down), an outstanding request is re-sent, and an idle
/// client re-draws its idle period.
pub(crate) fn restart_client<E: LockServer>(eng: &mut E, now: SimTime, client: ClientId) {
    let sh = eng.shell();
    let c = &sh.clients[client.index()];
    if !c.pending_commits.is_empty() {
        resend_commit_slices(eng, client);
        return;
    }
    let Some(active) = &c.txn else {
        sh.schedule_idle(client);
        return;
    };
    let (txn, phase) = (active.id, active.phase);
    match sh.table.status(txn) {
        TxnStatus::Aborting | TxnStatus::Aborted => eng.finalize_abort(now, client, txn),
        TxnStatus::Active => match phase {
            ClientPhase::WaitingGrant(_) => sh.resend_request(client),
            ClientPhase::Thinking => {
                // The think timer died with the crash: resume now.
                sh.cal.schedule_in(
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

/// The shared part of closing shard `shard`'s re-registration handshake:
/// settle the in-doubt votes from the commit oracle, restore every
/// outstanding durable grant whose owner still needs it, and resume
/// normal service. Returns the active transactions of the clients that
/// never answered (presumed dead), for the engine to abort once it has
/// recorded the recovery.
pub(crate) fn reopen_lock_shard<E: LockServer>(
    eng: &mut E,
    now: SimTime,
    shard: usize,
) -> Vec<TxnId> {
    let sh = eng.shell();
    for txn in sh.rec.settle_in_doubt(shard, &sh.table) {
        resolve_indoubt_commit(eng, now, shard, txn);
    }
    let LockCore { sh, locks, .. } = eng.core_mut();
    let silent = sh
        .rec
        .restore_grants(now, shard, &sh.table, &mut locks[shard], &mut sh.cal);
    sh.rec.reopen(shard);
    silent
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
            Message::AbortNotice { txn: TxnId::new(0) },
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
            Message::AbortNotice { txn: TxnId::new(0) },
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

    /// Deliver the same grant twice to a lock-server client under a fault
    /// plan (a lossy link may duplicate it): the access advances once, and
    /// one think timer is scheduled.
    fn duplicate_grant_is_consumed_once<E: LockServer>(mut eng: E) {
        let client = ClientId::new(0);
        let sh = eng.shell();
        assert!(sh.rec.faults_on);
        let txn = sh.clients[0].begin_txn(&sh.generator, &mut sh.table, SimTime::ZERO);
        let item = sh.clients[0].txn().spec.access(0).0;
        let grant = Message::SGrant {
            txn,
            item,
            version: 7,
        };
        eng.on_client_msg(SimTime::new(10), client, grant.clone());
        eng.on_client_msg(SimTime::new(12), client, grant);
        let sh = eng.shell();
        let active = sh.clients[0].txn();
        assert_eq!(active.granted, 1);
        assert_eq!(active.versions, [7]);
        let mut think_timers = 0;
        while let Some((_, ev)) = sh.cal.pop() {
            if matches!(ev, Ev::Timer { kind: TimerKind::ThinkDone(t), .. } if t == txn) {
                think_timers += 1;
            }
        }
        assert_eq!(think_timers, 1);
    }

    fn lossy(kind: crate::config::ProtocolKind) -> EngineConfig {
        let mut cfg = EngineConfig::table1(kind, 4, 50, 0.5);
        cfg.faults = Some(FaultPlan::message_loss(0.05));
        cfg
    }

    #[test]
    fn s2pl_duplicate_grant_is_consumed_once() {
        let cfg = lossy(crate::config::ProtocolKind::S2pl);
        duplicate_grant_is_consumed_once(crate::s2pl::S2plEngine::new(cfg));
    }

    #[test]
    fn c2pl_duplicate_grant_is_consumed_once() {
        let cfg = lossy(crate::config::ProtocolKind::C2pl);
        duplicate_grant_is_consumed_once(crate::c2pl::C2plEngine::new(cfg));
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
