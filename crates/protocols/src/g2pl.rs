//! The group two-phase locking (g-2PL) engine — the paper's contribution.
//!
//! # Protocol mechanics (§3.2–3.4)
//!
//! The server owns every item's *home* state. While an item is checked
//! out, new requests for it accumulate in its collection window. When the
//! item comes home, the window closes: pending requests are ordered into a
//! forward list (FL) — consistently with the global precedence DAG when
//! deadlock avoidance is on — and the item is dispatched to the list's
//! first segment. From then on the item migrates client-to-client: every
//! committing (or aborted) holder forwards the item + FL to the next
//! segment, merging its lock release with the successor's lock grant; the
//! final holder returns the item to the server, which closes the next
//! window.
//!
//! Reader groups (maximal runs of shared entries) hold the item
//! concurrently; each reader sends its release to the writer that follows
//! the group (or to the server when the group is the list's tail). Under
//! MR1W (§3.4) that writer receives the data *together with* the readers
//! and computes concurrently, but may not pass its updates on until every
//! reader of the group has released.
//!
//! # Deadlocks
//!
//! Same-window deadlocks are *avoided* by the consistent-reordering rule
//! (§3.3). Cross-window deadlocks — including the read-only kind the
//! paper highlights — are *detected* on a waits-for graph built from the
//! item states and resolved by aborting a victim.
//!
//! ## Abort semantics
//!
//! The server's abort decision is authoritative at decision time: the
//! victim is marked `Aborting` immediately (excluding it from further
//! waits-for analysis), and any data that reaches its client afterwards
//! passes straight through instead of being granted — so a victim can
//! never "escape" by committing while the notice is in flight. How
//! quickly the abort's *effects* propagate (the notice, the migration of
//! the victim's held items) is governed by [`AbortEffect`]; see that
//! type for why the default matches the paper's instant-abort simulator
//! and what the faithful message accounting changes.

use crate::config::{AbortEffect, EngineConfig, G2plOpts, ProtocolKind};
use crate::cycle::CycleFinder;
use crate::history::{AccessRecord, CommitRecord};
use crate::metrics::RunMetrics;
use crate::runtime::{
    run, ClientPhase, Ev, HoldReport, Labels, Message, Protocol, Shell, TimerKind, TxnStatus,
    CTRL_BYTES,
};
use crate::tracelog::TraceKind;
use g2pl_fwdlist::window::PendingReq;
use g2pl_fwdlist::{CollectionWindow, FlEntry, ForwardList, PrecedenceDag, Segment};
use g2pl_lockmgr::LockMode;
use g2pl_simcore::{ClientId, ItemId, SimTime, SiteId, Slab, TxnId, Version};
use g2pl_wal::{LogRecord, ServerRecord};
use std::collections::BTreeMap;
use std::rc::Rc;

/// Accounting labels of the messages the shared code sends.
const LABELS: Labels = Labels {
    lock_request: "g2pl.lock_request",
    abort_notice: "g2pl.abort_notice",
    commit_query: "g2pl.commit_query",
    commit_verdict: "g2pl.commit_verdict",
    reregister_req: "g2pl.reregister_req",
    prepare_ack: "g2pl.prepare_ack",
};

/// Per-entry size of a forward list inside a message, in bytes.
const FL_ENTRY_BYTES: u64 = 16;

/// State of one dispatched forward list.
struct OutState {
    fl: Rc<ForwardList>,
    /// Oracle flag per entry: has this entry forwarded/released its hold?
    completed: Vec<bool>,
    /// True while every entry of the list is a reader (enables the
    /// read-expansion variant).
    all_readers: bool,
    /// Releases still expected from a trailing reader group (0 when the
    /// list ends in a writer).
    final_releases_left: usize,
    /// Home version the list was dispatched from; lease recovery re-bases
    /// the redispatch on this plus the list's committed writers.
    base_version: Version,
    /// Last time the checkout made observable progress (an entry
    /// completed, or a trailing release landed); drives the lease check.
    last_progress: SimTime,
    /// `from_pos` of every trailing-reader release already counted at the
    /// server (a duplicated release must not double-decrement).
    final_released: Vec<usize>,
}

/// Server-side state of one item.
struct ItemState {
    /// Dispatch epoch, bumped on every (re-)dispatch: messages of a
    /// superseded checkout identify themselves as stale and are dropped.
    epoch: u64,
    out: Option<OutState>,
    window: CollectionWindow,
    /// True while the item is home but its window close is deferred by a
    /// pending `WindowTimer` (the `dispatch_delay` mode).
    holding: bool,
    /// Committed writers of this item whose versions have not yet come
    /// home — their sites' WAL records stay live until then.
    unpermanent_writers: Vec<TxnId>,
}

/// Client-side state of one forward-list entry: the item copy (or the
/// anticipation of it) held at a client for one transaction.
struct Hold {
    fl: Rc<ForwardList>,
    pos: usize,
    /// Dispatch epoch of `fl` (see [`Message::GData`]): lower-epoch
    /// messages for this hold are stale and dropped; a higher epoch
    /// supersedes the hold (a lease-expiry redispatch).
    epoch: u64,
    mode: LockMode,
    version: Version,
    data_arrived: bool,
    releases_recv: usize,
    releases_expected: usize,
    /// `from_pos` of every reader release counted so far (a duplicated
    /// release must not double-count).
    releases_from: Vec<usize>,
    granted: bool,
    forwarded: bool,
}

impl Hold {
    fn new(fl: Rc<ForwardList>, pos: usize, epoch: u64) -> Self {
        let mode = fl.entry(pos).mode;
        let releases_expected =
            if mode.is_exclusive() && pos > 0 && fl.entry(pos - 1).mode.is_shared() {
                match fl.segment_of(pos - 1) {
                    Segment::Readers(r) => r.len(),
                    Segment::Writer(_) => unreachable!("pos - 1 is shared"),
                }
            } else {
                0
            };
        Hold {
            fl,
            pos,
            epoch,
            mode,
            version: 0,
            data_arrived: false,
            releases_recv: 0,
            releases_expected,
            releases_from: Vec::new(),
            granted: false,
            forwarded: false,
        }
    }

    /// All gate messages received: the hold can be forwarded onward once
    /// the transaction finishes.
    fn gates_passed(&self) -> bool {
        self.data_arrived && self.releases_recv >= self.releases_expected
    }

    /// Whether the owning transaction may be granted access (MR1W lets a
    /// writer start on data arrival, before the reader releases).
    fn grant_ready(&self, mr1w: bool) -> bool {
        if mr1w && self.mode.is_exclusive() {
            self.data_arrived
        } else {
            self.gates_passed()
        }
    }
}

/// The g-2PL simulation engine.
pub struct G2plEngine {
    /// The shared state. Its fault domains' lease period bounds each
    /// dispatched checkout.
    sh: Shell,
    opts: G2plOpts,
    items: Vec<ItemState>,
    /// Client-side holds, slab-indexed by transaction: each slot is the
    /// (few) forward-list entries that transaction holds, in arrival
    /// order. A transaction touches a handful of items, so a linear scan
    /// of its slot beats any keyed map.
    holds: Slab<Vec<(ItemId, Hold)>>,
    /// Reverse index: the items on whose *dispatched* forward list each
    /// transaction still has an uncompleted entry, in push order. Drives
    /// the lazy waits-for search without rebuilding a global graph per
    /// event.
    entries_of: Slab<Vec<ItemId>>,
    /// Per-client knowledge of dead forward-list entries, fed by GPrune
    /// multicasts; consulted when forwarding to skip aborted writers.
    /// Outer index = client, slab index = pruned txn, payload = items.
    pruned: Vec<Slab<Vec<ItemId>>>,
    dag: PrecedenceDag,
    /// The item each transaction has a request pending on, if any.
    pending_of: Slab<Option<ItemId>>,
    /// Reusable DFS state for deadlock detection.
    finder: CycleFinder,
    /// Reusable buffer of probe starts for post-dispatch detection.
    start_scratch: Vec<TxnId>,
    arrival_seq: u64,
    max_fl_len: usize,
    window_closes: u64,
    /// Coordinator-side phase-2 state: committed multi-home transactions
    /// whose [`Message::Decide`] is still unacknowledged, mapped to the
    /// bitmask of shards that still owe a [`Message::DecideAck`]. The
    /// decision itself is durable (commit oracle + client WAL); this map
    /// only drives retransmission.
    pending_decides: BTreeMap<TxnId, u64>,
}

impl G2plEngine {
    /// Build an engine for `cfg` (whose protocol must be g-2PL).
    pub fn new(cfg: EngineConfig) -> Self {
        let ProtocolKind::G2pl(opts) = cfg.protocol.clone() else {
            // lint:allow(L3): constructor precondition, caught by config validation
            panic!("G2plEngine requires a g-2PL configuration");
        };
        let items = (0..cfg.num_items())
            .map(|_| ItemState {
                epoch: 0,
                out: None,
                window: CollectionWindow::new(),
                holding: false,
                unpermanent_writers: Vec::new(),
            })
            .collect();
        G2plEngine {
            opts,
            items,
            holds: Slab::new(),
            entries_of: Slab::new(),
            pruned: (0..cfg.num_clients).map(|_| Slab::new()).collect(),
            dag: PrecedenceDag::new(),
            pending_of: Slab::new(),
            finder: CycleFinder::default(),
            start_scratch: Vec::new(),
            arrival_seq: 0,
            max_fl_len: 0,
            window_closes: 0,
            pending_decides: BTreeMap::new(),
            sh: Shell::new(cfg, LABELS),
        }
    }

    /// Run to completion and report metrics.
    pub fn run(self) -> RunMetrics {
        run(self)
    }
    /// The hold of `(item, txn)`, if the data (or its anticipation) is at
    /// the client.
    fn hold(&self, item: ItemId, txn: TxnId) -> Option<&Hold> {
        self.holds
            .get(txn.index())?
            .iter()
            .find(|(i, _)| *i == item)
            .map(|(_, h)| h)
    }

    fn hold_mut(&mut self, item: ItemId, txn: TxnId) -> Option<&mut Hold> {
        self.holds
            .get_mut(txn.index())?
            .iter_mut()
            .find(|(i, _)| *i == item)
            .map(|(_, h)| h)
    }

    /// The hold of `(item, txn)`, created from `(fl, pos)` on first
    /// sight. A higher `epoch` than the existing hold's means a
    /// lease-expiry redispatch superseded the list the hold was created
    /// from: the hold is re-based on the new list (keeping any grant the
    /// transaction already observed) so its gate accounting and its
    /// eventual forward follow the live list, not the dead one.
    fn hold_or_insert(
        &mut self,
        item: ItemId,
        txn: TxnId,
        fl: &Rc<ForwardList>,
        pos: usize,
        epoch: u64,
    ) -> &mut Hold {
        let v = self.holds.ensure(txn.index());
        let at = match v.iter().position(|(i, _)| *i == item) {
            Some(at) => {
                if v[at].1.epoch < epoch {
                    debug_assert!(self.sh.rec.faults_on, "epoch moved on a reliable network");
                    let mut nh = Hold::new(Rc::clone(fl), pos, epoch);
                    nh.granted = v[at].1.granted;
                    nh.forwarded = v[at].1.forwarded;
                    v[at].1 = nh;
                }
                at
            }
            None => {
                v.push((item, Hold::new(Rc::clone(fl), pos, epoch)));
                v.len() - 1
            }
        };
        &mut v[at].1
    }

    // ---- client side ----

    /// Open the voting round of a multi-home commitment: ask every
    /// involved shard to force a prepared record for `txn`. g-2PL
    /// versions migrate client-to-client, so the vote carries no write
    /// slice — it only pins the shard's promise that the decision will
    /// be applied (durably recorded) once the coordinator decides.
    fn begin_prepare(&mut self, client: ClientId, txn: TxnId, involved: u64) {
        let c = &mut self.sh.clients[client.index()];
        c.txn_mut().phase = ClientPhase::CommitWait;
        c.retry_progress();
        debug_assert!(c.pending_commits.is_empty());
        for shard in 0..self.sh.cfg.num_shards() {
            if involved & (1u64 << shard) == 0 {
                continue;
            }
            let msg = Message::Prepare {
                txn,
                writes: Vec::new(),
                involved,
            };
            self.sh.clients[client.index()]
                .pending_commits
                .push((shard, msg.clone()));
            self.sh.net.send(
                &mut self.sh.cal,
                client.into(),
                SiteId::server(shard),
                "g2pl.prepare",
                CTRL_BYTES,
                msg,
            );
        }
        self.sh.clients[client.index()].arm_retry(&mut self.sh.cal, self.sh.rec.retry_base);
    }

    /// Ship the commit decision to every involved shard and keep
    /// retransmitting until each has durably applied it. The decision is
    /// already durable at the coordinator (commit oracle + client WAL),
    /// so phase 2 runs detached from the transaction slot — the client
    /// moves on to its next transaction meanwhile.
    fn send_decides(&mut self, client: ClientId, txn: TxnId, involved: u64) {
        self.pending_decides.insert(txn, involved);
        for shard in 0..self.sh.cfg.num_shards() {
            if involved & (1u64 << shard) == 0 {
                continue;
            }
            self.sh.net.send(
                &mut self.sh.cal,
                client.into(),
                SiteId::server(shard),
                "g2pl.decide",
                CTRL_BYTES,
                Message::Decide { txn },
            );
        }
        self.sh.cal.schedule_in(
            self.sh.rec.retry_base,
            Ev::Timer {
                client,
                kind: TimerKind::DecideRetry(txn),
            },
        );
    }

    fn commit(&mut self, now: SimTime, client: ClientId, txn: TxnId) {
        let active = self.sh.clients[client.index()]
            .txn
            .take()
            // lint:allow(L3): commit is only reachable from a client with an active txn
            .expect("committing client has a transaction");
        debug_assert_eq!(active.id, txn);
        if self.sh.rec.faults_on {
            self.sh.clients[client.index()].retry_progress();
        }
        self.sh.table.set_status(txn, TxnStatus::Committed);
        let measured = self
            .sh
            .collector
            .on_commit_sized(now.since(active.start), active.spec.len());
        // Every hold forwards exactly once, so exactly one release arrival
        // (client- or server-bound) is expected per accessed item.
        self.sh
            .spans
            .commit_local(now, txn, active.spec.len() as u32, measured);
        self.sh
            .trace
            .record(now, TraceKind::Committed, Some(txn), None, client.into());

        if let Some(h) = &mut self.sh.history {
            let accesses = active
                .spec
                .accesses
                .iter()
                .zip(&active.versions)
                .map(|(&(item, mode), &observed)| AccessRecord {
                    item,
                    mode,
                    version: if mode.is_write() {
                        observed + 1
                    } else {
                        observed
                    },
                })
                .collect();
            h.push(CommitRecord {
                txn,
                at: now,
                accesses,
            });
        }

        if let Some(wal) = &mut self.sh.wal {
            let log = &mut wal[client.index()];
            for (&(item, mode), &observed) in active.spec.accesses.iter().zip(&active.versions) {
                if mode.is_write() {
                    log.append(LogRecord::Update {
                        txn,
                        item,
                        old: observed,
                        new: observed + 1,
                    });
                    // The new version is only on this site until the item
                    // migrates home.
                    self.items[item.index()].unpermanent_writers.push(txn);
                }
            }
            log.append(LogRecord::Commit { txn });
        }

        // Forward (or arm the gated forward of) every held item. §3.2:
        // "When a transaction commits, the client sends the new version of
        // the committed data items to the clients next on the respective
        // forward lists."
        for &(item, _) in &active.spec.accesses {
            self.try_forward(now, item, txn);
        }
        // The committed transaction no longer constrains future windows.
        self.dag.remove_txn(txn);

        self.sh.schedule_idle(client);
    }

    /// Forward the hold of `(item, txn)` if all gates have passed and the
    /// transaction is finished (committed, aborting, or aborted).
    fn try_forward(&mut self, now: SimTime, item: ItemId, txn: TxnId) {
        let status = self.sh.table.status(txn);
        let Some(hold) = self.hold_mut(item, txn) else {
            return; // data not yet arrived; pass-through happens on arrival
        };
        if hold.forwarded || !hold.gates_passed() || status == TxnStatus::Active {
            return;
        }
        hold.forwarded = true;
        let fl = Rc::clone(&hold.fl);
        let pos = hold.pos;
        let epoch = hold.epoch;
        let mode = hold.mode;
        let out_version = if mode.is_exclusive() && status == TxnStatus::Committed {
            hold.version + 1
        } else {
            hold.version
        };
        let client = fl.entry(pos).client;
        let instant =
            self.sh.cfg.abort_effect == AbortEffect::Instant && status != TxnStatus::Committed;

        // Oracle completion flag for deadlock analysis; completing an
        // entry is the progress the item lease watches for.
        if let Some(out) = &mut self.items[item.index()].out {
            if let Some(p) = out.fl.position_of(txn) {
                out.completed[p] = true;
                out.last_progress = now;
            }
        }
        if let Some(v) = self.entries_of.get_mut(txn.index()) {
            v.retain(|&i| i != item);
        }
        self.sh.trace.record(
            now,
            TraceKind::Forwarded,
            Some(txn),
            Some(item),
            client.into(),
        );

        if mode.is_shared() {
            // Readers release to the writer after their group, or to the
            // server when the group is the list's tail.
            let group = fl.segment_of(pos);
            let to_writer = fl.next_writer_at_or_after(group.end());
            let (to_site, to_pos, bytes) = match to_writer {
                Some(w) => {
                    // Under MR1W the writer already has the data, so the
                    // release is a pure token; otherwise it carries data —
                    // a real migration hop toward the writer.
                    let bytes = if self.opts.mr1w {
                        CTRL_BYTES
                    } else {
                        self.sh.spans.hop_departed(now, fl.entry(w).txn, item);
                        CTRL_BYTES + self.sh.cfg.item_size_bytes
                    };
                    (SiteId::Client(fl.entry(w).client), Some(w), bytes)
                }
                None => (
                    self.sh.cfg.shard_site(item),
                    None,
                    CTRL_BYTES + self.sh.cfg.item_size_bytes,
                ),
            };
            let msg = Message::GReaderRelease {
                item,
                version: out_version,
                fl,
                from_pos: pos,
                to_pos,
                epoch,
            };
            if instant {
                self.sh.net.send_with_delay(
                    &mut self.sh.cal,
                    client.into(),
                    to_site,
                    "g2pl.reader_release",
                    bytes,
                    msg,
                    SimTime::ZERO,
                );
            } else {
                self.sh.net.send(
                    &mut self.sh.cal,
                    client.into(),
                    to_site,
                    "g2pl.reader_release",
                    bytes,
                    msg,
                );
            }
        } else {
            // Writers dispatch the next segment, or return the item home.
            // Consecutive successor *writers* known (via GPrune) to be
            // dead are skipped: forwarding through an aborted client
            // would waste a full serial network hop. Dead readers cost
            // nothing serial (copies travel in parallel and their
            // release is an immediate pass-through), and skipping them
            // would break the release accounting, so only writers are
            // skipped.
            let mut next = pos + 1;
            while next < fl.len()
                && fl.entry(next).mode.is_exclusive()
                && self.pruned[client.index()]
                    .get(fl.entry(next).txn.index())
                    .is_some_and(|v| v.contains(&item))
            {
                next += 1;
            }
            match fl.segment_at(next) {
                Some(_) => self.send_segment_delayed(
                    now,
                    client.into(),
                    item,
                    out_version,
                    &fl,
                    next,
                    Some(txn),
                    instant,
                    epoch,
                ),
                None => {
                    let msg = Message::GReturn {
                        item,
                        version: out_version,
                        txn,
                        epoch,
                    };
                    if instant {
                        self.sh.net.send_with_delay(
                            &mut self.sh.cal,
                            client.into(),
                            self.sh.cfg.shard_site(item),
                            "g2pl.return",
                            CTRL_BYTES + self.sh.cfg.item_size_bytes,
                            msg,
                            SimTime::ZERO,
                        );
                    } else {
                        self.sh.net.send(
                            &mut self.sh.cal,
                            client.into(),
                            self.sh.cfg.shard_site(item),
                            "g2pl.return",
                            CTRL_BYTES + self.sh.cfg.item_size_bytes,
                            msg,
                        );
                    }
                }
            }
        }
    }

    /// Ship data to every member of the segment starting at `seg_start`,
    /// plus — under MR1W — the writer that follows a reader group.
    #[allow(clippy::too_many_arguments)]
    fn send_segment(
        &mut self,
        now: SimTime,
        from: SiteId,
        item: ItemId,
        version: Version,
        fl: &Rc<ForwardList>,
        seg_start: usize,
        epoch: u64,
    ) {
        self.send_segment_delayed(now, from, item, version, fl, seg_start, None, false, epoch);
    }

    /// `from_txn` is the forwarding holder on a client-to-client hop
    /// (`None` on a server dispatch). Its release rides exactly one of the
    /// outgoing messages — the segment head — so the receiver-side release
    /// accounting sees one arrival per hold even for multi-copy segments.
    #[allow(clippy::too_many_arguments)]
    fn send_segment_delayed(
        &mut self,
        now: SimTime,
        from: SiteId,
        item: ItemId,
        version: Version,
        fl: &Rc<ForwardList>,
        seg_start: usize,
        from_txn: Option<TxnId>,
        instant: bool,
        epoch: u64,
    ) {
        let seg = fl
            .segment_at(seg_start)
            // lint:allow(L3): callers advance seg_start only to valid segment starts
            .expect("send_segment called past the end of the list");
        let data_bytes =
            CTRL_BYTES + self.sh.cfg.item_size_bytes + fl.len() as u64 * FL_ENTRY_BYTES;
        // The MR1W extra copy to the writer after a reader group chains
        // onto the segment's own range, so no target list is materialised.
        let extra_writer = match (&seg, self.opts.mr1w) {
            (Segment::Readers(r), true) => fl.next_writer_at_or_after(r.end),
            _ => None,
        };
        for pos in seg.range().chain(extra_writer) {
            let to = fl.entry(pos).client;
            self.sh.trace.record(
                now,
                TraceKind::Dispatched,
                Some(fl.entry(pos).txn),
                Some(item),
                to.into(),
            );
            self.sh.spans.hop_departed(now, fl.entry(pos).txn, item);
            let msg = Message::GData {
                item,
                version,
                fl: Rc::clone(fl),
                pos,
                from_txn: if pos == seg_start { from_txn } else { None },
                epoch,
            };
            if instant {
                self.sh.net.send_with_delay(
                    &mut self.sh.cal,
                    from,
                    to.into(),
                    "g2pl.data",
                    data_bytes,
                    msg,
                    SimTime::ZERO,
                );
            } else {
                self.sh.net.send(
                    &mut self.sh.cal,
                    from,
                    to.into(),
                    "g2pl.data",
                    data_bytes,
                    msg,
                );
            }
        }
    }

    /// A gate message (data or reader release) for `(item, txn)` arrived:
    /// grant the transaction if it is now ready, or forward the hold if
    /// the transaction has already finished.
    fn after_gate_update(&mut self, now: SimTime, client: ClientId, item: ItemId, txn: TxnId) {
        if self.sh.table.status(txn) != TxnStatus::Active {
            self.try_forward(now, item, txn);
            return;
        }
        let mr1w = self.opts.mr1w;
        // lint:allow(L3): the hold was inserted by the caller one frame up
        let hold = self.hold_mut(item, txn).expect("just updated");
        if hold.granted {
            // Already granted: this gate message can only be a reader
            // release completing a pending MR1W commit certification.
            if self.sh.clients[client.index()]
                .txn
                .as_ref()
                .is_some_and(|a| a.id == txn && a.phase == ClientPhase::CommitWait)
            {
                self.try_commit(now, client, txn);
            }
            return;
        }
        if !hold.grant_ready(mr1w) {
            return;
        }
        hold.granted = true;
        let version = hold.version;
        let active = self.sh.clients[client.index()].txn();
        debug_assert_eq!(active.id, txn, "hold grant for a foreign transaction");
        debug_assert_eq!(
            active.spec.access(active.granted).0,
            item,
            "grant out of request order"
        );
        let wait = now.since(active.request_sent_at);
        self.sh.collector.on_access_wait(wait);
        self.sh.trace.record(
            now,
            TraceKind::Granted,
            Some(txn),
            Some(item),
            client.into(),
        );
        self.sh.spans.granted(now, txn, item);
        self.sh.begin_think(client, txn, version);
    }

    fn on_abort_notice(&mut self, now: SimTime, client: ClientId, txn: TxnId) {
        match self.sh.table.status(txn) {
            TxnStatus::Committed => return, // the commit won the race
            TxnStatus::Aborted => return,
            TxnStatus::Active | TxnStatus::Aborting => {}
        }
        self.sh.table.set_status(txn, TxnStatus::Aborted);
        if let Some(wal) = &mut self.sh.wal {
            wal[client.index()].append(LogRecord::Abort { txn });
        }
        self.sh
            .trace
            .record(now, TraceKind::Aborted, Some(txn), None, client.into());
        self.sh.spans.aborted(now, txn);

        let c = &mut self.sh.clients[client.index()];
        if c.txn.as_ref().is_some_and(|a| a.id == txn) {
            let active = c.txn.take().expect("just checked"); // lint:allow(L3): is_some_and above
            if self.sh.rec.faults_on {
                c.retry_progress();
            }
            // An abort during the voting round withdraws the outstanding
            // prepares (abort_victim retired the shards' votes).
            c.pending_commits
                .retain(|(_, m)| !matches!(m, Message::Prepare { txn: t, .. } if *t == txn));
            self.sh.collector.on_abort_diag(
                active.spec.is_read_only(),
                now.since(active.start),
                active.granted,
            );
            self.sh.schedule_idle(client);
            // Pass every satisfied hold straight through; unsatisfied
            // ones pass through when their gates fill.
            for &(item, _) in &active.spec.accesses {
                self.try_forward(now, item, txn);
            }
        }
    }

    // ---- server crash recovery ----

    // ---- server side ----

    fn on_request(
        &mut self,
        now: SimTime,
        txn: TxnId,
        client: ClientId,
        item: ItemId,
        mode: LockMode,
    ) {
        self.sh.spans.req_arrived(now, txn, item);
        let entry = FlEntry::new(txn, client, mode);
        let arrival = self.arrival_seq;
        self.arrival_seq += 1;
        let st = &mut self.items[item.index()];
        match &mut st.out {
            None if st.holding => {
                // The window-close of a returned item is deferred: join
                // the window; the pending WindowTimer will dispatch.
                st.window.push(PendingReq {
                    entry,
                    arrival,
                    restarts: 0,
                });
                *self.pending_of.ensure(txn.index()) = Some(item);
            }
            None => {
                // Item at home: the window is empty by invariant, so this
                // request forms a degenerate single-entry forward list and
                // is dispatched immediately ("initially at start-up time
                // and during periods of extremely light loading, the
                // forward-list will contain a single client").
                debug_assert!(st.window.is_empty(), "home item with pending window");
                self.dispatch(
                    now,
                    item,
                    vec![PendingReq {
                        entry,
                        arrival,
                        restarts: 0,
                    }],
                );
            }
            Some(out) if self.opts.expand_reads && mode.is_shared() && out.all_readers => {
                // Read-expansion variant (§3.3): the dispatched list is
                // all-readers, so the server still holds the current
                // version and can join the new reader onto the dispatched
                // list immediately.
                let fl = Rc::make_mut(&mut out.fl);
                let pos = fl.len();
                fl.push(entry);
                self.sh.trace.record(
                    now,
                    TraceKind::FlExtended,
                    Some(txn),
                    Some(item),
                    self.sh.cfg.shard_site(item),
                );
                out.completed.push(false);
                out.final_releases_left += 1;
                out.last_progress = now;
                self.entries_of.ensure(txn.index()).push(item);
                let fl = Rc::clone(&out.fl);
                let version = self.sh.versions[item.index()];
                let epoch = st.epoch;
                let data_bytes =
                    CTRL_BYTES + self.sh.cfg.item_size_bytes + fl.len() as u64 * FL_ENTRY_BYTES;
                self.sh.trace.record(
                    now,
                    TraceKind::Dispatched,
                    Some(txn),
                    Some(item),
                    client.into(),
                );
                self.sh.spans.dispatched(now, txn, item);
                self.sh.spans.hop_departed(now, txn, item);
                self.sh.net.send(
                    &mut self.sh.cal,
                    self.sh.cfg.shard_site(item),
                    client.into(),
                    "g2pl.data",
                    data_bytes,
                    Message::GData {
                        item,
                        version,
                        fl,
                        pos,
                        from_txn: None,
                        epoch,
                    },
                );
            }
            Some(_) => {
                st.window.push(PendingReq {
                    entry,
                    arrival,
                    restarts: 0,
                });
                *self.pending_of.ensure(txn.index()) = Some(item);
                // §4: detection runs when a request cannot be granted.
                self.detect_deadlocks_from(now, &[txn]);
            }
        }
    }

    /// The item is home: every committed version of it is now permanent
    /// at the server, so the writers' sites may garbage-collect.
    fn mark_writers_permanent(&mut self, item: ItemId) {
        let writers = std::mem::take(&mut self.items[item.index()].unpermanent_writers);
        if let Some(wal) = &mut self.sh.wal {
            for txn in writers {
                let site = self.sh.table.info(txn).client;
                wal[site.index()].mark_permanent(txn, item);
            }
        }
    }

    /// Close the (possibly empty) window of a just-returned item, or
    /// defer the close when `dispatch_delay` is configured.
    // lint:allow(L5): the close's only observable outcome is a dispatch, which records TraceKind::Dispatched itself; an empty or deferred close is a no-op by design
    fn close_window(&mut self, now: SimTime, item: ItemId) {
        let st = &mut self.items[item.index()];
        debug_assert!(st.out.is_none());
        if let Some(delay) = self.opts.dispatch_delay {
            if !st.holding {
                st.holding = true;
                self.sh
                    .cal
                    .schedule_in(SimTime::new(delay), Ev::WindowTimer { item });
            }
            return;
        }
        if st.window.is_empty() {
            return; // item stays home
        }
        let pending = st.window.drain(self.opts.fl_cap);
        self.dispatch(now, item, pending);
    }

    /// The deferred window close fires: dispatch whatever has gathered.
    fn on_window_timer(&mut self, now: SimTime, item: ItemId) {
        let st = &mut self.items[item.index()];
        if !st.holding {
            // A timer from a dispatch-delay hold that died with a server
            // crash (the crash clears `holding`).
            debug_assert!(
                self.sh.rec.srv_faults_on,
                "window timer without a held item"
            );
            return;
        }
        st.holding = false;
        if st.out.is_some() {
            // Impossible by construction (the item cannot leave home while
            // holding), but stay defensive.
            return;
        }
        if st.window.is_empty() {
            return; // nothing gathered: the item simply sits home now
        }
        let pending = st.window.drain(self.opts.fl_cap);
        self.dispatch(now, item, pending);
    }

    /// The per-checkout lease fired (faults only). If the dispatched list
    /// made progress within the last lease period the check re-arms for
    /// the remainder. Otherwise the first uncompleted entry is presumed
    /// dead — everything before it completed, so it alone blocks the
    /// list — its transaction is aborted, and the surviving suffix is
    /// reconstructed and re-dispatched from the last durable version
    /// (the dispatch base plus the list's committed writers, whose
    /// updates are recoverable from their sites' logs).
    fn on_lease_check(&mut self, now: SimTime, item: ItemId, epoch: u64) {
        {
            let st = &self.items[item.index()];
            if st.epoch != epoch || st.out.is_none() {
                return; // the checkout this lease covered is finished
            }
            // lint:allow(L3): is_some checked above
            let out = st.out.as_ref().expect("checked above");
            let idle = now.since(out.last_progress);
            if idle < self.sh.rec.lease {
                self.sh.cal.schedule_in(
                    self.sh.rec.lease.since(idle),
                    Ev::LeaseCheck { item, epoch },
                );
                return;
            }
            self.sh.rec.fsum.lease_expiries += 1;
            self.sh.rec.fsum.recovery_stall += idle.as_f64();
        }
        // lint:allow(L3): is_some checked above
        let out = self.items[item.index()].out.take().expect("checked above");
        self.clear_entry_index(&out, item);
        // The victim cannot be committed: a commit forwards its holds
        // synchronously, which marks the entry completed at send time.
        let victim = out
            .completed
            .iter()
            .position(|&done| !done)
            .map(|p| out.fl.entry(p).txn);
        self.sh.trace.record(
            now,
            TraceKind::LeaseExpired,
            victim,
            Some(item),
            self.sh.cfg.shard_site(item),
        );
        match victim.map(|t| (t, self.sh.table.status(t))) {
            Some((t, TxnStatus::Active)) => self.abort_victim(now, t),
            Some((t, TxnStatus::Aborting)) => {
                // Already a deadlock victim; its notice may have been
                // lost, so answer the silence with a fresh one.
                let shard = self.sh.cfg.shard_of(item) as usize;
                self.sh.send_abort_notice(shard, t);
            }
            _ => {}
        }

        // Surviving suffix: every other uncompleted, still-live entry, in
        // list order.
        let mut survivors = Vec::new();
        for (p, e) in out.fl.entries().iter().enumerate() {
            if out.completed[p] || Some(e.txn) == victim {
                continue;
            }
            if self.sh.table.status(e.txn) != TxnStatus::Active {
                continue;
            }
            let arrival = self.arrival_seq;
            self.arrival_seq += 1;
            survivors.push(PendingReq {
                entry: *e,
                arrival,
                restarts: 0,
            });
        }

        let committed_writes = out
            .fl
            .entries()
            .iter()
            .filter(|e| {
                e.mode.is_exclusive() && self.sh.table.status(e.txn) == TxnStatus::Committed
            })
            .count() as Version;
        if cfg!(debug_assertions) {
            // The redispatch base leans on the committed writers' site
            // logs: none of them may have been collected before its
            // version became permanent at the server.
            if let Some(wal) = &self.sh.wal {
                for e in out.fl.entries().iter().filter(|e| {
                    e.mode.is_exclusive() && self.sh.table.status(e.txn) == TxnStatus::Committed
                }) {
                    let site = self.sh.table.info(e.txn).client;
                    debug_assert!(
                        wal[site.index()].awaits_permanence(e.txn),
                        "committed write of {} on {item} collected before permanence",
                        e.txn
                    );
                }
            }
        }
        self.sh.versions[item.index()] = out.base_version + committed_writes;

        self.sh.rec.fsum.redispatches += 1;
        self.sh.trace.record(
            now,
            TraceKind::Redispatch,
            victim,
            Some(item),
            self.sh.cfg.shard_site(item),
        );
        if survivors.is_empty() {
            // No live suffix: the item simply comes home.
            let shard = self.sh.cfg.shard_of(item) as usize;
            if let Some(slog) = self.sh.rec.slog.get_mut(shard) {
                let version = self.sh.versions[item.index()];
                slog.append(ServerRecord::Home { item, version });
            }
            self.mark_writers_permanent(item);
            self.close_window(now, item);
        } else {
            self.dispatch(now, item, survivors);
        }
    }

    /// Order `pending` into a forward list and send the item out.
    fn dispatch(&mut self, now: SimTime, item: ItemId, pending: Vec<PendingReq>) {
        for req in &pending {
            if let Some(slot) = self.pending_of.get_mut(req.entry.txn.index()) {
                // Only clear a request pending on *this* item: a
                // lease-recovery redispatch can carry a survivor whose
                // pending request is on some other item's window.
                if *slot == Some(item) {
                    *slot = None;
                }
            }
        }
        let fl = self.opts.ordering.order(pending, &mut self.dag);
        debug_assert!(!fl.is_empty());
        self.window_closes += 1;
        self.max_fl_len = self.max_fl_len.max(fl.len());
        self.sh.trace.record(
            now,
            TraceKind::WindowClosed,
            None,
            Some(item),
            self.sh.cfg.shard_site(item),
        );
        self.sh.spans.window_closed(now, item, fl.len());
        for e in fl.entries() {
            self.sh.trace.record(
                now,
                TraceKind::FlOrdered,
                Some(e.txn),
                Some(item),
                self.sh.cfg.shard_site(item),
            );
            // Every list member leaves the server queue at window close;
            // entries past the first segment then sit in Migration until
            // their hop departs from the preceding holder.
            self.sh.spans.dispatched(now, e.txn, item);
        }

        let final_releases = match fl.segments().last() {
            Some(Segment::Readers(r)) => r.len(),
            _ => 0,
        };
        let all_readers = fl.entries().iter().all(|e| e.mode.is_shared());
        let fl = Rc::new(fl);
        for e in fl.entries() {
            self.entries_of.ensure(e.txn.index()).push(item);
        }
        let version = self.sh.versions[item.index()];
        let st = &mut self.items[item.index()];
        st.epoch += 1;
        let epoch = st.epoch;
        st.out = Some(OutState {
            fl: Rc::clone(&fl),
            completed: vec![false; fl.len()],
            all_readers,
            final_releases_left: final_releases,
            base_version: version,
            last_progress: now,
            final_released: Vec::new(),
        });
        if self.sh.rec.faults_on {
            // One lease per checkout: it re-arms itself while the list
            // keeps making progress and recovers it when progress stops.
            self.sh
                .cal
                .schedule_in(self.sh.rec.lease, Ev::LeaseCheck { item, epoch });
        }
        if let Some(slog) = self
            .sh
            .rec
            .slog
            .get_mut(self.sh.cfg.shard_of(item) as usize)
        {
            // Write-ahead: the list construction/reorder decision is
            // durable before the first data segment leaves the server.
            slog.append(ServerRecord::Dispatch {
                item,
                epoch,
                base: version,
                entries: fl
                    .entries()
                    .iter()
                    .map(|e| (e.txn, e.mode.is_exclusive()))
                    .collect(),
            });
        }
        self.send_segment(
            now,
            self.sh.cfg.shard_site(item),
            item,
            version,
            &fl,
            0,
            epoch,
        );

        // A dispatch creates new waits-for edges (the list's internal
        // order, plus whatever was already pending against these
        // transactions elsewhere), so it can close a cycle just like an
        // enqueue can — detection must run here too, or a deadlocked
        // group sits blocked until an unrelated request happens to probe
        // it. Every new edge involves a member of the just-dispatched
        // list or a request still pending on this item, so probing those
        // transactions covers all newly possible cycles.
        let mut starts = std::mem::take(&mut self.start_scratch);
        starts.clear();
        starts.extend(fl.entries().iter().map(|e| e.txn));
        starts.extend(
            self.items[item.index()]
                .window
                .pending()
                .iter()
                .map(|r| r.entry.txn),
        );
        self.detect_deadlocks_from(now, &starts);
        self.start_scratch = starts;
    }

    // ---- deadlock analysis ----

    /// Remove every entry-index record of a finished forward list.
    fn clear_entry_index(&mut self, out: &OutState, item: ItemId) {
        for e in out.fl.entries() {
            if let Some(v) = self.entries_of.get_mut(e.txn.index()) {
                v.retain(|&i| i != item);
            }
        }
    }

    /// The transactions `t` is currently waiting for:
    /// * a pending request waits for every uncompleted live entry of the
    ///   item's dispatched list;
    /// * an ungranted/ungated dispatched entry waits for every
    ///   uncompleted live entry before it (readers skip their own group;
    ///   an MR1W writer's *commit* is certified against its reader group,
    ///   so it still waits on the group).
    ///
    /// Computed on demand so cycle detection explores only the reachable
    /// part of the waits-for relation instead of materialising the whole
    /// graph per event. Appends to `out` (sorted and deduplicated over
    /// the appended range) instead of allocating a fresh list per node.
    fn waits_of_into(&self, t: TxnId, out: &mut Vec<TxnId>) {
        let start = out.len();
        if !self.sh.table.is_live(t) {
            return;
        }
        if let Some(x) = self.pending_of.get(t.index()).copied().flatten() {
            if let Some(o) = &self.items[x.index()].out {
                for (j, e) in o.fl.entries().iter().enumerate() {
                    if !o.completed[j] && self.sh.table.is_live(e.txn) {
                        out.push(e.txn);
                    }
                }
            }
        }
        if let Some(items) = self.entries_of.get(t.index()) {
            for &item in items {
                let Some(o) = &self.items[item.index()].out else {
                    continue;
                };
                let Some(i) = o.fl.position_of(t) else {
                    continue;
                };
                if o.completed[i] {
                    continue;
                }
                if self.hold(item, t).is_some_and(Hold::gates_passed) {
                    continue; // neither grant nor commit waits here
                }
                let skip_from = if o.fl.entry(i).mode.is_shared() {
                    o.fl.segment_of(i).range().start
                } else {
                    i
                };
                for j in 0..skip_from {
                    if !o.completed[j] {
                        let other = o.fl.entry(j).txn;
                        if self.sh.table.is_live(other) {
                            out.push(other);
                        }
                    }
                }
            }
        }
        out[start..].sort_unstable();
        let mut w = start;
        for r in start..out.len() {
            if r == start || out[r] != out[w - 1] {
                out[w] = out[r];
                w += 1;
            }
        }
        out.truncate(w);
    }

    /// Find and break every deadlock reachable from the given start
    /// transactions, re-probing a start until it is cycle-free. Uses the
    /// engine's [`CycleFinder`] so repeated probes reuse one set of DFS
    /// buffers.
    fn detect_deadlocks_from(&mut self, now: SimTime, starts: &[TxnId]) {
        let mut finder = std::mem::take(&mut self.finder);
        for &start in starts {
            loop {
                if !self.sh.table.is_live(start) {
                    break;
                }
                let this = &*self;
                let found = finder.find_cycle(start, |t, out| this.waits_of_into(t, out));
                let Some(cycle) = found else { break };
                let victim = self.sh.cfg.victim.choose(cycle, |t| {
                    self.entries_of.get(t.index()).map_or(0, Vec::len)
                });
                self.abort_victim(now, victim);
            }
        }
        self.finder = finder;
    }
}

impl Protocol for G2plEngine {
    fn shell(&mut self) -> &mut Shell {
        &mut self.sh
    }

    fn issue_access(&mut self, now: SimTime, client: ClientId, txn: TxnId, idx: usize) {
        self.sh.request_access(now, client, txn, idx);
    }

    /// Commit if every hold's gates have passed; otherwise enter
    /// `CommitWait` until the last MR1W reader release arrives. Without
    /// this certification step a writer that ran concurrently with the
    /// readers of the previous version could leak its *other* writes
    /// before those readers finish, producing non-serializable
    /// executions.
    fn try_commit(&mut self, now: SimTime, client: ClientId, txn: TxnId) {
        if self.sh.rec.faults_on && self.sh.table.status(txn) != TxnStatus::Active {
            // A server-side lease recovery chose this transaction as its
            // victim while the commit was pending; the server has already
            // redispatched the surviving suffix, so the abort wins.
            self.on_abort_notice(now, client, txn);
            return;
        }
        if self.sh.rec.faults_on && !self.sh.clients[client.index()].pending_commits.is_empty() {
            return; // voting round already under way; acks drive progress
        }
        let (ready, involved) = {
            let active = self.sh.clients[client.index()].txn();
            let ready = active
                .spec
                .accesses
                .iter()
                .all(|&(item, _)| self.hold(item, txn).is_some_and(Hold::gates_passed));
            (ready, active.involved(&self.sh.cfg))
        };
        if ready {
            if self.sh.rec.srv_faults_on && involved.count_ones() > 1 {
                // Multi-home commitment under shard crashes is two-phase:
                // collect a durable yes vote from every involved shard
                // before the client-local commit point.
                self.begin_prepare(client, txn, involved);
                return;
            }
            self.commit(now, client, txn);
        } else {
            self.sh.clients[client.index()].txn_mut().phase = ClientPhase::CommitWait;
        }
    }

    /// Re-send every outstanding prepare of the client's voting round.
    fn resend_pending_commits(&mut self, client: ClientId) {
        let pending = self.sh.clients[client.index()].pending_commits.clone();
        for (shard, msg) in pending {
            self.sh.rec.fsum.retries += 1;
            self.sh.net.send(
                &mut self.sh.cal,
                client.into(),
                SiteId::server(shard),
                "g2pl.prepare",
                CTRL_BYTES,
                msg,
            );
        }
        self.sh.clients[client.index()].arm_retry(&mut self.sh.cal, self.sh.rec.retry_base);
    }

    /// The phase-2 retransmission timer fired: re-send the decision to
    /// every shard that has not yet acknowledged it.
    fn on_decide_retry(&mut self, _now: SimTime, client: ClientId, txn: TxnId) {
        let Some(&mask) = self.pending_decides.get(&txn) else {
            return; // fully acknowledged: the timer dies
        };
        for shard in 0..self.sh.cfg.num_shards() {
            if mask & (1u64 << shard) == 0 {
                continue;
            }
            self.sh.rec.fsum.retries += 1;
            self.sh.net.send(
                &mut self.sh.cal,
                client.into(),
                SiteId::server(shard),
                "g2pl.decide",
                CTRL_BYTES,
                Message::Decide { txn },
            );
        }
        self.sh.cal.schedule_in(
            self.sh.rec.retry_base,
            Ev::Timer {
                client,
                kind: TimerKind::DecideRetry(txn),
            },
        );
    }

    fn on_client_msg(&mut self, now: SimTime, client: ClientId, msg: Message) {
        match msg {
            Message::GData {
                item,
                version,
                fl,
                pos,
                from_txn,
                epoch,
            } => {
                let txn = fl.entry(pos).txn;
                debug_assert_eq!(fl.entry(pos).client, client);
                if self.sh.rec.faults_on {
                    if let Some(h) = self.hold(item, txn) {
                        if epoch < h.epoch {
                            return; // copy from a superseded dispatch
                        }
                        if epoch == h.epoch && h.data_arrived {
                            return; // duplicated delivery of this copy
                        }
                    }
                }
                self.sh.trace.record(
                    now,
                    TraceKind::DataArrived,
                    Some(txn),
                    Some(item),
                    client.into(),
                );
                if let Some(ft) = from_txn {
                    // The forwarder's release rode this hop (§3.2 merge):
                    // it reaches a client, not the server, so it costs the
                    // releasing transaction no extra sequential round.
                    self.sh.spans.release_arrived(now, ft, false);
                }
                let hold = self.hold_or_insert(item, txn, &fl, pos, epoch);
                hold.data_arrived = true;
                hold.version = version;
                self.after_gate_update(now, client, item, txn);
            }
            Message::GReaderRelease {
                item,
                version,
                fl,
                from_pos,
                to_pos,
                epoch,
            } => {
                // lint:allow(L3): the sender set to_pos on every client-bound release
                let w = to_pos.expect("client-bound release has a writer position");
                let txn = fl.entry(w).txn;
                debug_assert_eq!(fl.entry(w).client, client);
                if self.sh.rec.faults_on {
                    if let Some(h) = self.hold(item, txn) {
                        if epoch < h.epoch {
                            return; // release from a superseded dispatch
                        }
                        if epoch == h.epoch && h.releases_from.contains(&from_pos) {
                            return; // duplicated delivery of this release
                        }
                    }
                }
                self.sh
                    .spans
                    .release_arrived(now, fl.entry(from_pos).txn, false);
                let mr1w = self.opts.mr1w;
                let hold = self.hold_or_insert(item, txn, &fl, w, epoch);
                hold.releases_from.push(from_pos);
                hold.releases_recv += 1;
                if !mr1w {
                    // The release carries the data in the non-MR1W flavor.
                    hold.data_arrived = true;
                    hold.version = version;
                }
                debug_assert!(
                    hold.releases_recv <= hold.releases_expected,
                    "more releases than readers for {item} at {txn}"
                );
                self.after_gate_update(now, client, item, txn);
            }
            Message::AbortNotice { txn } => self.on_abort_notice(now, client, txn),
            Message::PrepareAck { txn, shard } => {
                let c = &mut self.sh.clients[client.index()];
                match c.take_ack(
                    shard,
                    |m| matches!(m, Message::Prepare { txn: t, .. } if *t == txn),
                ) {
                    None => {} // stale or duplicated ack
                    Some(false) => c.arm_retry(&mut self.sh.cal, self.sh.rec.retry_base),
                    // The abort won the voting race; the notice (or its
                    // lease-driven re-send) drives the client-side
                    // cleanup, and abort_victim retired the votes.
                    Some(true) if self.sh.table.status(txn) != TxnStatus::Active => {}
                    Some(true) => {
                        // Every involved shard voted yes: decide commit
                        // locally (the decision record is the client's WAL
                        // commit) and ship the decision as phase 2.
                        let active = c.txn();
                        debug_assert_eq!(active.id, txn, "foreign prepare ack");
                        let involved = active.involved(&self.sh.cfg);
                        self.commit(now, client, txn);
                        self.send_decides(client, txn, involved);
                    }
                }
            }
            Message::DecideAck { txn, shard } => {
                if let Some(mask) = self.pending_decides.get_mut(&txn) {
                    *mask &= !(1u64 << shard);
                    if *mask == 0 {
                        self.pending_decides.remove(&txn);
                    }
                }
            }
            Message::ReregisterReq { shard, epoch } => {
                // Report every live (unforwarded) forward-list slot this
                // client holds or anticipates — checked-out items,
                // in-flight positions, and committed-but-unreturned
                // versions all ride in the same report. The report covers
                // the restarted shard's items only: other shards' state
                // never died. A pure function of client state, so
                // duplicated deliveries are idempotent at the server.
                let mut holds = Vec::new();
                for (_, slots) in self.holds.iter() {
                    for (item, h) in slots {
                        if h.forwarded
                            || h.fl.entry(h.pos).client != client
                            || self.sh.cfg.shard_of(*item) != shard
                        {
                            continue;
                        }
                        holds.push(HoldReport {
                            txn: h.fl.entry(h.pos).txn,
                            item: *item,
                            pos: h.pos,
                            epoch: h.epoch,
                            version: h.version,
                            forwarded: h.forwarded,
                            data_arrived: h.data_arrived,
                        });
                    }
                }
                let bytes = CTRL_BYTES + holds.len() as u64 * FL_ENTRY_BYTES;
                self.sh.net.send(
                    &mut self.sh.cal,
                    client.into(),
                    SiteId::server(shard),
                    "g2pl.reregister",
                    bytes,
                    Message::GReregister {
                        client,
                        epoch,
                        holds,
                    },
                );
            }
            Message::GPrune { item, txn } => {
                let v = self.pruned[client.index()].ensure(txn.index());
                if !v.contains(&item) {
                    v.push(item);
                }
            }
            other => unreachable!("g-2PL client cannot receive {other:?}"),
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
                    _ => return, // stale request
                }
                if self.sh.rec.faults_on {
                    // Retransmission of a request the server already has:
                    // either still gathering in a window, or already on a
                    // dispatched list (its grant is in flight, or the item
                    // lease will recover it).
                    if self.pending_of.get(txn.index()).copied().flatten() == Some(item) {
                        return;
                    }
                    if self
                        .entries_of
                        .get(txn.index())
                        .is_some_and(|v| v.contains(&item))
                    {
                        return;
                    }
                }
                self.on_request(now, txn, client, item, mode);
            }
            Message::GReturn {
                item,
                version,
                txn,
                epoch,
            } => {
                {
                    let st = &self.items[item.index()];
                    if st.epoch != epoch || st.out.is_none() {
                        // A return from a superseded checkout, or a
                        // duplicated return for one already processed.
                        debug_assert!(self.sh.rec.faults_on, "stale return on a reliable network");
                        return;
                    }
                }
                self.sh.trace.record(
                    now,
                    TraceKind::ReleasedAtServer,
                    None,
                    Some(item),
                    SiteId::server(shard as u32),
                );
                // The final holder's release reaches the server: its one
                // extra sequential round (the "+1" of `2m + 1`).
                self.sh.spans.release_arrived(now, txn, true);
                self.sh.versions[item.index()] = version;
                let st = &mut self.items[item.index()];
                debug_assert!(st.out.is_some(), "return for an item already home");
                let out = st.out.take().expect("just checked"); // lint:allow(L3): debug_assert above
                self.clear_entry_index(&out, item);
                if let Some(slog) = self.sh.rec.slog.get_mut(shard) {
                    slog.append(ServerRecord::Home { item, version });
                }
                self.mark_writers_permanent(item);
                self.close_window(now, item);
            }
            Message::GReaderRelease {
                item,
                version,
                fl,
                from_pos,
                to_pos: None,
                epoch,
            } => {
                {
                    let st = &self.items[item.index()];
                    let stale = st.epoch != epoch
                        || st
                            .out
                            .as_ref()
                            .is_none_or(|o| o.final_released.contains(&from_pos));
                    if stale {
                        // A release from a superseded checkout, or a
                        // duplicated copy of one already counted.
                        debug_assert!(self.sh.rec.faults_on, "stale release on a reliable network");
                        return;
                    }
                }
                self.sh.trace.record(
                    now,
                    TraceKind::ReleasedAtServer,
                    None,
                    Some(item),
                    SiteId::server(shard as u32),
                );
                // A tail-group reader's release travels to the server: a
                // full sequential round for that reader.
                self.sh
                    .spans
                    .release_arrived(now, fl.entry(from_pos).txn, true);
                let st = &mut self.items[item.index()];
                // lint:allow(L3): a reader release implies the item is still out
                let out = st.out.as_mut().expect("release for an item already home");
                out.final_released.push(from_pos);
                out.last_progress = now;
                debug_assert!(out.final_releases_left > 0);
                out.final_releases_left -= 1;
                if out.final_releases_left == 0 {
                    self.sh.versions[item.index()] = version;
                    let out = st.out.take().expect("item is out"); // lint:allow(L3): as_mut above
                    self.clear_entry_index(&out, item);
                    if let Some(slog) = self.sh.rec.slog.get_mut(shard) {
                        slog.append(ServerRecord::Home { item, version });
                    }
                    self.mark_writers_permanent(item);
                    self.close_window(now, item);
                }
            }
            Message::GReregister {
                client,
                epoch,
                holds,
            } => {
                if !self
                    .sh
                    .rec
                    .reregistered(now, shard, client, epoch, None, &mut self.sh.trace)
                {
                    return;
                }
                // Reports corroborate the durable dispatch history
                // (restoration itself works off the log plus the commit
                // oracle, so entries whose data was still in flight are
                // recovered even when no client-side hold exists to
                // report): a slot re-reported at the last durable epoch
                // must be on the logged list.
                if let Some(img) = self.sh.rec.image(shard).filter(|_| cfg!(debug_assertions)) {
                    for r in &holds {
                        if let Some(d) = img.dispatches.get(&r.item) {
                            debug_assert!(
                                r.epoch != d.epoch || d.entries.iter().any(|&(t, _)| t == r.txn),
                                "{client} re-reported a slot the log never dispatched: {} {}",
                                r.txn,
                                r.item
                            );
                        }
                    }
                }
                if self.sh.rec.all_answered(shard) {
                    self.finish_recovery(now, shard);
                }
            }
            Message::Prepare {
                txn,
                writes,
                involved,
            } => {
                debug_assert!(writes.is_empty(), "g-2PL versions migrate client-side");
                let voted = self.sh.rec.on_prepare(
                    now,
                    shard,
                    txn,
                    writes,
                    involved,
                    &self.sh.table,
                    &mut self.sh.net,
                    &mut self.sh.cal,
                    &mut self.sh.trace,
                );
                if !voted {
                    // The vote request raced an abort: answer with the
                    // (possibly lost) abort notice instead of a vote.
                    self.sh.send_abort_notice(shard, txn);
                }
            }
            Message::Decide { txn } => {
                if self.sh.rec.prepared_at(txn, shard) {
                    // Phase 2: retire the vote with a durable decision
                    // record. There is no slice to install — the
                    // committed versions migrate client-to-client.
                    self.sh
                        .rec
                        .apply_commit(now, shard, txn, &[], &mut self.sh.trace);
                }
                // Always ack — even when recovery already resolved the
                // vote — so the coordinator's retry timer stops.
                self.sh.net.send(
                    &mut self.sh.cal,
                    SiteId::server(shard as u32),
                    self.sh.table.info(txn).client.into(),
                    "g2pl.decide_ack",
                    CTRL_BYTES,
                    Message::DecideAck {
                        txn,
                        shard: shard as u32,
                    },
                );
            }
            Message::CommitQuery {
                txn, from_shard, ..
            } => self.sh.rec.answer_commit_query(
                shard,
                txn,
                from_shard,
                &self.sh.table,
                &mut self.sh.net,
                &mut self.sh.cal,
            ),
            Message::CommitVerdict { txn, committed } => {
                if self.sh.rec.on_commit_verdict(shard, txn, committed) {
                    self.sh
                        .rec
                        .commit_in_doubt(now, shard, txn, &mut self.sh.trace);
                }
            }
            other => unreachable!("g-2PL server cannot receive {other:?}"),
        }
    }

    fn on_event(&mut self, now: SimTime, ev: Ev) {
        match ev {
            Ev::WindowTimer { item } => self.on_window_timer(now, item),
            Ev::LeaseCheck { item, epoch } => self.on_lease_check(now, item, epoch),
            other => unreachable!("{other:?} is not part of the g-2PL protocol"),
        }
    }

    /// A crashed client comes back up. Every timer it had died with the
    /// crash, so each possible state re-establishes its own wake-up. Item
    /// copies the site held are re-derived from its log, but any
    /// migration hop dropped while down is recovered by the server-side
    /// item lease, not by the client.
    fn on_restart(&mut self, now: SimTime, client: ClientId) {
        // Phase-2 retransmission timers died with the crash; the pending
        // decisions themselves are durable (oracle + WAL), so re-arm one
        // timer per still-unacknowledged decision this client owns.
        let unacked: Vec<TxnId> = self
            .pending_decides
            .keys()
            .copied()
            .filter(|&t| self.sh.table.info(t).client == client)
            .collect();
        for txn in unacked {
            self.sh.cal.schedule_in(
                SimTime::ZERO,
                Ev::Timer {
                    client,
                    kind: TimerKind::DecideRetry(txn),
                },
            );
        }
        let c = &self.sh.clients[client.index()];
        let Some(active) = &c.txn else {
            self.sh.schedule_idle(client);
            return;
        };
        let (txn, phase) = (active.id, active.phase);
        let voting = !c.pending_commits.is_empty();
        match self.sh.table.status(txn) {
            TxnStatus::Aborting | TxnStatus::Aborted => self.on_abort_notice(now, client, txn),
            TxnStatus::Active => match phase {
                ClientPhase::WaitingGrant(_) => self.sh.resend_request(client),
                ClientPhase::Thinking => {
                    // The think timer died with the crash: resume now.
                    self.sh.cal.schedule_in(
                        SimTime::ZERO,
                        Ev::Timer {
                            client,
                            kind: TimerKind::ThinkDone(txn),
                        },
                    );
                }
                ClientPhase::CommitWait if voting => {
                    // An open voting round: its retry timer died with the
                    // crash, so restart the retransmission loop.
                    self.resend_pending_commits(client);
                }
                // A commit certification waits on reader releases; any
                // dropped while down are recovered by the item lease.
                ClientPhase::CommitWait | ClientPhase::Idle => {}
            },
            TxnStatus::Committed => {}
        }
    }

    /// A scheduled crash or restart of shard `shard` from the fault plan.
    ///
    /// A crash loses the shard's checkout and window bookkeeping,
    /// dispatch epochs and installed versions. Client-side holds are
    /// other sites and live on; `unpermanent_writers` is kept because it
    /// mirrors the *clients'* log obligations, which a server crash does
    /// not discharge. Other shards keep their state untouched, so the
    /// (global) precedence DAG is reset only in the single-shard case; at
    /// multi-shard, surviving shards' edges must live on, and the crashed
    /// shard's survivors are re-dispatched in durable-record order, which
    /// cannot contradict their existing edges.
    ///
    /// A restart restores versions and dispatch epochs from the replayed
    /// log and opens the handshake; outstanding checkouts are resolved in
    /// [`Self::finish_recovery`] once the reports are in.
    fn on_server_fault(&mut self, now: SimTime, shard: usize, up: bool) {
        if up {
            let items = &mut self.items;
            self.sh.restart_shard(now, shard, |img| {
                // Epochs restart at the last durably dispatched value, so
                // every pre-crash in-flight segment is at most equal — and
                // any post-recovery redispatch strictly above — the
                // restored epoch: no grant can ever be issued from
                // pre-crash forward-list state.
                for (&item, d) in &img.dispatches {
                    items[item.index()].epoch = d.epoch;
                }
            });
            return;
        }
        let mut orphaned = std::mem::take(&mut self.start_scratch);
        orphaned.clear();
        for idx in self.sh.crash_shard(now, shard) {
            let item = ItemId::new(idx as u32);
            if let Some(out) = self.items[idx].out.take() {
                self.clear_entry_index(&out, item);
            }
            let st = &mut self.items[idx];
            orphaned.extend(st.window.pending().iter().map(|r| r.entry.txn));
            st.window = CollectionWindow::new();
            st.holding = false;
            st.epoch = 0;
        }
        // Window entries die with the shard; their owners' request
        // retries re-enqueue them after recovery, which the
        // pending-request duplicate filter must not suppress.
        for txn in orphaned.drain(..) {
            if let Some(slot) = self.pending_of.get_mut(txn.index()) {
                *slot = None;
            }
        }
        self.start_scratch = orphaned;
        if self.sh.cfg.num_shards() == 1 {
            self.dag = PrecedenceDag::new();
        }
    }

    /// Close the re-registration handshake. In-doubt votes no peer
    /// verdict settled are resolved from the commit oracle first. Then,
    /// per checked-out item, the durable dispatch record plus the commit
    /// oracle decide the outcome: committed writers advance the version
    /// base (their updates are recoverable from their sites' logs,
    /// exactly as in lease recovery), live entries of responding clients
    /// are re-dispatched under a fresh epoch, and live entries of silent
    /// clients are presumed dead and aborted. With no survivors the item
    /// comes home at the version a fault-free drain would have installed.
    fn finish_recovery(&mut self, now: SimTime, shard: usize) {
        // An in-doubt commit has no write slice to install here: the
        // committed versions migrated client-to-client and come home with
        // the item returns.
        for txn in self.sh.rec.settle_in_doubt(shard, &self.sh.table) {
            self.sh
                .rec
                .commit_in_doubt(now, shard, txn, &mut self.sh.trace);
        }
        let img = self.sh.rec.take_image(shard);
        let mut silent_victims: Vec<TxnId> = Vec::new();
        let mut redispatch = Vec::new();
        for &item in &img.out {
            let Some(d) = img.dispatches.get(&item) else {
                continue; // every `out` item has a dispatch record
            };
            let mut survivors = Vec::new();
            let mut committed_writes: Version = 0;
            for &(txn, exclusive) in &d.entries {
                match self.sh.table.status(txn) {
                    TxnStatus::Active => {
                        let owner = self.sh.table.info(txn).client;
                        if self.sh.rec.answered(shard, owner) {
                            let arrival = self.arrival_seq;
                            self.arrival_seq += 1;
                            let mode = if exclusive {
                                LockMode::Exclusive
                            } else {
                                LockMode::Shared
                            };
                            survivors.push(PendingReq {
                                entry: FlEntry::new(txn, owner, mode),
                                arrival,
                                restarts: 0,
                            });
                        } else if !silent_victims.contains(&txn) {
                            silent_victims.push(txn);
                        }
                    }
                    TxnStatus::Committed => {
                        if exclusive {
                            committed_writes += 1;
                            // The committed version lives only in the
                            // writer's site log until the item is home:
                            // GC before permanence would lose it.
                            if let Some(wal) = &self.sh.wal {
                                let site = self.sh.table.info(txn).client;
                                debug_assert!(
                                    wal[site.index()].awaits_permanence(txn),
                                    "committed write of {txn} on {item} collected before permanence"
                                );
                            }
                        }
                    }
                    TxnStatus::Aborting | TxnStatus::Aborted => {}
                }
            }
            self.sh.versions[item.index()] = d.base + committed_writes;
            redispatch.push((item, survivors));
        }
        self.sh.rec.reopen(shard);
        self.sh.trace.record(
            now,
            TraceKind::ServerRecovered,
            None,
            None,
            SiteId::server(shard as u32),
        );
        for (item, survivors) in redispatch {
            if survivors.is_empty() {
                let version = self.sh.versions[item.index()];
                self.sh.rec.slog[shard].append(ServerRecord::Home { item, version });
                self.mark_writers_permanent(item);
                self.close_window(now, item);
            } else {
                self.sh.rec.fsum.redispatches += 1;
                self.dispatch(now, item, survivors);
            }
        }
        for txn in silent_victims {
            // A survivors' redispatch may already have aborted a silent
            // transaction as its deadlock victim.
            if self.sh.table.status(txn) == TxnStatus::Active {
                self.abort_victim(now, txn);
            }
        }
    }

    // lint:allow(L5): the abort is traced when it lands — the client records TraceKind::Aborted on the notice; a server-side record here would double-count the event for the P-properties
    fn abort_victim(&mut self, _now: SimTime, victim: TxnId) {
        debug_assert_eq!(self.sh.table.status(victim), TxnStatus::Active);
        self.sh.table.set_status(victim, TxnStatus::Aborting);
        if let Some(item) = self
            .pending_of
            .get_mut(victim.index())
            .and_then(Option::take)
        {
            self.items[item.index()].window.remove_txn(victim);
        }
        self.dag.remove_txn(victim);
        self.sh.rec.retire_victim(victim);
        let client = self.sh.table.info(victim).client;
        // Abort coordination stays at shard 0 (leases and deadlock
        // detection are centralized there).
        if self.sh.cfg.abort_effect == AbortEffect::Instant {
            self.sh.net.send_with_delay(
                &mut self.sh.cal,
                SiteId::SERVER0,
                client.into(),
                self.sh.rec.labels.abort_notice,
                CTRL_BYTES,
                Message::AbortNotice { txn: victim },
                SimTime::ZERO,
            );
        } else {
            self.sh.send_abort_notice(0, victim);
        }
        // Multicast prune notices for the victim's not-yet-served entries
        // on dispatched forward lists, so upstream forwarders skip them.
        // The server knows every list it dispatched; the extra messages
        // are parallel control traffic, not sequential rounds. Pointless
        // under instant-abort semantics, where dead entries already cost
        // nothing.
        if self.sh.cfg.abort_effect == AbortEffect::Instant {
            return;
        }
        for (idx, st) in self.items.iter().enumerate() {
            let item = ItemId::new(idx as u32);
            let Some(out) = &st.out else { continue };
            let Some(pos) = out.fl.position_of(victim) else {
                continue;
            };
            if out.completed[pos] {
                continue;
            }
            let targets: Vec<ClientId> = out
                .fl
                .entries()
                .iter()
                .map(|e| e.client)
                .filter(|&c| c != client)
                .collect();
            for to in targets {
                self.sh.net.send(
                    &mut self.sh.cal,
                    self.sh.cfg.shard_site(item),
                    to.into(),
                    "g2pl.prune",
                    CTRL_BYTES,
                    Message::GPrune { item, txn: victim },
                );
            }
        }
    }

    fn assert_drained(&self) {
        for (i, item) in self.items.iter().enumerate() {
            assert!(item.out.is_none(), "item x{i} not home after drain");
            assert!(
                item.window.is_empty(),
                "window of x{i} not empty after drain"
            );
        }
        assert!(
            self.holds
                .iter()
                .all(|(_, v)| v.iter().all(|(_, h)| h.forwarded || !h.data_arrived)),
            "data arrived at a hold but was never passed on"
        );
    }

    fn into_metrics(self, events: u64) -> RunMetrics {
        RunMetrics {
            max_fl_len: self.max_fl_len,
            window_closes: self.window_closes,
            ..self.sh.into_metrics("g-2PL", events)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn cfg(clients: u32, latency: u64, pr: f64) -> EngineConfig {
        let mut c = EngineConfig::table1(ProtocolKind::g2pl_paper(), clients, latency, pr);
        c.warmup_txns = 50;
        c.measured_txns = 300;
        c.drain = true;
        c
    }

    #[test]
    fn single_client_never_aborts() {
        let m = G2plEngine::new(cfg(1, 10, 0.5)).run();
        assert_eq!(m.aborted_total, 0);
        assert!(m.committed_total >= 350);
        assert!(m.response.mean() > 0.0);
    }

    #[test]
    fn single_item_single_access_response_is_rtt_plus_think() {
        // One client, one item: the item is always home when requested,
        // so the singleton dispatch gives response = 2L + one think.
        let mut c = cfg(1, 100, 0.0);
        c.items = crate::config::ItemSpace::single(1);
        c.profile.min_items = 1;
        c.profile.max_items = 1;
        let m = G2plEngine::new(c).run();
        assert!(m.response.min().unwrap() >= 201.0);
        assert!(m.response.max().unwrap() <= 203.0);
    }

    #[test]
    fn contended_update_run_completes() {
        let m = G2plEngine::new(cfg(10, 50, 0.2)).run();
        assert_eq!(m.aborts.trials(), 300);
        assert!(m.committed_total > 0);
        assert!(m.window_closes > 0);
        assert!(m.max_fl_len >= 1);
    }

    #[test]
    fn forward_lists_grow_under_contention() {
        // Many clients hammering few items must produce multi-entry
        // lists and client-to-client migration.
        let mut c = cfg(20, 200, 0.0);
        c.items = crate::config::ItemSpace::single(2);
        c.profile.max_items = 2;
        let m = G2plEngine::new(c).run();
        assert!(
            m.max_fl_len >= 3,
            "expected grouped dispatches, max fl = {}",
            m.max_fl_len
        );
        assert!(m.net.client_to_client_share() > 0.1);
    }

    #[test]
    fn determinism_same_seed_same_metrics() {
        let a = G2plEngine::new(cfg(5, 100, 0.5)).run();
        let b = G2plEngine::new(cfg(5, 100, 0.5)).run();
        assert_eq!(a.response.mean(), b.response.mean());
        assert_eq!(a.committed_total, b.committed_total);
        assert_eq!(a.aborted_total, b.aborted_total);
        assert_eq!(a.net.messages(), b.net.messages());
    }

    #[test]
    fn read_only_aborts_are_read_only_deadlocks() {
        // §3.3: g-2PL has a unique read-only deadlock; every abort in a
        // read-only system must be of a read-only transaction.
        let m = G2plEngine::new(cfg(20, 1, 1.0)).run();
        assert_eq!(m.read_only_aborts, m.aborts.hits());
    }

    #[test]
    fn mr1w_off_still_correct() {
        let mut c = cfg(10, 50, 0.6);
        if let ProtocolKind::G2pl(o) = &mut c.protocol {
            o.mr1w = false;
        }
        let m = G2plEngine::new(c).run();
        assert_eq!(m.aborts.trials(), 300);
    }

    #[test]
    fn avoidance_off_still_correct() {
        let mut c = cfg(10, 50, 0.3);
        if let ProtocolKind::G2pl(o) = &mut c.protocol {
            o.ordering = g2pl_fwdlist::OrderingRule::fifo();
        }
        let m = G2plEngine::new(c).run();
        assert_eq!(m.aborts.trials(), 300);
    }

    #[test]
    fn expand_reads_eliminates_read_only_aborts() {
        let mut c = cfg(20, 1, 1.0);
        if let ProtocolKind::G2pl(o) = &mut c.protocol {
            o.expand_reads = true;
        }
        let m = G2plEngine::new(c).run();
        assert_eq!(
            m.aborted_total, 0,
            "read expansion removes read-only dependencies"
        );
    }

    #[test]
    fn fl_cap_bounds_dispatched_lists() {
        let mut c = cfg(20, 200, 0.0);
        c.items = crate::config::ItemSpace::single(2);
        c.profile.max_items = 2;
        if let ProtocolKind::G2pl(o) = &mut c.protocol {
            o.fl_cap = Some(3);
        }
        let m = G2plEngine::new(c).run();
        assert!(m.max_fl_len <= 3, "cap violated: {}", m.max_fl_len);
    }

    #[test]
    fn dispatch_delay_batches_requests() {
        // Holding returned items open gathers larger windows than
        // immediate dispatch under the same workload.
        let mut immediate = cfg(20, 100, 0.0);
        immediate.items = crate::config::ItemSpace::single(2);
        immediate.profile.max_items = 2;
        let mut held = immediate.clone();
        if let ProtocolKind::G2pl(o) = &mut held.protocol {
            o.dispatch_delay = Some(200);
        }
        let mi = G2plEngine::new(immediate).run();
        let mh = G2plEngine::new(held).run();
        assert!(
            mh.window_closes < mi.window_closes,
            "held windows must close less often: {} vs {}",
            mh.window_closes,
            mi.window_closes
        );
        assert_eq!(mh.aborts.trials(), 300, "held run still completes");
    }

    #[test]
    fn messaged_aborts_send_prune_notices() {
        let mut c = cfg(20, 100, 0.2);
        c.abort_effect = crate::config::AbortEffect::Messaged;
        let m = G2plEngine::new(c).run();
        assert!(m.aborted_total > 0, "contended run should abort");
        assert!(
            m.net.of_kind("g2pl.prune") > 0,
            "aborts with dispatched entries should multicast prunes"
        );
    }

    #[test]
    fn instant_aborts_skip_prune_notices() {
        let m = G2plEngine::new(cfg(20, 100, 0.2)).run();
        assert!(m.aborted_total > 0);
        assert_eq!(m.net.of_kind("g2pl.prune"), 0);
    }

    #[test]
    fn instant_beats_messaged_under_contention() {
        let instant = cfg(20, 500, 0.2);
        let mut messaged = instant.clone();
        messaged.abort_effect = crate::config::AbortEffect::Messaged;
        let mi = G2plEngine::new(instant).run();
        let mm = G2plEngine::new(messaged).run();
        assert!(
            mi.response.mean() < mm.response.mean(),
            "instant {} should beat messaged {}",
            mi.response.mean(),
            mm.response.mean()
        );
    }

    #[test]
    fn history_versions_form_per_item_chains() {
        let mut c = cfg(8, 50, 0.5);
        c.record_history = true;
        let m = G2plEngine::new(c).run();
        let h = m.history.expect("history recorded");
        assert!(!h.is_empty());
        // Per item, committed write versions must be strictly increasing
        // in commit order (strict 2PL serializes writers).
        let mut last: BTreeMap<ItemId, Version> = BTreeMap::new();
        for rec in h.records() {
            for acc in &rec.accesses {
                if acc.mode.is_write() {
                    let prev = last.insert(acc.item, acc.version);
                    assert!(
                        prev.is_none_or(|p| acc.version > p),
                        "non-monotone write versions on {}",
                        acc.item
                    );
                }
            }
        }
    }

    #[test]
    fn lossy_run_completes_via_lease_recovery() {
        // 5% message loss: every migration hop is at risk, so the run
        // only finishes (the drain empties the calendar) if retries and
        // lease-expiry redispatch actually recover every stall.
        let mut c = cfg(10, 50, 0.2);
        c.faults = Some(g2pl_faults::FaultPlan::message_loss(0.05));
        let m = G2plEngine::new(c).run();
        assert_eq!(m.aborts.trials(), 300, "measurement window filled");
        assert!(m.faults.injected.dropped > 0, "no faults injected");
        assert!(
            m.faults.retries > 0 || m.faults.lease_expiries > 0,
            "losses recovered without any recovery action"
        );
    }

    #[test]
    fn lossy_run_is_deterministic() {
        let mk = || {
            let mut c = cfg(8, 50, 0.3);
            c.faults = Some(g2pl_faults::FaultPlan::message_loss(0.08));
            G2plEngine::new(c).run()
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a.committed_total, b.committed_total);
        assert_eq!(a.aborted_total, b.aborted_total);
        assert_eq!(a.net.messages(), b.net.messages());
        assert_eq!(a.faults.injected, b.faults.injected);
        assert_eq!(a.faults.lease_expiries, b.faults.lease_expiries);
    }

    #[test]
    fn inert_fault_plan_changes_nothing() {
        let base = G2plEngine::new(cfg(5, 100, 0.5)).run();
        let mut c = cfg(5, 100, 0.5);
        c.faults = Some(g2pl_faults::FaultPlan::default());
        let m = G2plEngine::new(c).run();
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
        let m = G2plEngine::new(c).run();
        assert_eq!(m.faults.crashes, 1);
        assert_eq!(m.aborts.trials(), 300, "run completed despite the crash");
    }

    #[test]
    fn server_crash_is_recovered() {
        let mut c = cfg(8, 50, 0.3);
        c.faults = Some(g2pl_faults::FaultPlan {
            server_crashes: vec![
                g2pl_faults::ServerCrashWindow::fixed(4_000, 1_500),
                g2pl_faults::ServerCrashWindow::fixed(15_000, 800),
            ],
            ..Default::default()
        });
        let m = G2plEngine::new(c).run();
        assert_eq!(m.faults.server_crashes, 2);
        assert!(m.faults.reregistrations > 0, "handshake never ran");
        assert!(m.faults.server_msgs_lost > 0, "outage lost no messages");
        assert_eq!(m.aborts.trials(), 300, "run completed despite crashes");
    }

    #[test]
    fn server_crash_run_is_deterministic() {
        let mk = || {
            let mut c = cfg(6, 50, 0.4);
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
            G2plEngine::new(c).run()
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a.committed_total, b.committed_total);
        assert_eq!(a.aborted_total, b.aborted_total);
        assert_eq!(a.net.messages(), b.net.messages());
        assert_eq!(a.faults.server_msgs_lost, b.faults.server_msgs_lost);
        assert_eq!(a.faults.reregistrations, b.faults.reregistrations);
    }
}
