//! The lock table: per-item holder sets and FIFO wait queues.

use crate::mode::LockMode;
use g2pl_simcore::{ItemId, Slab, TxnId};
use std::collections::VecDeque;

/// Result of a lock acquisition attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AcquireOutcome {
    /// The lock was granted immediately (or was already held in a
    /// sufficient mode).
    Granted,
    /// The request conflicts with current holders or queued-ahead waiters
    /// and was enqueued.
    Queued,
}

#[derive(Clone, Debug, Default)]
struct ItemLock {
    holders: Vec<(TxnId, LockMode)>,
    queue: VecDeque<(TxnId, LockMode)>,
}

impl ItemLock {
    fn holder_mode(&self, txn: TxnId) -> Option<LockMode> {
        self.holders
            .iter()
            .find(|(t, _)| *t == txn)
            .map(|&(_, m)| m)
    }

    fn grantable(&self, txn: TxnId, mode: LockMode) -> bool {
        self.holders
            .iter()
            .all(|&(t, m)| t == txn || m.compatible(mode))
    }
}

/// A strict-2PL lock table.
///
/// Grants are FIFO-fair: a shared request queues behind an earlier queued
/// exclusive request even when it would be compatible with the current
/// holders, preventing writer starvation (the behaviour of textbook
/// queue-based lock managers, and the one the paper's s-2PL baseline
/// assumes when it says conflicting requests are "enqueued").
#[derive(Clone, Debug, Default)]
pub struct LockTable {
    /// Lock state per item, indexed by `ItemId::index()` (item ids are
    /// dense, so the slab sweep below visits items in ascending id order —
    /// the same order the previous `BTreeMap` representation produced).
    items: Slab<ItemLock>,
    /// Items held per transaction (in acquisition order), indexed by
    /// `TxnId::index()`.
    held: Slab<Vec<ItemId>>,
    /// Reverse index: the item each transaction is queued on (at most one
    /// under the sequential client model; the most recent wins otherwise).
    queued: Slab<Option<ItemId>>,
}

impl LockTable {
    /// An empty lock table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attempt to acquire `item` in `mode` for `txn`.
    ///
    /// Re-requesting an item already held in a sufficient mode returns
    /// [`AcquireOutcome::Granted`] without any state change. An upgrade
    /// (S held, X requested) is granted in place when `txn` is the only
    /// holder and nothing is queued, and queued at the *front* otherwise.
    pub fn acquire(&mut self, txn: TxnId, item: ItemId, mode: LockMode) -> AcquireOutcome {
        let lock = self.items.ensure(item.index());

        if let Some(held_mode) = lock.holder_mode(txn) {
            if held_mode.max(mode) == held_mode {
                return AcquireOutcome::Granted; // already sufficient
            }
            // Upgrade S -> X.
            if lock.holders.len() == 1 && lock.queue.is_empty() {
                lock.holders[0].1 = LockMode::Exclusive;
                return AcquireOutcome::Granted;
            }
            lock.queue.push_front((txn, mode));
            *self.queued.ensure(txn.index()) = Some(item);
            return AcquireOutcome::Queued;
        }

        if lock.queue.is_empty() && lock.grantable(txn, mode) {
            lock.holders.push((txn, mode));
            self.held.ensure(txn.index()).push(item);
            AcquireOutcome::Granted
        } else {
            lock.queue.push_back((txn, mode));
            *self.queued.ensure(txn.index()) = Some(item);
            AcquireOutcome::Queued
        }
    }

    /// The item `txn` is currently queued on, if any.
    pub fn queued_on(&self, txn: TxnId) -> Option<ItemId> {
        self.queued.get(txn.index()).copied().flatten()
    }

    /// Release every lock held by `txn` and remove any of its queued
    /// requests, granting whatever becomes grantable.
    ///
    /// Returns the newly granted `(item, txn, mode)` triples, in grant
    /// order.
    pub fn release_all(&mut self, txn: TxnId) -> Vec<(ItemId, TxnId, LockMode)> {
        let mut woken = Vec::new();
        if let Some(q) = self.queued.get_mut(txn.index()) {
            *q = None;
        }
        // Remove the transaction's queued requests FIRST: promoting a
        // released item before purging the queues could re-grant the
        // finished transaction its own stale queued request. The item
        // slab is indexed by the dense item id, so this sweep — and thus
        // the wake-up order and the whole simulation — visits items in
        // ascending id order, exactly as the previous `BTreeMap`
        // representation did.
        let mut queued_on: Vec<ItemId> = Vec::new();
        for (i, lock) in self.items.iter() {
            if lock.queue.iter().any(|&(t, _)| t == txn) {
                queued_on.push(ItemId::new(i as u32));
            }
        }
        for &item in &queued_on {
            // lint:allow(L3): item came from the slab one statement ago
            let lock = self.items.get_mut(item.index()).expect("just observed");
            lock.queue.retain(|&(t, _)| t != txn);
        }
        let items = self
            .held
            .get_mut(txn.index())
            .map(std::mem::take)
            .unwrap_or_default();
        for item in items {
            let lock = self
                .items
                .get_mut(item.index())
                // lint:allow(L3): the held index only lists items with lock state
                .expect("held item has lock state");
            lock.holders.retain(|&(t, _)| t != txn);
            Self::promote(&mut self.queued, &mut self.held, lock, item, &mut woken);
        }
        // The queue removals themselves can unblock requests queued
        // behind the departed transaction.
        for item in queued_on {
            // lint:allow(L3): item came from the slab in the sweep above
            let lock = self.items.get_mut(item.index()).expect("just observed");
            Self::promote(&mut self.queued, &mut self.held, lock, item, &mut woken);
        }
        woken
    }

    fn promote(
        queued: &mut Slab<Option<ItemId>>,
        held: &mut Slab<Vec<ItemId>>,
        lock: &mut ItemLock,
        item: ItemId,
        woken: &mut Vec<(ItemId, TxnId, LockMode)>,
    ) {
        while let Some(&(t, m)) = lock.queue.front() {
            // Upgrades re-check against remaining holders (t itself may
            // still hold S).
            if !lock.grantable(t, m) {
                break;
            }
            lock.queue.pop_front();
            *queued.ensure(t.index()) = None;
            if let Some(pos) = lock.holders.iter().position(|&(h, _)| h == t) {
                lock.holders[pos].1 = lock.holders[pos].1.max(m);
            } else {
                lock.holders.push((t, m));
                held.ensure(t.index()).push(item);
            }
            woken.push((item, t, m));
            if m.is_exclusive() {
                break;
            }
        }
    }

    /// Current holders of `item`, with their modes.
    pub fn holders(&self, item: ItemId) -> &[(TxnId, LockMode)] {
        self.items
            .get(item.index())
            .map_or(&[], |l| l.holders.as_slice())
    }

    /// Queued waiters on `item`, in queue order.
    pub fn waiters(&self, item: ItemId) -> impl Iterator<Item = (TxnId, LockMode)> + '_ {
        self.items
            .get(item.index())
            .into_iter()
            .flat_map(|l| l.queue.iter().copied())
    }

    /// Items currently held by `txn` (in acquisition order).
    pub fn held_by(&self, txn: TxnId) -> &[ItemId] {
        self.held.get(txn.index()).map_or(&[], Vec::as_slice)
    }

    /// Mode in which `txn` holds `item`, if it does.
    pub fn mode_of(&self, txn: TxnId, item: ItemId) -> Option<LockMode> {
        self.items
            .get(item.index())
            .and_then(|l| l.holder_mode(txn))
    }

    /// True when no locks are held and no requests queued (quiescence
    /// check for drain tests).
    pub fn is_quiescent(&self) -> bool {
        self.items
            .as_slice()
            .iter()
            .all(|l| l.holders.is_empty() && l.queue.is_empty())
    }

    /// Every `(txn, item)` pair currently waiting in some queue, in
    /// deterministic (item, txn) order. Used to rebuild the wait-for
    /// graph on demand at detection time.
    pub fn all_waiters(&self) -> Vec<(TxnId, ItemId)> {
        let mut out: Vec<(TxnId, ItemId)> = self
            .items
            .iter()
            .flat_map(|(i, lock)| {
                let item = ItemId::new(i as u32);
                lock.queue.iter().map(move |&(t, _)| (t, item))
            })
            .collect();
        out.sort_unstable_by_key(|&(t, i)| (i, t));
        out
    }

    /// The transactions `txn` is waiting for on `item`: every incompatible
    /// current holder plus every queued-ahead waiter (FIFO queues make a
    /// request wait on whatever precedes it).
    ///
    /// Returns an empty vector when `txn` is not queued on `item`.
    pub fn waits_for(&self, txn: TxnId, item: ItemId) -> Vec<TxnId> {
        let mut out = Vec::new();
        self.waits_for_into(txn, item, &mut out);
        out
    }

    /// True when some other transaction may wait for `txn` here: one is
    /// queued on an item `txn` holds, or queued behind `txn`.
    ///
    /// This is a mode-blind superset of "some [`waits_for`] list names
    /// `txn`": a waiter queued behind `txn` in a compatible mode still
    /// counts. A `false` is exact — no waits-for edge enters `txn` — which
    /// is what lets the engines skip a deadlock search from a transaction
    /// that just blocked (any cycle through it needs an edge into it).
    ///
    /// [`waits_for`]: Self::waits_for
    pub fn is_waited_on(&self, txn: TxnId) -> bool {
        let queue_of = |item: ItemId| self.items.get(item.index()).map(|l| &l.queue);
        let behind = self.queued_on(txn).and_then(queue_of).and_then(|q| {
            q.iter()
                .position(|&(t, _)| t == txn)
                .map(|p| p + 1 < q.len())
        });
        behind == Some(true)
            || self
                .held_by(txn)
                .iter()
                .filter_map(|&item| queue_of(item))
                .any(|q| q.iter().any(|&(t, _)| t != txn))
    }

    /// Allocation-free variant of [`waits_for`](Self::waits_for): appends
    /// the (sorted, deduplicated) blockers to `out`, leaving anything
    /// already in `out` untouched. This is the deadlock detector's hot
    /// path — it runs on every ungrantable request.
    pub fn waits_for_into(&self, txn: TxnId, item: ItemId, out: &mut Vec<TxnId>) {
        let Some(lock) = self.items.get(item.index()) else {
            return;
        };
        let Some(pos) = lock.queue.iter().position(|&(t, _)| t == txn) else {
            return;
        };
        let my_mode = lock.queue[pos].1;
        let start = out.len();
        out.extend(
            lock.holders
                .iter()
                .filter(|&&(t, m)| t != txn && !m.compatible(my_mode))
                .map(|&(t, _)| t),
        );
        for &(t, m) in lock.queue.iter().take(pos) {
            // Queued-ahead conflicting requests also block us under FIFO.
            if t != txn && (!m.compatible(my_mode) || out[start..].contains(&t)) {
                out.push(t);
            }
        }
        out[start..].sort_unstable();
        // Dedup the appended range in place.
        let mut w = start;
        for r in start..out.len() {
            if w == start || out[w - 1] != out[r] {
                out[w] = out[r];
                w += 1;
            }
        }
        out.truncate(w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use LockMode::{Exclusive, Shared};

    fn t(i: u32) -> TxnId {
        TxnId::new(i)
    }
    fn x(i: u32) -> ItemId {
        ItemId::new(i)
    }

    #[test]
    fn shared_locks_coexist() {
        let mut lt = LockTable::new();
        assert_eq!(lt.acquire(t(1), x(0), Shared), AcquireOutcome::Granted);
        assert_eq!(lt.acquire(t(2), x(0), Shared), AcquireOutcome::Granted);
        assert_eq!(lt.holders(x(0)).len(), 2);
    }

    #[test]
    fn exclusive_blocks_everything() {
        let mut lt = LockTable::new();
        assert_eq!(lt.acquire(t(1), x(0), Exclusive), AcquireOutcome::Granted);
        assert_eq!(lt.acquire(t(2), x(0), Shared), AcquireOutcome::Queued);
        assert_eq!(lt.acquire(t(3), x(0), Exclusive), AcquireOutcome::Queued);
    }

    #[test]
    fn fifo_fairness_no_reader_overtaking() {
        let mut lt = LockTable::new();
        lt.acquire(t(1), x(0), Shared);
        assert_eq!(lt.acquire(t(2), x(0), Exclusive), AcquireOutcome::Queued);
        // A third reader must not jump the queued writer.
        assert_eq!(lt.acquire(t(3), x(0), Shared), AcquireOutcome::Queued);
    }

    #[test]
    fn release_grants_next_in_fifo_order() {
        let mut lt = LockTable::new();
        lt.acquire(t(1), x(0), Exclusive);
        lt.acquire(t(2), x(0), Shared);
        lt.acquire(t(3), x(0), Shared);
        lt.acquire(t(4), x(0), Exclusive);
        let woken = lt.release_all(t(1));
        // Both leading readers wake together; the writer stays queued.
        assert_eq!(woken, vec![(x(0), t(2), Shared), (x(0), t(3), Shared)]);
        let woken = lt.release_all(t(2));
        assert!(woken.is_empty());
        let woken = lt.release_all(t(3));
        assert_eq!(woken, vec![(x(0), t(4), Exclusive)]);
    }

    #[test]
    fn release_all_covers_multiple_items() {
        let mut lt = LockTable::new();
        lt.acquire(t(1), x(0), Exclusive);
        lt.acquire(t(1), x(1), Exclusive);
        lt.acquire(t(2), x(0), Shared);
        lt.acquire(t(3), x(1), Shared);
        let mut woken = lt.release_all(t(1));
        woken.sort_by_key(|&(i, _, _)| i);
        assert_eq!(woken, vec![(x(0), t(2), Shared), (x(1), t(3), Shared)]);
        assert!(lt.held_by(t(1)).is_empty());
    }

    #[test]
    fn abort_of_queued_txn_unblocks_queue() {
        let mut lt = LockTable::new();
        lt.acquire(t(1), x(0), Shared);
        lt.acquire(t(2), x(0), Exclusive); // queued
        lt.acquire(t(3), x(0), Shared); // queued behind writer
                                        // Abort the queued writer: the reader should now be grantable.
        let woken = lt.release_all(t(2));
        assert_eq!(woken, vec![(x(0), t(3), Shared)]);
    }

    #[test]
    fn rerequest_same_mode_is_granted() {
        let mut lt = LockTable::new();
        lt.acquire(t(1), x(0), Shared);
        assert_eq!(lt.acquire(t(1), x(0), Shared), AcquireOutcome::Granted);
        assert_eq!(lt.holders(x(0)).len(), 1);
    }

    #[test]
    fn sole_holder_upgrade_succeeds_in_place() {
        let mut lt = LockTable::new();
        lt.acquire(t(1), x(0), Shared);
        assert_eq!(lt.acquire(t(1), x(0), Exclusive), AcquireOutcome::Granted);
        assert_eq!(lt.mode_of(t(1), x(0)), Some(Exclusive));
    }

    #[test]
    fn contended_upgrade_waits_for_other_readers() {
        let mut lt = LockTable::new();
        lt.acquire(t(1), x(0), Shared);
        lt.acquire(t(2), x(0), Shared);
        assert_eq!(lt.acquire(t(1), x(0), Exclusive), AcquireOutcome::Queued);
        let woken = lt.release_all(t(2));
        assert_eq!(woken, vec![(x(0), t(1), Exclusive)]);
        assert_eq!(lt.mode_of(t(1), x(0)), Some(Exclusive));
    }

    #[test]
    fn waits_for_includes_holders_and_queued_ahead() {
        let mut lt = LockTable::new();
        lt.acquire(t(1), x(0), Exclusive);
        lt.acquire(t(2), x(0), Exclusive);
        lt.acquire(t(3), x(0), Exclusive);
        assert_eq!(lt.waits_for(t(3), x(0)), vec![t(1), t(2)]);
        assert_eq!(lt.waits_for(t(2), x(0)), vec![t(1)]);
        assert!(lt.waits_for(t(1), x(0)).is_empty()); // holder, not waiter
    }

    #[test]
    fn waits_for_shared_ignores_compatible_holders() {
        let mut lt = LockTable::new();
        lt.acquire(t(1), x(0), Shared);
        lt.acquire(t(2), x(0), Exclusive);
        lt.acquire(t(3), x(0), Shared);
        // t3 (S) waits on the queued-ahead writer t2; t1 (S holder) is
        // compatible but t2 is between them.
        assert_eq!(lt.waits_for(t(3), x(0)), vec![t(2)]);
    }

    #[test]
    fn exclusive_waiter_makes_its_holder_waited_on() {
        let mut lt = LockTable::new();
        lt.acquire(t(1), x(0), Exclusive);
        assert!(!lt.is_waited_on(t(1)), "nothing queued yet");
        lt.acquire(t(2), x(0), Exclusive);
        assert!(lt.is_waited_on(t(1)));
        assert_eq!(lt.waits_for(t(2), x(0)), vec![t(1)]);
        assert!(
            !lt.is_waited_on(t(2)),
            "the last waiter has nobody behind it"
        );
    }

    #[test]
    fn upgrade_queued_at_the_front_is_waited_on_from_behind() {
        let mut lt = LockTable::new();
        lt.acquire(t(1), x(0), Shared);
        lt.acquire(t(2), x(0), Shared);
        lt.acquire(t(3), x(0), Exclusive); // queued behind both readers
        assert_eq!(lt.acquire(t(1), x(0), Exclusive), AcquireOutcome::Queued);
        // t1 holds S and waits at the front: t3 waits on it both as an
        // incompatible holder and as a queued-ahead writer, and t1 itself
        // waits on the other reader.
        assert!(lt.is_waited_on(t(1)));
        assert!(lt.waits_for(t(3), x(0)).contains(&t(1)));
        assert_eq!(lt.waits_for(t(1), x(0)), vec![t(2)]);
        assert!(lt.is_waited_on(t(2)));
        assert!(!lt.is_waited_on(t(3)));
    }

    #[test]
    fn last_queued_txn_holding_nothing_is_not_waited_on() {
        let mut lt = LockTable::new();
        lt.acquire(t(1), x(0), Exclusive);
        lt.acquire(t(2), x(1), Exclusive);
        lt.acquire(t(3), x(0), Shared);
        lt.acquire(t(4), x(0), Exclusive);
        assert!(lt.held_by(t(4)).is_empty());
        assert!(!lt.is_waited_on(t(4)));
        assert!(lt.is_waited_on(t(3)), "t4 is queued behind t3");
        assert!(!lt.is_waited_on(t(2)), "nobody queues on x1");
        assert!(
            !lt.is_waited_on(t(9)),
            "unknown transactions are not waited on"
        );
    }

    #[test]
    fn shared_waiters_are_counted_without_comparing_modes() {
        // A shared holder: the reader t3 queued behind the writer t2 does
        // not wait for t1 (S is compatible with S), but t2 does, so `true`
        // is exact here. FIFO queues keep it so: a reader at the front of
        // a queue whose holders are all readers would have been granted,
        // so a shared holder with a non-empty queue always has a writer
        // waiting on it.
        let mut lt = LockTable::new();
        lt.acquire(t(1), x(0), Shared);
        lt.acquire(t(2), x(0), Exclusive);
        lt.acquire(t(3), x(0), Shared);
        assert!(lt.is_waited_on(t(1)));
        assert!(lt.waits_for(t(2), x(0)).contains(&t(1)));
        assert!(!lt.waits_for(t(3), x(0)).contains(&t(1)));
        // Two readers queued behind a writer: the second does not wait
        // for the first, yet the first reports `true` — the answer does
        // not compare modes, so it over-approximates here.
        let mut lt = LockTable::new();
        lt.acquire(t(1), x(0), Exclusive);
        lt.acquire(t(2), x(0), Shared);
        lt.acquire(t(3), x(0), Shared);
        assert_eq!(lt.waits_for(t(3), x(0)), vec![t(1)]);
        assert!(lt.is_waited_on(t(2)), "over-approximated: t3 is compatible");
    }

    #[test]
    fn queued_on_tracks_waits() {
        let mut lt = LockTable::new();
        lt.acquire(t(1), x(0), Exclusive);
        assert_eq!(lt.queued_on(t(1)), None, "holders are not queued");
        lt.acquire(t(2), x(0), Shared);
        assert_eq!(lt.queued_on(t(2)), Some(x(0)));
        lt.release_all(t(1));
        assert_eq!(lt.queued_on(t(2)), None, "granted waiters leave the index");
        lt.acquire(t(3), x(0), Exclusive);
        assert_eq!(lt.queued_on(t(3)), Some(x(0)));
        lt.release_all(t(3));
        assert_eq!(lt.queued_on(t(3)), None, "aborted waiters leave the index");
    }

    #[test]
    fn all_waiters_lists_queued_requests() {
        let mut lt = LockTable::new();
        lt.acquire(t(1), x(0), Exclusive);
        lt.acquire(t(2), x(0), Shared);
        lt.acquire(t(3), x(1), Exclusive);
        lt.acquire(t(4), x(1), Exclusive);
        assert_eq!(lt.all_waiters(), vec![(t(2), x(0)), (t(4), x(1))]);
        lt.release_all(t(1));
        assert_eq!(lt.all_waiters(), vec![(t(4), x(1))]);
    }

    #[test]
    fn quiescence() {
        let mut lt = LockTable::new();
        assert!(lt.is_quiescent());
        lt.acquire(t(1), x(0), Shared);
        assert!(!lt.is_quiescent());
        lt.release_all(t(1));
        assert!(lt.is_quiescent());
    }
}
