//! The global transaction precedence DAG (§3.3).
//!
//! "The forward list for each data item can be represented by a
//! transaction precedence graph… In order to ensure linear ordering,
//! transaction precedence graphs need to be made consistent. That is, two
//! transactions Ti and Tj must follow the same order in every precedence
//! graph involving Ti and Tj."
//!
//! We maintain the *union* of all per-item precedence graphs as one DAG.
//! Every window close orders its pending requests by a linear extension of
//! this DAG and inserts the resulting edges, so the union stays acyclic by
//! construction and any two dispatched forward lists order any two
//! transactions consistently — which eliminates deadlocks among
//! transactions whose conflicting requests land in the same collection
//! windows.

use g2pl_simcore::{Slab, TxnId};

/// An acyclic precedence relation over active transactions.
///
/// Adjacency is indexed by the dense `TxnId` in both directions (the
/// mirror lists hold the same edges, in no particular order). Searches
/// mark visited transactions in an epoch-stamped buffer that is reused
/// from one search to the next, so a window close allocates nothing here.
#[derive(Clone, Debug, Default)]
pub struct PrecedenceDag {
    succ: Slab<Vec<TxnId>>,
    pred: Slab<Vec<TxnId>>,
    /// Visit marks: a transaction is marked when its stamp equals `epoch`.
    stamp: Vec<u32>,
    epoch: u32,
    /// DFS stack of [`mark_reachable`](Self::mark_reachable).
    stack: Vec<TxnId>,
}

impl PrecedenceDag {
    /// Empty DAG.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that `before` precedes `after` in some forward list.
    ///
    /// # Panics
    /// Panics (in debug builds) if the edge would create a cycle — the
    /// window-close ordering must only add edges along a linear extension,
    /// so a cycle here is an engine bug, not an input condition.
    pub fn add_order(&mut self, before: TxnId, after: TxnId) {
        assert_ne!(before, after, "a transaction cannot precede itself");
        debug_assert!(
            !self.precedes(after, before),
            "adding {before:?} -> {after:?} would create a precedence cycle"
        );
        let succs = self.succ.ensure(before.index());
        if !succs.contains(&after) {
            succs.push(after);
            self.pred.ensure(after.index()).push(before);
        }
    }

    /// True when `a` (transitively) precedes `b`.
    ///
    /// Allocates its own visit marks; window closes use
    /// [`mark_reachable`](Self::mark_reachable) instead.
    pub fn precedes(&self, a: TxnId, b: TxnId) -> bool {
        if a == b {
            return false;
        }
        let mut seen = vec![false; self.span()];
        let mut stack = vec![a];
        while let Some(t) = stack.pop() {
            for &n in self.succ.get(t.index()).map_or(&[][..], Vec::as_slice) {
                if n == b {
                    return true;
                }
                if !std::mem::replace(&mut seen[n.index()], true) {
                    stack.push(n);
                }
            }
        }
        false
    }

    /// Mark every transaction that `from` (transitively) precedes,
    /// clearing the previous search's marks; [`is_marked`](Self::is_marked)
    /// then answers `precedes(from, t)` for any `t`.
    pub(crate) fn mark_reachable(&mut self, from: TxnId) {
        self.new_epoch();
        self.stack.clear();
        self.stack.push(from);
        while let Some(t) = self.stack.pop() {
            for &n in self.succ.get(t.index()).map_or(&[][..], Vec::as_slice) {
                let mark = &mut self.stamp[n.index()];
                if *mark != self.epoch {
                    *mark = self.epoch;
                    self.stack.push(n);
                }
            }
        }
    }

    /// Invalidate every visit mark in O(1), sizing the stamps to cover
    /// every transaction with an edge.
    fn new_epoch(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // The stamp space wrapped: old marks could alias the new
            // epoch, so clear them once and restart from epoch 1.
            self.stamp.fill(0);
            self.epoch = 1;
        }
        let span = self.span();
        if self.stamp.len() < span {
            self.stamp.resize(span, 0);
        }
    }

    /// One past the highest transaction index with an adjacency slot.
    fn span(&self) -> usize {
        self.succ.len().max(self.pred.len())
    }

    /// True when the last [`mark_reachable`](Self::mark_reachable) reached
    /// `t`.
    pub(crate) fn is_marked(&self, t: TxnId) -> bool {
        self.stamp.get(t.index()) == Some(&self.epoch)
    }

    /// Remove a finished transaction, preserving transitive constraints:
    /// every predecessor becomes a direct predecessor of every successor.
    ///
    /// Keeping the closure matters: if `a < t` and `t < b` were fixed by
    /// dispatched lists, then after `t` commits the serialization order
    /// between the still-active `a` and `b` is already determined and
    /// future windows must not order them the other way.
    pub fn remove_txn(&mut self, txn: TxnId) {
        let preds = self
            .pred
            .get_mut(txn.index())
            .map(std::mem::take)
            .unwrap_or_default();
        let succs = self
            .succ
            .get_mut(txn.index())
            .map(std::mem::take)
            .unwrap_or_default();
        let detach = |list: &mut Vec<TxnId>| {
            if let Some(pos) = list.iter().position(|&t| t == txn) {
                list.swap_remove(pos);
            }
        };
        for &p in &preds {
            if let Some(list) = self.succ.get_mut(p.index()) {
                detach(list);
            }
        }
        for &s in &succs {
            if let Some(list) = self.pred.get_mut(s.index()) {
                detach(list);
            }
        }
        for &p in &preds {
            // Mark p's direct successors so each bypass edge is added once.
            // p != s for every s: p precedes txn precedes s.
            self.new_epoch();
            let list = self.succ.ensure(p.index());
            for &t in list.iter() {
                self.stamp[t.index()] = self.epoch;
            }
            for &s in &succs {
                if self.stamp[s.index()] != self.epoch {
                    list.push(s);
                    self.pred.ensure(s.index()).push(p);
                }
            }
        }
    }

    /// Number of transactions with at least one constraint.
    pub fn constrained_count(&self) -> usize {
        (0..self.span())
            .filter(|&i| {
                let has = |s: &Slab<Vec<TxnId>>| s.get(i).is_some_and(|l| !l.is_empty());
                has(&self.succ) || has(&self.pred)
            })
            .count()
    }

    /// Verify acyclicity by Kahn's algorithm (test/debug helper; the DAG
    /// is acyclic by construction in production use).
    pub fn is_acyclic(&self) -> bool {
        let mut indeg: Vec<usize> = (0..self.span())
            .map(|i| self.pred.get(i).map_or(0, Vec::len))
            .collect();
        let mut ready: Vec<usize> = (0..indeg.len()).filter(|&i| indeg[i] == 0).collect();
        let mut removed = 0usize;
        while let Some(n) = ready.pop() {
            removed += 1;
            for &s in self.succ.get(n).map_or(&[][..], Vec::as_slice) {
                indeg[s.index()] -= 1;
                if indeg[s.index()] == 0 {
                    ready.push(s.index());
                }
            }
        }
        removed == indeg.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TxnId {
        TxnId::new(i)
    }

    #[test]
    fn direct_and_transitive_precedence() {
        let mut d = PrecedenceDag::new();
        d.add_order(t(1), t(2));
        d.add_order(t(2), t(3));
        assert!(d.precedes(t(1), t(2)));
        assert!(d.precedes(t(1), t(3)));
        assert!(!d.precedes(t(3), t(1)));
        assert!(!d.precedes(t(1), t(1)));
        assert!(d.is_acyclic());
    }

    #[test]
    fn removal_preserves_transitive_constraints() {
        let mut d = PrecedenceDag::new();
        d.add_order(t(1), t(2));
        d.add_order(t(2), t(3));
        d.remove_txn(t(2));
        assert!(d.precedes(t(1), t(3)), "closure edge must survive removal");
        assert!(!d.precedes(t(1), t(2)));
        assert!(!d.precedes(t(2), t(3)));
        assert!(d.is_acyclic());
    }

    #[test]
    fn removal_of_unknown_txn_is_noop() {
        let mut d = PrecedenceDag::new();
        d.add_order(t(1), t(2));
        d.remove_txn(t(99));
        assert!(d.precedes(t(1), t(2)));
    }

    #[test]
    fn diamond_closure() {
        let mut d = PrecedenceDag::new();
        d.add_order(t(1), t(2));
        d.add_order(t(1), t(3));
        d.add_order(t(2), t(4));
        d.add_order(t(3), t(4));
        d.remove_txn(t(2));
        d.remove_txn(t(3));
        assert!(d.precedes(t(1), t(4)));
        assert!(d.is_acyclic());
    }

    #[test]
    fn constrained_count_tracks_nodes() {
        let mut d = PrecedenceDag::new();
        assert_eq!(d.constrained_count(), 0);
        d.add_order(t(1), t(2));
        assert_eq!(d.constrained_count(), 2);
        d.add_order(t(2), t(3));
        assert_eq!(d.constrained_count(), 3);
    }

    #[test]
    #[should_panic(expected = "cannot precede itself")]
    fn self_order_panics() {
        let mut d = PrecedenceDag::new();
        d.add_order(t(1), t(1));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "precedence cycle")]
    fn cycle_insertion_panics_in_debug() {
        let mut d = PrecedenceDag::new();
        d.add_order(t(1), t(2));
        d.add_order(t(2), t(1));
    }
}
