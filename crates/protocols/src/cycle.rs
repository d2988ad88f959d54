//! Reusable lazy cycle search over implicit waits-for relations.
//!
//! Deadlock detection runs on every request that cannot be granted, so
//! the DFS here is engineered to allocate nothing on the steady state:
//! visited colours live in an epoch-stamped slab indexed by the dense
//! `TxnId` (bumping the epoch invalidates every mark in O(1) — no
//! clearing sweep), successor lists are stored in one arena that grows
//! and shrinks with the DFS stack, and the discovered cycle is returned
//! as a slice of the internal path buffer.
//!
//! The search order is identical to the recursive formulation the
//! engines originally used: successors of a node are expanded exactly
//! once, in the order the `succ` callback produced them, and the first
//! back edge found closes the reported cycle. Simulated outcomes (which
//! cycle is found, hence which victim dies) therefore do not change.

use g2pl_simcore::TxnId;

const ON_PATH: u8 = 1;
const DONE: u8 = 2;

#[derive(Clone, Copy)]
struct Frame {
    arena_start: usize,
    arena_end: usize,
    child: usize,
}

/// An allocation-reusing DFS cycle finder over `TxnId` graphs.
#[derive(Default)]
pub(crate) struct CycleFinder {
    /// DFS colour per txn index; only valid where `stamp` equals `epoch`.
    state: Vec<u8>,
    stamp: Vec<u32>,
    epoch: u32,
    /// Nodes on the current DFS path, root first.
    path: Vec<TxnId>,
    /// One frame per path node: its successor range in `arena` and cursor.
    frames: Vec<Frame>,
    /// Concatenated successor lists of the nodes on the path.
    arena: Vec<TxnId>,
    /// Staging buffer handed to the `succ` callback.
    scratch: Vec<TxnId>,
}

impl CycleFinder {
    #[inline]
    fn color(&self, t: TxnId) -> u8 {
        let i = t.index();
        if i < self.state.len() && self.stamp[i] == self.epoch {
            self.state[i]
        } else {
            0
        }
    }

    #[inline]
    fn set_color(&mut self, t: TxnId, c: u8) {
        let i = t.index();
        if self.state.len() <= i {
            self.state.resize(i + 1, 0);
            self.stamp.resize(i + 1, 0);
        }
        self.state[i] = c;
        self.stamp[i] = self.epoch;
    }

    /// Push `node` onto the DFS path, expanding its successors into the
    /// arena via `succ` (called with an empty staging buffer; whatever it
    /// appends, in that order, becomes the successor list).
    fn push_node(&mut self, node: TxnId, succ: &mut impl FnMut(TxnId, &mut Vec<TxnId>)) {
        self.set_color(node, ON_PATH);
        self.path.push(node);
        self.scratch.clear();
        succ(node, &mut self.scratch);
        let arena_start = self.arena.len();
        self.arena.extend_from_slice(&self.scratch);
        self.frames.push(Frame {
            arena_start,
            arena_end: self.arena.len(),
            child: arena_start,
        });
    }

    /// Search for a waits-for cycle after `start` began to wait, as
    /// [`find_cycle`](Self::find_cycle) does, given whether any edge
    /// enters `start` (`waited_on`; an over-approximation is fine).
    ///
    /// The engines keep the waits-for graph acyclic: every earlier block
    /// was searched and its cycles broken, and a grant only adds edges
    /// into a running transaction, which has none out. So a cycle the
    /// search could reach from `start` passes through `start`, and needs
    /// an edge into it. Without one the search would return `None`, so it
    /// is skipped. Debug builds run it anyway and assert that it finds
    /// nothing. Inside another search's victim loop the graph may still
    /// hold that search's cycles, so a caller there passes `true`.
    pub(crate) fn find_new_cycle(
        &mut self,
        start: TxnId,
        waited_on: bool,
        succ: impl FnMut(TxnId, &mut Vec<TxnId>),
    ) -> Option<&[TxnId]> {
        if !waited_on {
            debug_assert!(
                self.find_cycle(start, succ).is_none(),
                "skipped the search from {start} (nothing waits on it), yet it reaches a waits-for cycle"
            );
            return None;
        }
        self.find_cycle(start, succ)
    }

    /// Search for a cycle reachable from `start`. Returns the cycle as a
    /// path slice (entry node first) or `None`. The slice borrows the
    /// finder's internal buffer and is only valid until the next call.
    pub(crate) fn find_cycle(
        &mut self,
        start: TxnId,
        mut succ: impl FnMut(TxnId, &mut Vec<TxnId>),
    ) -> Option<&[TxnId]> {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // The stamp space wrapped: old marks could alias the new
            // epoch, so clear them once and restart from epoch 1.
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.path.clear();
        self.frames.clear();
        self.arena.clear();
        self.push_node(start, &mut succ);
        loop {
            let top = self.frames.len().checked_sub(1)?;
            let f = self.frames[top];
            if f.child < f.arena_end {
                self.frames[top].child += 1;
                let next = self.arena[f.child];
                match self.color(next) {
                    ON_PATH => {
                        let pos = self
                            .path
                            .iter()
                            .position(|&t| t == next)
                            // lint:allow(L3): ON_PATH means next is on the path
                            .expect("on-path node is on path");
                        return Some(&self.path[pos..]);
                    }
                    DONE => {}
                    _ => self.push_node(next, &mut succ),
                }
            } else {
                // lint:allow(L3): frames and path push/pop in lockstep
                let node = self.path.pop().expect("path tracks frames");
                self.set_color(node, DONE);
                self.frames.pop();
                self.arena.truncate(f.arena_start);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TxnId {
        TxnId::new(i)
    }

    fn graph(edges: &[(u32, u32)]) -> impl Fn(TxnId, &mut Vec<TxnId>) + '_ {
        move |n, out| {
            out.extend(
                edges
                    .iter()
                    .filter(|&&(a, _)| t(a) == n)
                    .map(|&(_, b)| t(b)),
            );
        }
    }

    #[test]
    fn finds_self_loop() {
        let mut f = CycleFinder::default();
        let g = graph(&[(1, 1)]);
        assert_eq!(f.find_cycle(t(1), g), Some(&[t(1)][..]));
    }

    #[test]
    fn finds_two_cycle_from_either_end() {
        let edges = [(1, 2), (2, 1)];
        let mut f = CycleFinder::default();
        assert_eq!(f.find_cycle(t(1), graph(&edges)), Some(&[t(1), t(2)][..]));
        assert_eq!(f.find_cycle(t(2), graph(&edges)), Some(&[t(2), t(1)][..]));
    }

    #[test]
    fn reports_only_the_cycle_not_the_tail() {
        // 5 -> 6 -> 7 -> 6: the cycle excludes the entry tail.
        let edges = [(5, 6), (6, 7), (7, 6)];
        let mut f = CycleFinder::default();
        assert_eq!(f.find_cycle(t(5), graph(&edges)), Some(&[t(6), t(7)][..]));
    }

    #[test]
    fn acyclic_graph_finds_nothing() {
        let edges = [(1, 2), (1, 3), (2, 3), (3, 4)];
        let mut f = CycleFinder::default();
        assert_eq!(f.find_cycle(t(1), graph(&edges)), None);
    }

    #[test]
    fn no_cycle_in_dag() {
        // A transitive edge 1 -> 3 next to 1 -> 2 -> 3: no start finds a cycle.
        let edges = [(1, 2), (2, 3), (1, 3)];
        let mut f = CycleFinder::default();
        for i in 1..=3 {
            assert_eq!(f.find_cycle(t(i), graph(&edges)), None, "from {i}");
        }
    }

    #[test]
    fn two_cycle_detected() {
        // The first-listed successor 3 is a dead end; the search must back
        // out of it and still find 1 <-> 2.
        let edges = [(1, 3), (1, 2), (2, 1)];
        let mut f = CycleFinder::default();
        let cycle = f.find_cycle(t(1), graph(&edges)).expect("cycle");
        assert_eq!(cycle.len(), 2);
        assert!(cycle.contains(&t(1)) && cycle.contains(&t(2)));
    }

    #[test]
    fn cycle_not_reachable_from_outside_branch() {
        // 1 -> 2 <-> 3 is a tail into a cycle; 4 -> 5 is a branch that
        // never reaches it.
        let edges = [(1, 2), (2, 3), (3, 2), (4, 5)];
        let mut f = CycleFinder::default();
        let cycle = f.find_cycle(t(1), graph(&edges)).expect("reachable cycle");
        assert_eq!(cycle.len(), 2);
        assert!(!cycle.contains(&t(1)), "tail node is not part of the cycle");
        assert_eq!(f.find_cycle(t(4), graph(&edges)), None);
    }

    #[test]
    fn diamond_is_not_a_cycle() {
        let edges = [(1, 2), (1, 3), (2, 4), (3, 4)];
        let mut f = CycleFinder::default();
        assert_eq!(f.find_cycle(t(1), graph(&edges)), None);
    }

    #[test]
    fn long_cycle_detected_from_any_member() {
        let edges: Vec<(u32, u32)> = (0..5).map(|i| (i, (i + 1) % 5)).collect();
        let mut f = CycleFinder::default();
        for i in 0..5 {
            let cycle = f.find_cycle(t(i), graph(&edges)).expect("cycle");
            assert_eq!(cycle.len(), 5);
            assert_eq!(cycle[0], t(i), "reported from the searching member");
        }
    }

    #[test]
    fn finder_state_resets_between_searches() {
        let mut f = CycleFinder::default();
        let acyclic = [(1, 2), (2, 3)];
        assert_eq!(f.find_cycle(t(1), graph(&acyclic)), None);
        // A later search over different edges must not see stale marks.
        let cyclic = [(1, 2), (2, 3), (3, 1)];
        assert_eq!(
            f.find_cycle(t(1), graph(&cyclic)),
            Some(&[t(1), t(2), t(3)][..])
        );
        assert_eq!(f.find_cycle(t(9), graph(&cyclic)), None);
    }

    #[test]
    fn finds_planted_ring_despite_chords() {
        // A ring 0 -> 1 -> ... -> n-1 -> 0 plus forward chords, over the
        // whole domain: the search from node 0 always reports a cycle,
        // and every reported edge exists.
        for n in 2u32..20 {
            for extra in 0u32..30 {
                let mut edges: Vec<(u32, u32)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
                edges.extend(
                    (0..extra)
                        .map(|e| ((e * 7) % n, (e * 13 + 1) % n))
                        .filter(|(a, b)| a != b),
                );
                let mut f = CycleFinder::default();
                let cycle = f
                    .find_cycle(t(0), graph(&edges))
                    .unwrap_or_else(|| panic!("ring of {n} with {extra} chords"))
                    .to_vec();
                for (i, &a) in cycle.iter().enumerate() {
                    let b = cycle[(i + 1) % cycle.len()];
                    assert!(edges.contains(&(a.0, b.0)), "{a} -> {b} is no edge");
                }
            }
        }
    }

    #[test]
    fn new_cycle_search_runs_only_when_something_waits() {
        // 1 -> 2 -> 1 closes through the start; the skip is never taken
        // while an edge enters it.
        let cyclic = [(1, 2), (2, 1)];
        let mut f = CycleFinder::default();
        assert_eq!(
            f.find_new_cycle(t(1), true, graph(&cyclic)),
            Some(&[t(1), t(2)][..])
        );
        // Nothing enters 3, and nothing it reaches is cyclic.
        let acyclic = [(3, 4), (4, 5)];
        assert_eq!(f.find_new_cycle(t(3), false, graph(&acyclic)), None);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "yet it reaches a waits-for cycle")]
    fn skipping_a_search_that_reaches_a_cycle_fails_in_debug() {
        // 1 waits on a cycle it is not part of: the acyclic invariant the
        // skip relies on is broken, and the debug oracle says so.
        let edges = [(1, 2), (2, 3), (3, 2)];
        let mut f = CycleFinder::default();
        let _ = f.find_new_cycle(t(1), false, graph(&edges));
    }

    #[test]
    fn successor_order_decides_which_cycle_is_found() {
        // Two cycles from 1; the one through the first-listed successor
        // must win, matching the engines' historical search order.
        let edges = [(1, 2), (1, 3), (2, 1), (3, 1)];
        let mut f = CycleFinder::default();
        assert_eq!(f.find_cycle(t(1), graph(&edges)), Some(&[t(1), t(2)][..]));
    }
}
