//! Test oracle for window-close ordering: the original `BTreeSet`
//! precedence DAG and the O(n³) selection loop that called `precedes`
//! for every pair at every step. [`OrderingRule::order`] must produce the
//! same forward lists and leave the same precedence relation behind.

use crate::dag::PrecedenceDag;
use crate::list::FlEntry;
use crate::order::{BaseOrder, OrderingRule};
use crate::window::PendingReq;
use g2pl_simcore::TxnId;
use std::collections::{BTreeMap, BTreeSet};

/// The precedence DAG as sets of direct successors and predecessors.
#[derive(Default)]
struct RefDag {
    succ: BTreeMap<TxnId, BTreeSet<TxnId>>,
    pred: BTreeMap<TxnId, BTreeSet<TxnId>>,
}

impl RefDag {
    fn add_order(&mut self, before: TxnId, after: TxnId) {
        self.succ.entry(before).or_default().insert(after);
        self.pred.entry(after).or_default().insert(before);
    }

    fn precedes(&self, a: TxnId, b: TxnId) -> bool {
        if a == b {
            return false;
        }
        let mut stack = vec![a];
        let mut seen = BTreeSet::new();
        while let Some(t) = stack.pop() {
            if let Some(next) = self.succ.get(&t) {
                for &n in next {
                    if n == b {
                        return true;
                    }
                    if seen.insert(n) {
                        stack.push(n);
                    }
                }
            }
        }
        false
    }

    fn remove_txn(&mut self, txn: TxnId) {
        let preds = self.pred.remove(&txn).unwrap_or_default();
        let succs = self.succ.remove(&txn).unwrap_or_default();
        for &p in &preds {
            if let Some(s) = self.succ.get_mut(&p) {
                s.remove(&txn);
            }
        }
        for &s in &succs {
            if let Some(p) = self.pred.get_mut(&s) {
                p.remove(&txn);
            }
        }
        for &p in &preds {
            for &s in &succs {
                if p != s {
                    self.add_order(p, s);
                }
            }
        }
    }

    /// The selection loop `OrderingRule::order` used before it computed
    /// the window's reachability once.
    fn order(&mut self, rule: OrderingRule, mut pending: Vec<PendingReq>) -> Vec<FlEntry> {
        let key = |r: &PendingReq| -> (u8, i64, u64) {
            let reader_rank = if rule.coalesce_readers {
                u8::from(r.entry.mode.is_exclusive())
            } else {
                0
            };
            let age_rank = match rule.base {
                BaseOrder::Fifo => 0,
                BaseOrder::Aging => -i64::from(r.restarts),
            };
            (reader_rank, age_rank, r.arrival)
        };
        let mut out: Vec<FlEntry> = Vec::with_capacity(pending.len());
        while !pending.is_empty() {
            let eligible = |i: usize, pending: &[PendingReq]| -> bool {
                if !rule.consistent {
                    return true;
                }
                let me = pending[i].entry.txn;
                pending
                    .iter()
                    .enumerate()
                    .all(|(j, other)| j == i || !self.precedes(other.entry.txn, me))
            };
            let pick = (0..pending.len())
                .filter(|&i| eligible(i, &pending))
                .min_by_key(|&i| key(&pending[i]))
                // lint:allow(L3): the DAG is acyclic, so some pending request is unconstrained
                .expect("acyclic DAG always leaves an eligible request");
            out.push(pending.remove(pick).entry);
        }
        if rule.consistent {
            for w in out.windows(2) {
                if !self.precedes(w[0].txn, w[1].txn) {
                    self.add_order(w[0].txn, w[1].txn);
                }
            }
        }
        out
    }
}

mod tests {
    use super::*;
    use g2pl_lockmgr::LockMode;
    use g2pl_simcore::ClientId;
    use proptest::prelude::*;

    const TXNS: u32 = 16;

    /// A window of distinct transactions (as `CollectionWindow` keeps
    /// them), with arrivals that can tie so the first-index tie-break is
    /// exercised too.
    fn arb_window() -> impl Strategy<Value = Vec<PendingReq>> {
        proptest::collection::vec((0..TXNS, any::<bool>(), 0..4u32), 0..12).prop_map(|v| {
            let mut seen = BTreeSet::new();
            v.into_iter()
                .filter(|(t, _, _)| seen.insert(*t))
                .enumerate()
                .map(|(i, (t, exclusive, restarts))| PendingReq {
                    entry: FlEntry::new(
                        TxnId::new(t),
                        ClientId::new(t),
                        if exclusive {
                            LockMode::Exclusive
                        } else {
                            LockMode::Shared
                        },
                    ),
                    arrival: (i / 2) as u64,
                    restarts,
                })
                .collect()
        })
    }

    fn rule(code: u8) -> OrderingRule {
        OrderingRule {
            base: if code & 1 == 0 {
                BaseOrder::Fifo
            } else {
                BaseOrder::Aging
            },
            // Three in four windows respect the DAG, as the paper's
            // default g-2PL does.
            consistent: code & 6 != 0,
            coalesce_readers: code & 8 != 0,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A random script of `add_order`, `remove_txn` and window closes
        /// under random rules: every forward list, and the precedence
        /// relation after every step, match the reference.
        #[test]
        fn order_matches_the_reference_loop(
            script in proptest::collection::vec((0..6u8, 0..TXNS, 0..TXNS), 1..40),
            windows in proptest::collection::vec(arb_window(), 1..8),
            rules in proptest::collection::vec(0..16u8, 1..8),
        ) {
            let mut dag = PrecedenceDag::new();
            let mut reference = RefDag::default();
            let mut closes = 0usize;
            for (op, a, b) in script {
                let (a, b) = (TxnId::new(a), TxnId::new(b));
                match op {
                    0 | 1 => {
                        if a != b && !reference.precedes(b, a) {
                            dag.add_order(a, b);
                            reference.add_order(a, b);
                        }
                    }
                    2 => {
                        dag.remove_txn(a);
                        reference.remove_txn(a);
                    }
                    _ => {
                        let pending = windows[closes % windows.len()].clone();
                        let rule = rule(rules[closes % rules.len()]);
                        closes += 1;
                        let want = reference.order(rule, pending.clone());
                        let got = rule.order(pending, &mut dag);
                        prop_assert_eq!(got.entries(), &want[..]);
                    }
                }
                for x in 0..TXNS {
                    for y in 0..TXNS {
                        let (x, y) = (TxnId::new(x), TxnId::new(y));
                        prop_assert_eq!(dag.precedes(x, y), reference.precedes(x, y));
                    }
                }
                prop_assert!(dag.is_acyclic());
            }
        }
    }
}
