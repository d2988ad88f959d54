//! Property-based tests of the lock table: under arbitrary interleavings
//! of acquire/release, the core locking invariants must hold.

use g2pl_lockmgr::{LockMode, LockTable};
use g2pl_simcore::{ItemId, TxnId};
use proptest::prelude::*;
use std::collections::HashSet;

#[derive(Clone, Debug)]
enum Op {
    Acquire {
        txn: u32,
        item: u32,
        exclusive: bool,
    },
    ReleaseAll {
        txn: u32,
    },
}

fn arb_op(txns: u32, items: u32) -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0..txns, 0..items, any::<bool>())
            .prop_map(|(txn, item, exclusive)| Op::Acquire { txn, item, exclusive }),
        1 => (0..txns).prop_map(|txn| Op::ReleaseAll { txn }),
    ]
}

/// Replay a script, checking invariants after every step.
fn run_script(ops: &[Op]) {
    let mut lt = LockTable::new();
    // Track which txns have released (simulating "finished" txns that
    // must not acquire again under strict 2PL).
    let mut finished: HashSet<u32> = HashSet::new();
    for op in ops {
        match *op {
            Op::Acquire {
                txn,
                item,
                exclusive,
            } => {
                if finished.contains(&txn) {
                    continue; // strict 2PL: no acquiring after release
                }
                let mode = if exclusive {
                    LockMode::Exclusive
                } else {
                    LockMode::Shared
                };
                let _ = lt.acquire(TxnId::new(txn), ItemId::new(item), mode);
            }
            Op::ReleaseAll { txn } => {
                finished.insert(txn);
                lt.release_all(TxnId::new(txn));
            }
        }
        check_invariants(&lt, 16);
    }
}

/// The invariants: no incompatible co-holders; holders never also queued
/// on the same item (except upgrades); held_by matches holders.
fn check_invariants(lt: &LockTable, items: u32) {
    for i in 0..items {
        let item = ItemId::new(i);
        let holders = lt.holders(item);
        // Pairwise compatibility (the same txn can appear once only).
        for (a_idx, &(a, am)) in holders.iter().enumerate() {
            for &(b, bm) in &holders[a_idx + 1..] {
                assert_ne!(a, b, "duplicate holder {a} on {item}");
                assert!(
                    am.compatible(bm),
                    "incompatible co-holders on {item}: {a}:{am} and {b}:{bm}"
                );
            }
        }
        // Queued requests exist only while an incompatibility or a
        // nonempty queue justifies them: at minimum, a queued request
        // must not be trivially grantable ahead of everything.
        let waiters: Vec<_> = lt.waiters(item).collect();
        if let Some(&(first, mode)) = waiters.first() {
            let blocked = holders
                .iter()
                .any(|&(h, hm)| h != first && !hm.compatible(mode));
            assert!(
                blocked || holders.iter().any(|&(h, _)| h == first),
                "head waiter {first}:{mode} on {item} should have been granted; holders={holders:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn invariants_hold_under_random_scripts(
        ops in proptest::collection::vec(arb_op(12, 16), 1..200)
    ) {
        run_script(&ops);
    }

    /// Releasing everything leaves the table quiescent.
    #[test]
    fn full_release_is_quiescent(
        ops in proptest::collection::vec(arb_op(10, 8), 1..100)
    ) {
        let mut lt = LockTable::new();
        for op in &ops {
            if let Op::Acquire { txn, item, exclusive } = *op {
                let mode = if exclusive { LockMode::Exclusive } else { LockMode::Shared };
                let _ = lt.acquire(TxnId::new(txn), ItemId::new(item), mode);
            }
        }
        for t in 0..10 {
            lt.release_all(TxnId::new(t));
        }
        prop_assert!(lt.is_quiescent());
    }

    /// Wake-ups granted by release are immediately visible as holders.
    #[test]
    fn woken_requests_become_holders(
        ops in proptest::collection::vec(arb_op(10, 8), 1..100)
    ) {
        let mut lt = LockTable::new();
        for op in &ops {
            match *op {
                Op::Acquire { txn, item, exclusive } => {
                    let mode = if exclusive { LockMode::Exclusive } else { LockMode::Shared };
                    let _ = lt.acquire(TxnId::new(txn), ItemId::new(item), mode);
                }
                Op::ReleaseAll { txn } => {
                    let woken = lt.release_all(TxnId::new(txn));
                    for (item, t, mode) in woken {
                        // A duplicate queued request may have upgraded the
                        // hold immediately after the first grant, so the
                        // held mode must be at least the woken mode.
                        let held = lt.mode_of(t, item);
                        prop_assert!(
                            held.is_some_and(|h| h.max(mode) == h),
                            "woken ({}, {}) must hold ≥ {}, holds {:?}", t, item, mode, held
                        );
                    }
                }
            }
        }
    }
}
