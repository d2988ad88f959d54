//! SM fixture (shared code): transitions generic over the engine trait
//! `Engine`. They run for every type implementing `Engine`, so their
//! edges belong to `sm_machine.rs`, the file with `impl Engine for Txn`,
//! and no machine is named after this file. A finding on one of them is
//! reported here, where the call sits.

pub fn force_commit<E: Engine>(eng: &mut E) {
    eng.set_status(TxnStatus::Committed); // clean: implicit Active -> Committed
}

pub fn unwedge<E>(eng: &mut E)
where
    E: Engine,
{
    if eng.status() == TxnStatus::Wedged {
        eng.set_status(TxnStatus::Active); // seeded: shared transition out of a dead state
    }
}
