//! SM fixture: a transaction state machine with a seeded dead state.
//! `Wedged` is only ever entered from itself, so it is unreachable from
//! the initial `Active` — both the state and its self-transition must
//! be flagged. The `Active -> Committed` path is live and stays clean.
//! `sm_shared.rs` adds the transitions shared by every `Engine`.

pub enum TxnStatus {
    Active,
    Wedged, // seeded: unreachable from Active
    Committed,
}

pub fn open(txn_id: u64) -> Txn {
    Txn {
        id: txn_id,
        status: TxnStatus::Active,
    }
}

impl Engine for Txn {}

impl Txn {
    pub fn seal(&mut self) {
        self.set_status(TxnStatus::Committed); // clean: implicit Active -> Committed
    }

    pub fn wedge_more(&mut self) {
        if self.status == TxnStatus::Wedged {
            self.set_status(TxnStatus::Wedged); // seeded: source state is dead
        }
    }
}
