//! # g2pl-lockmgr
//!
//! The server-side lock manager substrate used by the s-2PL baseline (and
//! by the c-2PL extension) of the g-2PL reproduction.
//!
//! The paper's s-2PL protocol (§3.1) is strict two-phase locking at the
//! data server: clients request items, the server acquires a read (shared)
//! or write (exclusive) lock on their behalf, ships the item, and releases
//! every lock at transaction end. Requests that cannot be granted are
//! enqueued; a deadlock check is run whenever a lock cannot be granted
//! immediately (§4: "deadlock detection is initiated when a lock cannot
//! be granted"), and victims are aborted. The check itself lives with
//! the engines: they search the waits-for relation the table exposes
//! ([`table::LockTable::waits_for_into`]) lazily, without building a
//! graph, and skip the search when nothing waits on the blocked
//! transaction ([`table::LockTable::is_waited_on`]).
//!
//! Components:
//! * [`mode::LockMode`] — S/X modes with the standard compatibility matrix;
//! * [`table::LockTable`] — per-item holders + FIFO wait queues;
//! * [`victim::VictimPolicy`] — which deadlocked transaction to abort.

pub mod mode;
pub mod table;
pub mod victim;

pub use mode::LockMode;
pub use table::{AcquireOutcome, LockTable};
pub use victim::VictimPolicy;
