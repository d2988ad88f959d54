//! The server-based strict two-phase locking (s-2PL) baseline of §3.1.
//!
//! Protocol summary (per transaction, best case): one lock-request round,
//! one grant round shipping the data, and one commit round returning every
//! dirty item and releasing all locks — the "three rounds" the paper
//! counts, or `2n + 1` rounds for `n` sequentially requested items.
//! Deadlocks are detected with a wait-for graph, rebuilt from the lock
//! table whenever a request cannot be granted (§4), and resolved by
//! aborting a victim chosen by the configured policy.
//!
//! The lock server itself is shared with c-2PL (`runtime::LockServer`);
//! s-2PL is that server with every hook at its default.

use crate::config::EngineConfig;
use crate::metrics::RunMetrics;
use crate::runtime::{
    abort_victim, finalize_abort, finish_commit, finish_recovery, on_client_msg, on_server_msg,
    run, Labels, LockCore, LockLabels, LockServer, Message, Protocol, Shell,
};
use g2pl_simcore::{ClientId, SimTime, TxnId};

/// Accounting labels of the messages the shared code sends.
const LABELS: Labels = Labels {
    lock_request: "s2pl.lock_request",
    abort_notice: "s2pl.abort_notice",
    commit_query: "s2pl.commit_query",
    commit_verdict: "s2pl.commit_verdict",
    reregister_req: "s2pl.reregister_req",
    prepare_ack: "s2pl.prepare_ack",
    prepare: "s2pl.prepare",
    commit: "s2pl.commit_release",
};

/// The s-2PL simulation engine.
pub struct S2plEngine {
    core: LockCore,
}

impl S2plEngine {
    /// Build an engine for `cfg`.
    pub fn new(cfg: EngineConfig) -> Self {
        S2plEngine {
            core: LockCore::new(cfg, LABELS),
        }
    }

    /// Run to completion and report metrics.
    pub fn run(self) -> RunMetrics {
        run(self)
    }
}

impl Protocol for S2plEngine {
    fn shell(&mut self) -> &mut Shell {
        &mut self.core.sh
    }

    fn issue_access(&mut self, now: SimTime, client: ClientId, txn: TxnId, idx: usize) {
        self.core.sh.request_access(now, client, txn, idx);
    }

    fn finish_commit(&mut self, now: SimTime, client: ClientId, txn: TxnId) {
        finish_commit(self, now, client, txn);
    }

    fn finalize_abort(&mut self, now: SimTime, client: ClientId, txn: TxnId) {
        finalize_abort(self, now, client, txn);
    }

    fn on_client_msg(&mut self, now: SimTime, client: ClientId, msg: Message) {
        on_client_msg(self, now, client, msg);
    }

    fn on_server_msg(&mut self, now: SimTime, shard: usize, msg: Message) {
        on_server_msg(self, now, shard, msg);
    }

    fn on_server_fault(&mut self, now: SimTime, shard: usize, up: bool) {
        self.core.server_fault(now, shard, up);
    }

    fn finish_recovery(&mut self, now: SimTime, shard: usize) {
        finish_recovery(self, now, shard);
    }

    fn abort_victim(&mut self, now: SimTime, victim: TxnId) {
        abort_victim(self, now, victim);
    }

    fn assert_drained(&self) {
        self.core.assert_drained();
    }

    fn into_metrics(self, events: u64) -> RunMetrics {
        self.core.sh.into_metrics("s-2PL", events)
    }
}

impl LockServer for S2plEngine {
    const LOCK_LABELS: LockLabels = LockLabels {
        grant: "s2pl.grant",
        commit_ack: "s2pl.commit_ack",
        reregister: "s2pl.reregister",
    };

    fn core(&self) -> &LockCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut LockCore {
        &mut self.core
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ProtocolKind;

    fn cfg(clients: u32, latency: u64, pr: f64) -> EngineConfig {
        let mut c = EngineConfig::table1(ProtocolKind::S2pl, clients, latency, pr);
        c.warmup_txns = 50;
        c.measured_txns = 300;
        c.drain = true;
        c
    }

    #[test]
    fn single_client_never_aborts() {
        let mut c = cfg(1, 10, 0.5);
        c.record_history = true;
        let m = S2plEngine::new(c).run();
        assert_eq!(m.aborted_total, 0, "no contention, no deadlock");
        assert!(m.committed_total >= 350);
        assert!(m.response.mean() > 0.0);
    }

    #[test]
    fn single_item_single_access_response_is_rtt_plus_think() {
        // One client, one item, exactly one access per txn: response =
        // 2 * latency (request + grant) + one think time in [1,3].
        let mut c = cfg(1, 100, 1.0);
        c.items = crate::config::ItemSpace::single(1);
        c.profile.min_items = 1;
        c.profile.max_items = 1;
        let m = S2plEngine::new(c).run();
        assert!(m.response.min().unwrap() >= 201.0);
        assert!(m.response.max().unwrap() <= 203.0);
    }

    #[test]
    fn contended_run_completes_with_aborts_counted() {
        let m = S2plEngine::new(cfg(10, 50, 0.2)).run();
        assert_eq!(
            m.aborts.trials(),
            300,
            "measurement window must be exactly full"
        );
        assert!(m.committed_total > 0);
        // With 10 clients on 25 hot items and 80% writes, some deadlocks
        // must occur.
        assert!(m.aborted_total > 0, "expected deadlock aborts");
    }

    #[test]
    fn read_only_workload_never_deadlocks() {
        let m = S2plEngine::new(cfg(10, 50, 1.0)).run();
        assert_eq!(m.aborted_total, 0, "S locks are all-compatible");
    }

    #[test]
    fn determinism_same_seed_same_metrics() {
        let a = S2plEngine::new(cfg(5, 100, 0.5)).run();
        let b = S2plEngine::new(cfg(5, 100, 0.5)).run();
        assert_eq!(a.response.mean(), b.response.mean());
        assert_eq!(a.committed_total, b.committed_total);
        assert_eq!(a.aborted_total, b.aborted_total);
        assert_eq!(a.net.messages(), b.net.messages());
    }

    #[test]
    fn different_seeds_differ() {
        let a = S2plEngine::new(cfg(5, 100, 0.5)).run();
        let mut c2 = cfg(5, 100, 0.5);
        c2.seed ^= 0xdead_beef;
        let b = S2plEngine::new(c2).run();
        assert_ne!(a.response.mean(), b.response.mean());
    }

    #[test]
    fn message_count_matches_formula_without_contention() {
        // 1 client => zero contention and zero aborts. Each txn with n
        // items costs n requests + n grants + 1 commit.
        let mut c = cfg(1, 10, 0.0);
        c.drain = true;
        let m = S2plEngine::new(c).run();
        let n_req = m.net.of_kind("s2pl.lock_request");
        let n_grant = m.net.of_kind("s2pl.grant");
        let n_commit = m.net.of_kind("s2pl.commit_release");
        assert_eq!(n_req, n_grant);
        assert_eq!(n_commit, m.committed_total);
        assert_eq!(m.net.messages(), n_req + n_grant + n_commit);
    }

    #[test]
    fn latency_dominates_response_time() {
        let low = S2plEngine::new(cfg(5, 1, 0.5)).run();
        let high = S2plEngine::new(cfg(5, 500, 0.5)).run();
        assert!(
            high.response.mean() > 50.0 * low.response.mean().max(1.0),
            "500-unit latency should dwarf 1-unit latency: {} vs {}",
            high.response.mean(),
            low.response.mean()
        );
    }

    #[test]
    fn lossy_run_completes_via_retries_and_leases() {
        // 5% message loss: the drain only empties the calendar if client
        // retransmission and the server's transaction lease recover every
        // lost request, grant, notice, and commit-release.
        let mut c = cfg(10, 50, 0.2);
        c.faults = Some(g2pl_faults::FaultPlan::message_loss(0.05));
        let m = S2plEngine::new(c).run();
        assert_eq!(m.aborts.trials(), 300, "measurement window filled");
        assert!(m.faults.injected.dropped > 0, "no faults injected");
        assert!(m.faults.retries > 0, "losses recovered without retries");
    }

    #[test]
    fn lossy_run_is_deterministic() {
        let mk = || {
            let mut c = cfg(8, 50, 0.3);
            c.faults = Some(g2pl_faults::FaultPlan::message_loss(0.08));
            S2plEngine::new(c).run()
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a.committed_total, b.committed_total);
        assert_eq!(a.aborted_total, b.aborted_total);
        assert_eq!(a.net.messages(), b.net.messages());
        assert_eq!(a.faults.injected, b.faults.injected);
    }

    #[test]
    fn inert_fault_plan_changes_nothing() {
        let base = S2plEngine::new(cfg(5, 100, 0.5)).run();
        let mut c = cfg(5, 100, 0.5);
        c.faults = Some(g2pl_faults::FaultPlan::default());
        let m = S2plEngine::new(c).run();
        assert_eq!(base.response.mean(), m.response.mean());
        assert_eq!(base.net.messages(), m.net.messages());
        assert_eq!(base.events, m.events);
        assert!(!m.faults.any());
    }

    #[test]
    fn server_crash_is_recovered() {
        let mut c = cfg(6, 50, 0.3);
        c.faults = Some(g2pl_faults::FaultPlan {
            server_crashes: vec![
                g2pl_faults::ServerCrashWindow::fixed(4_000, 1_500),
                g2pl_faults::ServerCrashWindow::fixed(15_000, 800),
            ],
            ..Default::default()
        });
        let m = S2plEngine::new(c).run();
        assert_eq!(m.faults.server_crashes, 2);
        assert!(m.faults.reregistrations > 0, "handshake never ran");
        assert!(m.faults.server_msgs_lost > 0, "outage lost no messages");
        assert_eq!(m.aborts.trials(), 300, "run completed despite crashes");
    }

    #[test]
    fn server_crash_run_is_deterministic() {
        let mk = || {
            let mut c = cfg(6, 50, 0.3);
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
            S2plEngine::new(c).run()
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a.committed_total, b.committed_total);
        assert_eq!(a.aborted_total, b.aborted_total);
        assert_eq!(a.net.messages(), b.net.messages());
        assert_eq!(a.faults.server_msgs_lost, b.faults.server_msgs_lost);
        assert_eq!(a.faults.reregistrations, b.faults.reregistrations);
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
        let m = S2plEngine::new(c).run();
        assert_eq!(m.faults.crashes, 1);
        assert_eq!(m.aborts.trials(), 300, "run completed despite the crash");
    }
}
