//! Sharded scale-out invariants.
//!
//! Multi-shard runs of every engine must preserve the single-server
//! guarantees: conflict-serializable committed histories, a clean trace
//! (P1–P9), drain to quiescence, and bit-determinism under a fixed
//! seed. A one-shard item space must stay *byte-identical* to the
//! pre-sharding engine (the committed fig2 fixture), and the fault
//! figures must stay byte-identical to their committed fixtures, so
//! refactors of the engines and their recovery code are provably
//! behavior-preserving.

use g2pl_core::prelude::*;

fn sharded_cfg(protocol: ProtocolKind, shards: u32, seed: u64) -> EngineConfig {
    let mut cfg = EngineConfig::table1(protocol, 10, 50, 0.5);
    cfg.items = ItemSpace::sharded(shards, 8);
    cfg.profile.max_items = 4;
    if shards > 1 {
        // Exercise the placement-aware generator: 40% multi-home
        // transactions over mildly skewed shard popularity.
        cfg.profile.shard_mix = Some(ShardMix {
            cross_frac: 0.4,
            shard_theta: 0.7,
        });
    }
    cfg.warmup_txns = 30;
    cfg.measured_txns = 250;
    cfg.seed = seed;
    cfg.drain = true;
    cfg.record_history = true;
    cfg.trace_events = true;
    cfg
}

fn protocols() -> Vec<ProtocolKind> {
    vec![
        ProtocolKind::S2pl,
        ProtocolKind::C2pl,
        ProtocolKind::g2pl_paper(),
    ]
}

#[test]
fn multi_shard_histories_are_serializable() {
    for p in protocols() {
        for shards in [2, 4, 7] {
            let cfg = sharded_cfg(p.clone(), shards, 11 + u64::from(shards));
            let m = run(&cfg).expect("valid config");
            let history = m.history.as_ref().expect("history enabled");
            check_serializable(history)
                .unwrap_or_else(|e| panic!("{} @ {shards} shards: {e}", m.protocol));
            assert_eq!(m.aborts.trials(), cfg.measured_txns);
            assert!(m.committed_total > 0);
        }
    }
}

#[test]
fn multi_shard_traces_pass_p_properties() {
    for p in protocols() {
        let cfg = sharded_cfg(p.clone(), 4, 99);
        let m = run(&cfg).expect("valid config");
        let trace = m.trace.as_ref().expect("trace enabled");
        check_trace(trace).unwrap_or_else(|e| panic!("{}: {e}", m.protocol));
    }
}

#[test]
fn multi_shard_runs_are_bit_deterministic() {
    for p in protocols() {
        let cfg = sharded_cfg(p.clone(), 4, 7);
        let a = run(&cfg).expect("valid config");
        let b = run(&cfg).expect("valid config");
        assert_eq!(a.response.mean(), b.response.mean(), "{}", a.protocol);
        assert_eq!(a.net.messages(), b.net.messages(), "{}", a.protocol);
        assert_eq!(a.net.bytes(), b.net.bytes(), "{}", a.protocol);
        assert_eq!(a.committed_total, b.committed_total, "{}", a.protocol);
    }
}

/// Per-label message counts of every engine on a fault-free one-shard
/// run and on a lossy four-shard run with a shard outage, as
/// `tests/data/message_kinds.txt` pins them: one `# engine case` header
/// per run, then one `label count` line per message label.
fn message_kinds_table() -> String {
    let mut out = String::new();
    for p in protocols() {
        let lossy = {
            let mut cfg = sharded_cfg(p.clone(), 4, 5);
            let mut plan = g2pl_faults::FaultPlan::shard_outage(2, 1_500);
            plan.drop_prob = 0.02;
            cfg.faults = Some(plan);
            cfg
        };
        for (case, cfg) in [
            ("one_shard", sharded_cfg(p.clone(), 1, 5)),
            ("lossy_outage", lossy),
        ] {
            let m = run(&cfg).expect("valid config");
            out.push_str(&format!("# {} {case}\n", m.protocol));
            for (label, count) in m.net.kinds() {
                out.push_str(&format!("{label} {count}\n"));
            }
        }
    }
    out
}

#[test]
fn multi_shard_commit_splits_are_visible_in_message_kinds() {
    // Every message must be counted under its engine's own label for
    // its kind: the totals the CSV fixtures pin cannot see a swapped
    // label, this table can.
    assert_eq!(
        message_kinds_table(),
        include_str!("data/message_kinds.txt"),
        "per-label message accounting diverged from its fixture"
    );

    // With one shard a transaction sends exactly one commit-release; at
    // many shards a multi-home transaction sends one per involved
    // shard, so the per-committed-txn commit-message rate must rise.
    let one = run(&sharded_cfg(ProtocolKind::S2pl, 1, 5)).expect("valid config");
    let eight = {
        let mut cfg = sharded_cfg(ProtocolKind::S2pl, 8, 5);
        cfg.items = ItemSpace::sharded(8, 1); // every item on its own shard
        cfg.profile.max_items = 4;
        run(&cfg).expect("valid config")
    };
    let rate_one = one.net.of_kind("s2pl.commit_release") as f64 / one.committed_total as f64;
    let rate_eight = eight.net.of_kind("s2pl.commit_release") as f64 / eight.committed_total as f64;
    assert!(
        (rate_one - 1.0).abs() < 1e-9,
        "single shard must send exactly one commit per txn, got {rate_one}"
    );
    assert!(
        rate_eight > 1.2,
        "distinct-shard items must split commits, got {rate_eight}"
    );
}

#[test]
fn full_mesh_topology_is_inert_and_link_overrides_take_effect() {
    let base = sharded_cfg(ProtocolKind::g2pl_paper(), 2, 3);

    // The explicit full mesh must be byte-identical to no topology.
    let mut mesh = base.clone();
    mesh.topology = Some(Topology::full_mesh(mesh.latency));
    let plain = run(&base).expect("valid config");
    let meshed = run(&mesh).expect("valid config");
    assert_eq!(plain.response.mean(), meshed.response.mean());
    assert_eq!(plain.net.messages(), meshed.net.messages());
    assert_eq!(plain.net.bytes(), meshed.net.bytes());

    // Slowing only the client↔client class must show up in g-2PL, whose
    // data migrates on exactly those links.
    let mut slow_cc = base.clone();
    slow_cc.topology =
        Some(Topology::full_mesh(slow_cc.latency).with_client_client(LatencyCfg::Constant(400)));
    let slowed = run(&slow_cc).expect("valid config");
    assert!(
        slowed.response.mean() > plain.response.mean(),
        "slower forwarding links must slow g-2PL: {} vs {}",
        slowed.response.mean(),
        plain.response.mean()
    );
}

#[test]
fn scale_engine_is_identical_serial_parallel_and_across_reruns() {
    // One PDES worker is the serial reference; any other worker count —
    // and any rerun — must reproduce the exact same trajectory.
    let cfg = experiments::scale_cell(128, 4);
    let serial = run_scale_with_workers(&cfg, 1).expect("cell runs");
    for m in [
        run_scale_with_workers(&cfg, 2).expect("cell runs"),
        run_scale_with_workers(&cfg, 4).expect("cell runs"),
        run_scale_with_workers(&cfg, 1).expect("cell runs"),
    ] {
        assert_eq!(serial.committed, m.committed);
        assert_eq!(serial.multi_home, m.multi_home);
        assert_eq!(serial.events, m.events);
        assert_eq!(serial.messages, m.messages);
        assert_eq!(serial.rounds, m.rounds);
        assert_eq!(serial.cross_messages, m.cross_messages);
        assert!(serial.response.mean() == m.response.mean());
        assert_eq!(serial.tail.summary(), m.tail.summary());
    }
    assert!(serial.multi_home > 0, "the grid workload must cross shards");
}

#[test]
fn fig_scale_builds_bit_identical_figure_data() {
    // The registry figure runs with auto worker count; two builds must
    // serialize byte-for-byte, including the tail CSV the CI smoke
    // checks.
    let spec = experiments::figure("fig_scale").expect("fig_scale registered");
    let a = spec.build(Scale::Smoke);
    let b = spec.build(Scale::Smoke);
    assert_eq!(a.to_csv(), b.to_csv());
    let tail_a = a.to_tail_csv().expect("fig_scale has tail data");
    let tail_b = b.to_tail_csv().expect("fig_scale has tail data");
    assert_eq!(tail_a, tail_b);
    assert!(tail_a.starts_with("x,series,p50,p90,p99,p999,max,count\n"));
    assert_eq!(a.series.len(), 3, "one series per shard count");
    assert!(a.series.iter().all(|s| s.points.len() == 3));
}

/// Committed smoke-scale outputs, generated before the refactors they
/// guard: `(figure id, csv, tail csv)`.
const FIXTURES: [(&str, &str, &str); 4] = [
    (
        "fig2",
        include_str!("data/fig2_smoke.csv"),
        include_str!("data/fig2_tail_smoke.csv"),
    ),
    (
        "fig_faults",
        include_str!("data/fig_faults_smoke.csv"),
        include_str!("data/fig_faults_tail_smoke.csv"),
    ),
    (
        "fig_server_faults",
        include_str!("data/fig_server_faults_smoke.csv"),
        include_str!("data/fig_server_faults_tail_smoke.csv"),
    ),
    (
        "fig_shard_faults",
        include_str!("data/fig_shard_faults_smoke.csv"),
        include_str!("data/fig_shard_faults_tail_smoke.csv"),
    ),
];

#[test]
fn smoke_figures_match_committed_fixtures_byte_for_byte() {
    // fig2 pins the one-shard engines to their pre-sharding output; the
    // fault figures pin message loss, client and server crash recovery,
    // client retry and presumed-abort 2PC across shard fault domains.
    // Regenerating any of them through today's engines must reproduce
    // the fixture exactly.
    for (id, csv_fixture, tail_fixture) in FIXTURES {
        let fig = experiments::figure(id)
            .unwrap_or_else(|| panic!("{id} is registered"))
            .build(Scale::Smoke);
        assert_eq!(
            fig.to_csv(),
            csv_fixture,
            "{id} CSV diverged from its fixture"
        );
        let tail = fig
            .to_tail_csv()
            .unwrap_or_else(|| panic!("{id} has tail data"));
        assert_eq!(
            tail, tail_fixture,
            "{id} tail CSV diverged from its fixture"
        );
    }
}
