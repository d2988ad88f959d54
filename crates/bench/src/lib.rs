//! # g2pl-bench
//!
//! Benchmark support for the g-2PL reproduction: the `repro` harness,
//! the chaos search, and representative-cell configuration constructors.
//!
//! * `cargo run --release --bin repro -- all` regenerates every table and
//!   figure of the paper (see `g2pl_core::experiments` for the mapping).
//! * `cargo run --release --bin repro -- bench` times the engine cells and
//!   figure sweeps; `perfbench/` is the repository benchmark.

pub mod chaos;
pub mod harness;

use g2pl_core::prelude::*;

/// A small-but-meaningful configuration for benchmarking one simulation
/// cell: the Fig-3 hot spot (50 clients, pr = 0.6) at the given latency,
/// scaled down to `measured` transactions.
pub fn bench_cell(protocol: ProtocolKind, latency: u64, measured: u64) -> EngineConfig {
    let mut cfg = EngineConfig::table1(protocol, 50, latency, 0.6);
    cfg.warmup_txns = 100;
    cfg.measured_txns = measured;
    cfg
}

fn cell(protocol: ProtocolKind, clients: u32, latency: u64, pr: f64) -> EngineConfig {
    let mut c = EngineConfig::table1(protocol, clients, latency, pr);
    c.warmup_txns = 100;
    c.measured_txns = 500;
    c
}

/// The representative cell of each figure: `(figure id, config)`. One
/// cell exercises exactly the code paths the full figure sweep uses; the
/// full sweeps live in the `repro` binary.
pub fn figure_cells() -> Vec<(&'static str, EngineConfig)> {
    let g = ProtocolKind::g2pl_paper;
    let capped = || {
        ProtocolKind::G2pl(G2plOpts {
            fl_cap: Some(3),
            ..Default::default()
        })
    };
    vec![
        ("fig2_pr0.0_l500", cell(g(), 50, 500, 0.0)),
        ("fig3_pr0.6_l500", cell(g(), 50, 500, 0.6)),
        ("fig4_pr1.0_l500", cell(g(), 50, 500, 1.0)),
        ("fig5_sslan_pr0.5", cell(g(), 50, 1, 0.5)),
        ("fig6_man_pr0.5", cell(g(), 50, 250, 0.5)),
        ("fig7_lwan_pr0.5", cell(g(), 50, 750, 0.5)),
        ("fig8_aborts_pr0.6", cell(g(), 50, 250, 0.6)),
        ("fig9_aborts_pr0.8", cell(g(), 50, 250, 0.8)),
        ("fig10_readonly_l1", cell(g(), 50, 1, 1.0)),
        ("fig11_flcap3", cell(capped(), 50, 1, 1.0)),
        ("fig12_resp_pr0.25_c100", cell(g(), 100, 500, 0.25)),
        ("fig13_aborts_pr0.25_c100", cell(g(), 100, 500, 0.25)),
        ("fig14_resp_pr0.75_c100", cell(g(), 100, 500, 0.75)),
        ("fig15_aborts_pr0.75_c100", cell(g(), 100, 500, 0.75)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_cell_is_valid() {
        assert!(bench_cell(ProtocolKind::S2pl, 500, 100).validate().is_ok());
    }

    #[test]
    fn every_figure_has_a_cell() {
        let cells = figure_cells();
        assert!(cells.len() >= 14, "one representative cell per figure");
        for (id, cfg) in cells {
            assert!(cfg.validate().is_ok(), "{id} invalid");
        }
    }
}
