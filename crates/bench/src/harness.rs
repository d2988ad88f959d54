//! The `repro bench` measurement harness.
//!
//! Times two kinds of work and reports engine throughput for both:
//!
//! * **Engine cells** — single hot-spot simulations (one per protocol,
//!   the old `probe` binary's configuration: 150 clients on an s-WAN,
//!   pr = 0.25), run raw with no verification. These measure pure
//!   engine events/second and are the regression-gate signal: the
//!   number is scale-independent, so a smoke-scale CI run is comparable
//!   to a committed default-scale baseline.
//! * **Figures** — whole figure sweeps through the grid scheduler with
//!   whatever verification setting is active, timed end to end. These
//!   measure what a `repro` user actually waits for.
//!
//! The report renders as markdown for stdout and serialises to the
//! `BENCH_*.json` schema documented in `EXPERIMENTS.md` (hand-rolled
//! JSON, like the span exporter — the workspace vendors no JSON crate).

use g2pl_core::prelude::*;
use std::fmt::Write as _;
// lint:allow(L2): the harness's whole job is wall-clock timing of the host run; simulation code never sees it
use std::time::Instant;

/// One timed unit of work (an engine cell or a figure sweep).
#[derive(Clone, Debug)]
pub struct BenchEntry {
    /// Cell or figure id, e.g. `cell_g2pl` or `fig2`.
    pub id: String,
    /// Elapsed wall-clock seconds.
    pub wall_secs: f64,
    /// Simulation events processed.
    pub events: u64,
    /// `events / wall_secs` for cells; events per engine-second for
    /// figures (the grid may run cells on several workers).
    pub events_per_sec: f64,
    /// Largest calendar high-water mark observed.
    pub peak_calendar: usize,
}

/// Everything one `repro bench` invocation measured.
#[derive(Clone, Debug)]
pub struct BenchReport {
    /// Scale label: `smoke`, `default`, or `full`.
    pub scale: &'static str,
    /// Raw engine cells (no verification).
    pub cells: Vec<BenchEntry>,
    /// Figure sweeps (verification as configured).
    pub figures: Vec<BenchEntry>,
}

/// The figures `repro bench` times by default: the headline
/// response-vs-latency sweep, the (cheap) read-only-deadlock sweep, and
/// the fault-injection loss sweep (recovery-path throughput).
pub const BENCH_FIGURES: [&str; 3] = ["fig2", "fig10", "fig_faults"];

fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Smoke => "smoke",
        Scale::Default => "default",
        Scale::Full => "full",
    }
}

/// The engine hot-spot cells, one per protocol: the retired `probe`
/// binary's configuration. The workload is deliberately **fixed**
/// regardless of `--scale` — the regression gate compares a smoke-scale
/// CI run against a default-scale committed baseline, so the cell
/// throughput number must not depend on scale, and the run must be long
/// enough (~20k transactions) that timer noise stays well under the
/// gate's 30% tolerance.
fn engine_cells() -> Vec<(String, EngineConfig)> {
    [
        ProtocolKind::S2pl,
        ProtocolKind::g2pl_paper(),
        ProtocolKind::C2pl,
    ]
    .into_iter()
    .map(|p| {
        let id = format!(
            "cell_{}",
            p.label().replace('-', "").to_lowercase() // "s-2PL" -> "s2pl"
        );
        let mut cfg = EngineConfig::table1(p, 150, 500, 0.25);
        cfg.warmup_txns = 500;
        cfg.measured_txns = 20_000;
        (id, cfg)
    })
    .collect()
}

/// Repeats per engine cell; the fastest wall time wins. The simulation
/// is deterministic, so repeats differ only in scheduling noise — the
/// minimum is the least-perturbed measurement.
const CELL_REPEATS: u32 = 3;

fn run_figure(id: &str, scale: Scale) -> FigureData {
    experiments::figure(id)
        .unwrap_or_else(|| panic!("repro bench cannot time figure {id}")) // lint:allow(L3): CLI input validated upstream
        .build(scale)
}

/// Run the full harness: every engine cell (fixed workload, best of
/// [`CELL_REPEATS`]), then every figure in [`BENCH_FIGURES`] at `scale`.
pub fn run_bench(scale: Scale) -> BenchReport {
    let mut cells = Vec::new();
    for (id, cfg) in engine_cells() {
        let mut best = f64::INFINITY;
        // lint:allow(L3): bench cells come from the figure registry, validated at registration
        let mut m = run(&cfg).expect("bench cell config is valid");
        for _ in 0..CELL_REPEATS {
            // lint:allow(L2): wall-clock timing is the harness's measurement, not simulation input
            let t = Instant::now();
            // lint:allow(L3): bench cells come from the figure registry, validated at registration
            m = run(&cfg).expect("bench cell config is valid");
            best = best.min(t.elapsed().as_secs_f64().max(1e-9));
        }
        cells.push(BenchEntry {
            id,
            wall_secs: best,
            events: m.events,
            events_per_sec: m.events as f64 / best,
            peak_calendar: m.peak_calendar,
        });
    }
    let mut figures = Vec::new();
    for fig in BENCH_FIGURES {
        let _ = take_perf(); // drain whatever ran before
                             // lint:allow(L2): wall-clock timing is the harness's measurement, not simulation input
        let t = Instant::now();
        let _data = run_figure(fig, scale);
        let wall = t.elapsed().as_secs_f64().max(1e-9);
        let perf = take_perf();
        figures.push(BenchEntry {
            id: fig.to_string(),
            wall_secs: wall,
            events: perf.events,
            events_per_sec: perf.events_per_sec(),
            peak_calendar: perf.peak_calendar,
        });
    }
    BenchReport {
        scale: scale_name(scale),
        cells,
        figures,
    }
}

impl BenchReport {
    /// Aggregate raw-engine throughput over every cell — the
    /// regression-gate number.
    pub fn cells_events_per_sec(&self) -> f64 {
        let events: u64 = self.cells.iter().map(|c| c.events).sum();
        let secs: f64 = self.cells.iter().map(|c| c.wall_secs).sum();
        if secs > 0.0 {
            events as f64 / secs
        } else {
            0.0
        }
    }

    /// Serialise to the `BENCH_*.json` schema (see `EXPERIMENTS.md`).
    pub fn to_json(&self) -> String {
        fn entries(out: &mut String, list: &[BenchEntry]) {
            for (i, e) in list.iter().enumerate() {
                let sep = if i == 0 { "" } else { "," };
                let _ = write!(
                    out,
                    "{sep}\n    {{\"id\":\"{}\",\"wall_secs\":{:.4},\"events\":{},\
                     \"events_per_sec\":{:.0},\"peak_calendar\":{}}}",
                    e.id, e.wall_secs, e.events, e.events_per_sec, e.peak_calendar
                );
            }
        }
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"schema\": \"g2pl-bench/1\",\n  \"scale\": \"{}\",\n  \"cells\": [",
            self.scale
        );
        entries(&mut out, &self.cells);
        let _ = write!(out, "\n  ],\n  \"figures\": [");
        entries(&mut out, &self.figures);
        let _ = write!(
            out,
            "\n  ],\n  \"cells_events_per_sec\": {:.0}\n}}\n",
            self.cells_events_per_sec()
        );
        out
    }

    /// Render a human-readable markdown summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### bench — engine throughput, scale={}", self.scale);
        let _ = writeln!(
            out,
            "| unit | wall (s) | events | events/s | peak calendar |"
        );
        let _ = writeln!(out, "|---|---|---|---|---|");
        for e in self.cells.iter().chain(&self.figures) {
            let _ = writeln!(
                out,
                "| {} | {:.2} | {} | {:.2}M | {} |",
                e.id,
                e.wall_secs,
                e.events,
                e.events_per_sec / 1e6,
                e.peak_calendar
            );
        }
        let _ = writeln!(
            out,
            "\naggregate cell throughput: {:.2}M events/s",
            self.cells_events_per_sec() / 1e6
        );
        out
    }
}

/// The cell sizes `repro scale-bench` runs per `--scale`: (clients,
/// shards). The default-scale datapoint (100k clients) is the committed
/// `results/scale_datapoint.json`; full is the million-client target.
pub fn scale_bench_size(scale: Scale) -> (u32, u32) {
    match scale {
        Scale::Smoke => (10_000, 4),
        Scale::Default => (100_000, 8),
        Scale::Full => (1_000_000, 64),
    }
}

/// One big sharded scale-out datapoint (`repro scale-bench`): run a
/// `fig_scale`-flavored cell at the given size on the PDES (one worker
/// per shard up to the core count), and report simulation throughput
/// next to the committed engine baseline's aggregate cell number when a
/// `BENCH_*.json` document is supplied. Returns `(markdown, json)`.
pub fn run_scale_bench(
    scale: Scale,
    clients: u32,
    shards: u32,
    baseline_json: Option<&str>,
) -> (String, String) {
    let cfg = experiments::scale_cell(clients, shards);
    // lint:allow(L3): the registry cell is valid by construction
    let m = run_scale(&cfg).unwrap_or_else(|e| panic!("scale-bench: {e}"));
    let eps = m.events_per_sec();
    let tail = m.tail.summary();
    let baseline = baseline_json.and_then(|j| json_number_field(j, "cells_events_per_sec"));

    let mut md = String::new();
    let _ = writeln!(
        md,
        "### scale-bench — sharded PDES scale-out, scale={}",
        scale_name(scale)
    );
    let _ = writeln!(
        md,
        "| clients | shards | committed | multi-home | events | wall (s) | events/s | p99 resp |"
    );
    let _ = writeln!(md, "|---|---|---|---|---|---|---|---|");
    let _ = writeln!(
        md,
        "| {} | {} | {} | {} | {} | {:.2} | {:.2}M | {} |",
        m.clients,
        m.shards,
        m.committed,
        m.multi_home,
        m.events,
        m.wall.as_secs_f64(),
        eps / 1e6,
        tail.p99
    );
    if let Some(base) = baseline {
        let _ = writeln!(
            md,
            "\nvs committed engine-cell baseline: {:.2}M events/s (scale-out at {:.2}x)",
            base / 1e6,
            eps / base
        );
    }

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\n  \"schema\": \"g2pl-scale-bench/1\",\n  \"scale\": \"{}\",\n  \
         \"clients\": {},\n  \"shards\": {},\n  \"committed\": {},\n  \
         \"multi_home\": {},\n  \"events\": {},\n  \"messages\": {},\n  \
         \"rounds\": {},\n  \"cross_messages\": {},\n  \"mean_response\": {:.4},\n  \
         \"p99_response\": {},\n  \"wall_secs\": {:.4},\n  \"events_per_sec\": {:.0}",
        scale_name(scale),
        m.clients,
        m.shards,
        m.committed,
        m.multi_home,
        m.events,
        m.messages,
        m.rounds,
        m.cross_messages,
        m.response.mean(),
        tail.p99,
        m.wall.as_secs_f64(),
        eps
    );
    if let Some(base) = baseline {
        let _ = write!(
            json,
            ",\n  \"baseline_cells_events_per_sec\": {base:.0},\n  \
             \"vs_baseline_cells\": {:.3}",
            eps / base
        );
    }
    json.push_str("\n}\n");
    (md, json)
}

/// Extract a top-level numeric field from a `BENCH_*.json` document.
/// (The workspace vendors no JSON parser; the schema is flat enough for
/// a textual scan.)
pub fn json_number_field(json: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = json.find(&pat)? + pat.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Compare against a committed baseline: `Err(message)` when aggregate
/// cell throughput fell more than `tolerance` (e.g. 0.30) below the
/// baseline's, or when the baseline has no positive
/// `cells_events_per_sec` to compare against (a gate with nothing to
/// compare must fail, not pass).
pub fn regression_vs(
    baseline_json: &str,
    report: &BenchReport,
    tolerance: f64,
) -> Result<(), String> {
    let base = json_number_field(baseline_json, "cells_events_per_sec")
        .filter(|&b| b > 0.0)
        .ok_or("baseline has no positive cells_events_per_sec")?;
    let now = report.cells_events_per_sec();
    let floor = base * (1.0 - tolerance);
    if now < floor {
        return Err(format!(
            "engine throughput regressed: {:.2}M events/s vs baseline {:.2}M \
             (floor at -{:.0}%: {:.2}M)",
            now / 1e6,
            base / 1e6,
            tolerance * 100.0,
            floor / 1e6
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_cells_cover_every_protocol() {
        let cells = engine_cells();
        let ids: Vec<&str> = cells.iter().map(|(id, _)| id.as_str()).collect();
        assert_eq!(ids, ["cell_s2pl", "cell_g2pl", "cell_c2pl"]);
        for (id, cfg) in &cells {
            assert!(cfg.validate().is_ok(), "{id} invalid");
        }
    }

    #[test]
    fn json_number_field_reads_the_schema() {
        let doc = "{\n  \"cells_events_per_sec\": 123456,\n  \"x\": -1.5e3\n}";
        assert_eq!(
            json_number_field(doc, "cells_events_per_sec"),
            Some(123456.0)
        );
        assert_eq!(json_number_field(doc, "x"), Some(-1500.0));
        assert_eq!(json_number_field(doc, "missing"), None);
    }

    #[test]
    fn regression_gate_trips_only_past_tolerance() {
        let report = BenchReport {
            scale: "smoke",
            cells: vec![BenchEntry {
                id: "cell_s2pl".into(),
                wall_secs: 1.0,
                events: 650_000,
                events_per_sec: 650_000.0,
                peak_calendar: 10,
            }],
            figures: vec![],
        };
        let baseline = "{\"cells_events_per_sec\": 1000000}";
        assert!(regression_vs(baseline, &report, 0.30).is_err(), "35% off");
        let baseline = "{\"cells_events_per_sec\": 900000}";
        assert!(
            regression_vs(baseline, &report, 0.30).is_ok(),
            "within tolerance"
        );
        assert!(
            regression_vs("not json", &report, 0.30).is_err(),
            "an unparsable baseline fails the gate"
        );
        assert!(
            regression_vs("{\"cells_events_per_sec\": 0}", &report, 0.30).is_err(),
            "a baseline without a positive rate fails the gate"
        );
    }

    #[test]
    fn report_round_trips_through_its_own_parser() {
        let report = BenchReport {
            scale: "smoke",
            cells: vec![BenchEntry {
                id: "cell_g2pl".into(),
                wall_secs: 0.5,
                events: 500_000,
                events_per_sec: 1_000_000.0,
                peak_calendar: 321,
            }],
            figures: vec![],
        };
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"g2pl-bench/1\""));
        assert_eq!(
            json_number_field(&json, "cells_events_per_sec"),
            Some(1_000_000.0)
        );
        assert!(report.render().contains("cell_g2pl"));
    }
}
