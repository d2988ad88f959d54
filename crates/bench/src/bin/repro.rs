//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro [--scale smoke|default|full] [--out DIR] [--trace-out DIR]
//!       [--no-verify] [--bench-out FILE] [--baseline FILE] <artifact>...
//!
//! artifacts: table1 table2 fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9
//!            fig10 fig11 fig12 fig13 fig14 fig15 headline all bench
//!            fig_faults fig_faults_aborts fig_server_faults fig_tail
//!            fig_scale scale-bench list scorecard ext
//! ```
//!
//! Figures are dispatched from the declarative registry
//! (`g2pl_core::experiments::FIGURES`); `repro list` prints it. `all`
//! regenerates exactly the paper's artifacts; the fault figures
//! (`fig_faults`, `fig_faults_aborts`) sweep message-loss probability
//! with the fault-injection subsystem on and are requested by name.
//!
//! Markdown goes to stdout; with `--out DIR`, each figure's raw data is
//! also written as `DIR/<id>.csv` — and, for figures that carry pooled
//! tail-quantile sketches (response-time metrics), a side file
//! `DIR/<id>_tail.csv` with `p50,p90,p99,p999,max,count` columns per
//! sweep point. Existing `<id>.csv` files are unchanged byte-for-byte.
//! `--ascii` appends a terminal chart under each table. With
//! `--trace-out DIR`, replication 0 of every data point dumps its span
//! events as `DIR/*.jsonl` for the `trace-explain` analyzer.
//!
//! Every data point self-verifies by default: replication 0 of each
//! configuration is re-checked against the protocol trace properties
//! P1–P7 and conflict-serializability, and the run aborts with
//! diagnostics on any violation. `--no-verify` (or `--verify=off`)
//! disables this for quick, unchecked regeneration.
//!
//! `repro bench` runs the measurement harness (engine hot-spot cells
//! plus timed figure sweeps), prints the report, and writes it as JSON
//! to `--bench-out FILE` (default `target/BENCH.json`, so a run never
//! overwrites a committed baseline measured on another host). With
//! `--baseline FILE`, the run fails if aggregate engine throughput
//! regressed more than 30% below the baseline's — the CI gate.
//!
//! `repro scale-bench` runs one big sharded scale-out cell on the
//! conservative PDES (10k/100k/1M clients at smoke/default/full scale),
//! prints the datapoint, and writes it as JSON to `--bench-out FILE`
//! (default `results/scale_datapoint.json`). It compares its rate with
//! the engine-cell throughput of `--baseline FILE` (default
//! `BENCH_pr14.json`, the CI gate's baseline).

use g2pl_bench::harness;
use g2pl_core::experiments::{self, FigureSpec, Scale, Sweep};
use g2pl_core::figure::FigureData;
use std::io::Write as _;
use std::path::PathBuf;

const ALL: [&str; 18] = [
    "table1", "table2", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
    "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "headline",
];

fn usage() -> ! {
    eprintln!(
        "usage: repro [--scale smoke|default|full] [--out DIR] [--trace-out DIR] \
         [--no-verify] [--bench-out FILE] [--baseline FILE] <artifact>...\n\
         artifacts: {} all\n\
         fault studies: fig_faults fig_faults_aborts fig_server_faults\n\
         tail study: fig_tail (p99/p999 vs load, all three engines)\n\
         extensions: ext (every extension study) scorecard bench; `list` prints the figure \
         registry\n\
         verification of every data point is on by default; --no-verify skips it\n\
         --trace-out DIR dumps replication 0 of each point as a JSONL span \
         trace for trace-explain\n\
         bench times engine cells + figure sweeps, writes --bench-out \
         (default target/BENCH.json), and fails on >30% throughput regression \
         vs --baseline FILE\n\
         scale-bench runs one big sharded PDES cell, writes --bench-out \
         (default results/scale_datapoint.json) and compares it with the \
         engine cells of --baseline FILE (default BENCH_pr14.json)",
        ALL.join(" ")
    );
    std::process::exit(2);
}

fn emit_figure(fig: &FigureData, out_dir: &Option<PathBuf>) {
    println!("{}", fig.to_markdown());
    if std::env::args().any(|a| a == "--ascii") {
        println!("```\n{}```\n", fig.to_ascii(64, 16));
    }
    if let Some(dir) = out_dir {
        // lint:allow(L3): CLI fails fast when the output directory cannot be created
        std::fs::create_dir_all(dir).expect("create output directory");
        let path = dir.join(format!("{}.csv", fig.id));
        // lint:allow(L3): CLI fails fast when the CSV cannot be created
        let mut f = std::fs::File::create(&path).expect("create csv");
        // lint:allow(L3): CLI fails fast when the CSV cannot be written
        f.write_all(fig.to_csv().as_bytes()).expect("write csv");
        eprintln!("wrote {}", path.display());
        if let Some(tail_csv) = fig.to_tail_csv() {
            let tail_path = dir.join(format!("{}_tail.csv", fig.id));
            // lint:allow(L3): CLI fails fast when the tail CSV cannot be written
            std::fs::write(&tail_path, tail_csv).expect("write tail csv");
            eprintln!("wrote {}", tail_path.display());
        }
    }
}

/// What the non-figure artifacts run with.
struct Opts {
    scale: Scale,
    bench_out: Option<PathBuf>,
    baseline: Option<PathBuf>,
}

/// Runs one non-figure artifact; false when its gate failed.
type Handler = fn(&Opts) -> bool;

/// The artifacts that are not registry figures, with their handlers. The
/// parser accepts exactly these names plus the registry ids, and the
/// dispatch runs what the parser resolved, so every accepted name has a
/// handler.
const COMMANDS: [(&str, Handler); 8] = [
    ("table1", |_| {
        println!("{}", experiments::table1());
        true
    }),
    ("table2", |_| {
        println!("{}", experiments::table2());
        true
    }),
    ("fig1", |_| {
        println!("{}", experiments::fig1());
        true
    }),
    ("headline", |o| {
        println!("{}", experiments::headline(o.scale));
        true
    }),
    ("list", |_| {
        print!("{}", experiments::list_figures());
        true
    }),
    ("scorecard", |o| {
        println!("{}", g2pl_core::scorecard::run_scorecard(o.scale));
        true
    }),
    ("bench", bench),
    ("scale-bench", scale_bench),
];

/// A resolved artifact.
enum Artifact {
    Command(Handler),
    Figure(&'static FigureSpec),
}

/// The handler of artifact `name`, if it names one.
fn artifact(name: &str) -> Option<Artifact> {
    COMMANDS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|&(_, run)| Artifact::Command(run))
        .or_else(|| experiments::figure(name).map(Artifact::Figure))
}

/// `repro bench`: run the measurement harness, write its report, and gate
/// it against `--baseline`.
fn bench(o: &Opts) -> bool {
    let report = harness::run_bench(o.scale);
    println!("{}", report.render());
    let path = o
        .bench_out
        .clone()
        .unwrap_or_else(|| PathBuf::from("target/BENCH.json"));
    write_out(&path, &report.to_json());
    let Some(base) = &o.baseline else { return true };
    // lint:allow(L3): CLI fails fast when the --baseline file is unreadable
    let text = std::fs::read_to_string(base).expect("read bench baseline");
    match harness::regression_vs(&text, &report, 0.30) {
        Err(msg) => {
            eprintln!("bench: {msg}");
            false
        }
        Ok(()) => {
            eprintln!("bench: within 30% of baseline {}", base.display());
            true
        }
    }
}

/// `repro scale-bench`: run one big sharded PDES cell and write its
/// datapoint.
fn scale_bench(o: &Opts) -> bool {
    let (clients, shards) = harness::scale_bench_size(o.scale);
    let baseline_text = o
        .baseline
        .as_deref()
        .or(Some(std::path::Path::new("BENCH_pr14.json")))
        .and_then(|p| std::fs::read_to_string(p).ok());
    let (md, json) = harness::run_scale_bench(o.scale, clients, shards, baseline_text.as_deref());
    println!("{md}");
    let path = o
        .bench_out
        .clone()
        .unwrap_or_else(|| PathBuf::from("results/scale_datapoint.json"));
    write_out(&path, &json);
    true
}

/// Write a report to `path`, creating its directory first.
fn write_out(path: &std::path::Path, text: &str) {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        // lint:allow(L3): CLI fails fast when the output directory cannot be created
        std::fs::create_dir_all(dir).expect("create output directory");
    }
    // lint:allow(L3): CLI fails fast when the report cannot be written
    std::fs::write(path, text).expect("write report");
    eprintln!("wrote {}", path.display());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Opts {
        scale: Scale::Default,
        bench_out: None,
        baseline: None,
    };
    let mut out_dir: Option<PathBuf> = None;
    let mut artifacts: Vec<(String, Artifact)> = Vec::new();
    let mut push = |name: &str| {
        let a = artifact(name).unwrap_or_else(|| usage());
        artifacts.push((name.to_string(), a));
    };

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                opts.scale = match args.get(i).map(String::as_str) {
                    Some("smoke") => Scale::Smoke,
                    Some("default") => Scale::Default,
                    Some("full") => Scale::Full,
                    _ => usage(),
                };
            }
            "--out" => {
                i += 1;
                out_dir = Some(PathBuf::from(args.get(i).unwrap_or_else(|| usage())));
            }
            "--trace-out" => {
                i += 1;
                g2pl_core::set_trace_out(Some(PathBuf::from(
                    args.get(i).unwrap_or_else(|| usage()),
                )));
            }
            "--ascii" => {} // handled in emit_figure
            "--no-verify" | "--verify=off" => g2pl_core::set_verify(false),
            "--verify" | "--verify=on" => g2pl_core::set_verify(true),
            "--bench-out" => {
                i += 1;
                opts.bench_out = Some(PathBuf::from(args.get(i).unwrap_or_else(|| usage())));
            }
            "--baseline" => {
                i += 1;
                opts.baseline = Some(PathBuf::from(args.get(i).unwrap_or_else(|| usage())));
            }
            "all" => ALL.iter().for_each(|a| push(a)),
            "ext" => experiments::FIGURES
                .iter()
                .filter(|f| matches!(f.sweep, Sweep::Study(_)))
                .for_each(|f| push(f.id)),
            a => push(a),
        }
        i += 1;
    }
    if artifacts.is_empty() {
        usage();
    }

    let mut failed = false;
    for (a, artifact) in &artifacts {
        // lint:allow(L2): host-side wall-clock self-timing of the bench run, reported to stderr
        let started = std::time::Instant::now();
        match artifact {
            Artifact::Command(run) => failed |= !run(&opts),
            Artifact::Figure(spec) => emit_figure(&spec.build(opts.scale), &out_dir),
        }
        // Throughput trailer: what the engines did during this artifact
        // (the counters are drained per artifact, so each line stands
        // alone). `bench` drains them itself and reports via its table.
        let perf = g2pl_core::take_perf();
        let wall = started.elapsed().as_secs_f64();
        if perf.runs > 0 {
            eprintln!(
                "[{a}: {wall:.1}s — {} runs, {} events, {:.2}M events/s, peak calendar {}]",
                perf.runs,
                perf.events,
                perf.events_per_sec() / 1e6,
                perf.peak_calendar
            );
        } else {
            eprintln!("[{a}: {wall:.1}s]");
        }
    }
    if failed {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_documented_artifact_has_a_handler() {
        let named = [
            "table1",
            "table2",
            "fig1",
            "headline",
            "list",
            "scorecard",
            "bench",
            "scale-bench",
            "fig_faults",
            "fig_faults_aborts",
            "fig_server_faults",
            "fig_shard_faults",
            "fig_tail",
            "fig_scale",
        ];
        for name in ALL.iter().chain(&named) {
            assert!(artifact(name).is_some(), "`repro {name}` has no handler");
        }
        // Commands resolve first, so one named like a figure would hide it.
        for (name, _) in COMMANDS {
            assert!(
                experiments::figure(name).is_none(),
                "{name} is also a figure"
            );
        }
    }
}
