//! perfbench: the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds a workload's inputs from the seed, sets up (input building plus
//! one untimed warm-up pass, several times), then repeats timed passes for
//! `--seconds`. With `--trace 0` it reports the end-to-end metrics; with
//! `--trace 1` it makes the traced run and reports the per-layer metrics.
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See `README.md`.

mod layers;
mod reference;
mod stats;
mod trace;
mod workload;

use stats::{median, quartiles};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{Cell, Pass, Workload, ENGINES};

/// The end-to-end metrics, with their units, in the order printed.
const END_TO_END: [(&str, &str); 6] = [
    ("txn_per_s", "1/s"),
    ("txn_per_s.s2pl", "1/s"),
    ("txn_per_s.g2pl", "1/s"),
    ("txn_per_s.c2pl", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics of the traced run, with their units.
const PER_LAYER: [(&str, &str); 31] = [
    ("protocols.s2pl.ns_per_event", "ns"),
    ("protocols.g2pl.ns_per_event", "ns"),
    ("protocols.c2pl.ns_per_event", "ns"),
    ("protocols.s2pl.events_per_txn", "events/txn"),
    ("protocols.g2pl.events_per_txn", "events/txn"),
    ("protocols.c2pl.events_per_txn", "events/txn"),
    ("protocols.s2pl.commit_ratio", "ratio"),
    ("protocols.g2pl.commit_ratio", "ratio"),
    ("protocols.c2pl.commit_ratio", "ratio"),
    ("netmodel.s2pl.msgs_per_txn", "msgs/txn"),
    ("netmodel.g2pl.msgs_per_txn", "msgs/txn"),
    ("netmodel.c2pl.msgs_per_txn", "msgs/txn"),
    ("obs.s2pl.rounds_per_commit", "rounds"),
    ("obs.g2pl.rounds_per_commit", "rounds"),
    ("obs.c2pl.rounds_per_commit", "rounds"),
    ("simcore.peak_calendar", "count"),
    ("fwdlist.window_closes", "count"),
    ("fwdlist.max_fl_len", "count"),
    ("obs.span_replay.ns_per_event", "ns"),
    ("simcore.calendar.ns_per_op", "ns"),
    ("lockmgr.table.ns_per_op", "ns"),
    ("fwdlist.order.ns_per_window", "ns"),
    ("obs.record_overhead", "ratio"),
    ("core.tracecheck.ns_per_event", "ns"),
    ("core.serializable.ns_per_commit", "ns"),
    ("core.runner.grid_util", "ratio"),
    ("protocols.recovery.ns_per_event.fault_free", "ns"),
    ("faults.server_crashes", "count"),
    ("faults.retries", "count"),
    ("faults.reregistrations", "count"),
    ("perfbench.trace_overhead", "ratio"),
];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Fewest timed passes a run makes, however short `--seconds` is.
const MIN_PASSES: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <hotspot_write|hotspot_read|recovery> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = workload::DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Counts passes attempted and failed. A pass fails if it panics (a
/// verification failure panics) or if its simulated-output digest
/// differs from the expected one: the pinned digest at the default seed,
/// otherwise the digest of the run's first pass.
struct Checker {
    expected: Option<u64>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    fn new(w: Workload, seed: u64) -> Self {
        Checker {
            expected: (seed == workload::DEFAULT_SEED).then(|| workload::pinned_digest(w)),
            attempted: 0,
            failed: 0,
        }
    }

    /// Run one pass; `None` if it failed.
    fn attempt(&mut self, f: impl FnOnce() -> Pass) -> Option<Pass> {
        let pass = catch_unwind(AssertUnwindSafe(f)).ok();
        let ok = self.admit(pass.as_ref().map(Pass::digest));
        pass.filter(|_| ok)
    }

    /// Count one pass with this digest (`None`: it panicked).
    fn admit(&mut self, digest: Option<u64>) -> bool {
        self.attempted += 1;
        let ok = match (digest, self.expected) {
            (None, _) => false,
            (Some(d), None) => {
                self.expected = Some(d);
                true
            }
            (Some(d), Some(want)) => d == want,
        };
        if !ok {
            self.failed += 1;
            eprintln!(
                "perfbench: pass {} failed (digest {digest:x?})",
                self.attempted
            );
        }
        ok
    }
}

/// The result line.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Outcome {
    /// Pair each declared metric with its value. A metric left without
    /// one prints as null and makes the run incorrect.
    fn new(
        checker: &Checker,
        declared: &[(&'static str, &'static str)],
        values: &BTreeMap<String, f64>,
    ) -> Self {
        let metrics = declared
            .iter()
            .map(|&(name, unit)| {
                let v = values.get(name).copied().unwrap_or(f64::NAN);
                (name, unit, v)
            })
            .collect();
        Outcome {
            attempted: checker.attempted,
            failed: checker.failed,
            metrics,
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|m| m.2.is_finite())
    }

    fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, unit, v)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // JSON has no NaN: a metric that could not be measured is null.
            let v = if v.is_finite() {
                format!("{v}")
            } else {
                "null".to_string()
            };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Set up `times` times: build the inputs and make one untimed warm-up
/// pass. The first set-up is timed from process start. Returns the
/// inputs and each set-up's time in reference seconds (the reference loop
/// runs between set-ups, outside the time they measure).
fn set_up(
    args: &Args,
    checker: &mut Checker,
    process_start: Instant,
    times: usize,
) -> (Vec<g2pl_protocols::EngineConfig>, Vec<f64>) {
    let mut secs = Vec::with_capacity(times);
    let mut inputs = Vec::new();
    let mut from = process_start;
    let mut before = None;
    for _ in 0..times {
        inputs = workload::inputs(args.workload, args.seed);
        let cfgs = inputs.clone();
        if let Some(p) = checker.attempt(|| workload::warmup_pass(args.workload, &cfgs)) {
            eprintln!(
                "perfbench: {} seed {} digest {:016x}",
                args.workload.name(),
                args.seed,
                p.digest()
            );
        }
        let host = from.elapsed().as_secs_f64();
        let after = reference::secs(threads(args.workload));
        secs.push(host * reference::scale(before.unwrap_or(after), after));
        before = Some(after);
        from = Instant::now();
    }
    (inputs, secs)
}

/// Threads a workload's passes keep busy.
fn threads(w: Workload) -> usize {
    if w.uses_grid() {
        workload::grid_workers()
    } else {
        1
    }
}

/// One timed pass with tracing off: the hotspots run their engines one
/// after another unrecorded, `recovery` makes a grid pass. `scales` gets,
/// per run, the host-to-reference factor from the reference loops that
/// bracket it: each engine run on the hotspots, the whole grid pass on
/// `recovery`.
fn timed_pass(w: Workload, inputs: &[g2pl_protocols::EngineConfig], scales: &mut Vec<f64>) -> Pass {
    scales.clear();
    let mut before = reference::secs(threads(w));
    if w.uses_grid() {
        let pass = workload::grid_pass(inputs);
        let after = reference::secs(threads(w));
        scales.resize(pass.cells.len(), reference::scale(before, after));
        return pass;
    }
    let mut pass = Pass::default();
    for cfg in inputs {
        let one = workload::serial_pass(std::slice::from_ref(cfg), false, &mut Tracer::new(false));
        let after = reference::secs(1);
        scales.push(reference::scale(before, after));
        before = after;
        pass.secs += one.secs;
        pass.cells.extend(one.cells);
    }
    pass
}

/// Peak resident memory of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Throughput samples of one pass, in reference seconds: the whole pass
/// over its wall time, and each engine over the time its own runs took.
/// With `scales` all 1.0 the samples are in host seconds.
fn throughput(w: Workload, pass: &Pass, scales: &[f64]) -> Vec<(&'static str, f64)> {
    let secs = |c: &workload::Cell, s: f64| c.secs * s;
    let wall = if w.uses_grid() {
        pass.secs * scales[0]
    } else {
        pass.cells
            .iter()
            .zip(scales)
            .map(|(c, &s)| secs(c, s))
            .sum()
    };
    let mut out = vec![("txn_per_s", pass.txns() as f64 / wall)];
    for (engine, name) in ENGINES
        .iter()
        .zip(["txn_per_s.s2pl", "txn_per_s.g2pl", "txn_per_s.c2pl"])
    {
        let cells = pass
            .cells
            .iter()
            .zip(scales)
            .filter(|(c, _)| c.engine == *engine);
        let (txns, t) = cells.fold((0u64, 0f64), |(n, t), (c, &s)| {
            (n + c.txns(), t + secs(c, s))
        });
        out.push((name, txns as f64 / t));
    }
    out
}

fn report(label: &str, unit: &str, xs: &[f64]) {
    let (q1, med, q3) = quartiles(xs);
    eprintln!(
        "perfbench: {label:<44} median {med:>14.4} {unit:<10} q1 {q1:.4} q3 {q3:.4} n {}",
        xs.len()
    );
}

/// The end-to-end run: set up, then timed passes for `--seconds`.
fn timed_run(args: &Args, start: Instant) -> Outcome {
    let mut checker = Checker::new(args.workload, args.seed);
    let (inputs, setups) = set_up(args, &mut checker, start, SETUPS);
    let w = args.workload;
    let mut samples: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut host_samples: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut scales = Vec::new();
    let t = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let mut passes = 0;
    while passes < MIN_PASSES || t.elapsed() < budget {
        passes += 1;
        if let Some(p) = checker.attempt(|| timed_pass(w, &inputs, &mut scales)) {
            for (name, v) in throughput(w, &p, &scales) {
                samples.entry(name).or_default().push(v);
            }
            for (name, v) in throughput(w, &p, &vec![1.0; scales.len()]) {
                host_samples.entry(name).or_default().push(v);
            }
        }
    }
    for (name, xs) in &host_samples {
        report(&format!("{name} (host seconds)"), "1/s", xs);
    }
    samples.insert("setup_s", setups);
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    for (name, unit) in END_TO_END {
        if let Some(xs) = samples.get(name) {
            report(name, unit, xs);
            values.insert(name.to_string(), median(xs));
        }
    }
    values.insert("peak_rss_mb".to_string(), peak_rss_mb());
    eprintln!("perfbench: peak_rss_mb {:.1}", values["peak_rss_mb"]);
    Outcome::new(&checker, &END_TO_END, &values)
}

/// The traced run: per-layer metrics. See `README.md` for what each pass
/// does.
fn traced_run(args: &Args, start: Instant) -> Outcome {
    let w = args.workload;
    let mut checker = Checker::new(w, args.seed);
    let (inputs, _) = set_up(args, &mut checker, start, 1);
    // A grid pass is replayed serially so that each run gets its spans.
    let cfgs = if w.uses_grid() {
        workload::grid_cells(&inputs)
    } else {
        inputs.clone()
    };
    let mut plain = Tracer::new(true);
    let mut plain_secs = Vec::new();
    let mut traced_secs = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut grid_util = Vec::new();
    // Untraced and traced passes alternate for half the time budget.
    let t = Instant::now();
    let budget = Duration::from_secs(args.seconds) / 2;
    let mut round = 0;
    while traced.is_empty() || t.elapsed() < budget {
        // Alternate which pass goes first, so host drift favours neither.
        for traced_pass in [round % 2 == 1, round % 2 == 0] {
            if traced_pass {
                let pass = checker.attempt(|| {
                    plain.enter("pass");
                    let p = workload::serial_pass(&cfgs, false, &mut plain);
                    plain.exit();
                    p
                });
                plain.unwind();
                if let Some(p) = pass {
                    traced_secs.push(p.secs);
                    traced.push(p);
                }
            } else if let Some(p) =
                checker.attempt(|| workload::serial_pass(&cfgs, false, &mut Tracer::new(false)))
            {
                plain_secs.push(p.secs);
                if !w.uses_grid() {
                    grid_util.push(p.grid_util);
                }
            }
        }
        round += 1;
    }
    let mut grid = Tracer::new(true);
    if w.uses_grid() {
        for _ in 0..2 {
            if let Some(p) =
                checker.attempt(|| grid.span("core.run_grid", || workload::grid_pass(&inputs)))
            {
                grid_util.push(p.grid_util);
            }
            grid.unwind();
        }
    }
    // One recorded pass: recording, checks and span replay.
    let mut rec = Tracer::new(true);
    let recorded = checker.attempt(|| {
        rec.enter("pass");
        let p = workload::serial_pass(&cfgs, true, &mut rec);
        rec.exit();
        p
    });
    rec.unwind();

    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let mut micro = Tracer::new(true);
    if let (Some(recorded), Some(first)) = (recorded, traced.first()) {
        values = layer_values(&plain, &traced, &rec, &recorded);
        let shape = layers::Shape {
            clients: inputs[0].num_clients,
            items: inputs[0].num_items(),
            read_prob: inputs[0].profile.read_prob,
            latency: inputs[0].latency.nominal(),
            peak_calendar: first
                .cells
                .iter()
                .map(|c| c.metrics.peak_calendar)
                .max()
                .unwrap_or(1),
            window_sizes: recorded.recorded.window_sizes.clone(),
        };
        values.insert(
            "simcore.calendar.ns_per_op".to_string(),
            layers::calendar(&mut micro, &shape),
        );
        values.insert(
            "lockmgr.table.ns_per_op".to_string(),
            layers::lock_table(&mut micro, &shape),
        );
        values.insert(
            "fwdlist.order.ns_per_window".to_string(),
            layers::ordering(&mut micro, &shape),
        );
    }
    if !grid_util.is_empty() {
        values.insert("core.runner.grid_util".to_string(), median(&grid_util));
    }
    if !plain_secs.is_empty() && !traced_secs.is_empty() {
        values.insert(
            "perfbench.trace_overhead".to_string(),
            median(&traced_secs) / median(&plain_secs),
        );
    }
    eprintln!("perfbench: {} untraced and traced pass pairs", traced.len());

    write_spans(
        args,
        &[
            ("plain", &plain),
            ("grid", &grid),
            ("recorded", &rec),
            ("layers", &micro),
        ],
    );
    for (name, unit) in PER_LAYER {
        if let Some(v) = values.get(name) {
            eprintln!("perfbench: {name:<44} {v:>14.4} {unit}");
        }
    }
    Outcome::new(&checker, &PER_LAYER, &values)
}

/// The per-layer values taken from the traced passes' spans and the
/// runs' own counters. `traced` holds at least one pass.
fn layer_values(
    plain: &Tracer,
    traced: &[Pass],
    rec: &Tracer,
    recorded: &Pass,
) -> BTreeMap<String, f64> {
    type Pick<'a, T> = &'a dyn Fn(&Cell) -> T;
    let ns = |t: &Tracer, prefix: &str| t.self_ns(prefix) as f64;
    // Counts repeat exactly on every pass of a seed: take the first pass's.
    let first = &traced[0].cells;
    let sum =
        |of: Pick<bool>, f: Pick<u64>| first.iter().filter(|c| of(c)).map(f).sum::<u64>() as f64;
    let max = |f: Pick<usize>| first.iter().map(f).max().unwrap_or(0) as f64;
    // Events over every traced pass: what the span times cover.
    let traced_events = |of: Pick<bool>| {
        let cells = traced.iter().flat_map(|p| &p.cells);
        cells
            .filter(|c| of(c))
            .map(|c| c.metrics.events)
            .sum::<u64>() as f64
    };
    let all = |_: &Cell| true;
    let mut v = BTreeMap::new();
    for e in ENGINES {
        let of = |c: &Cell| c.engine == e;
        let txns = sum(&of, &Cell::txns);
        let mut put = |metric: String, x: f64| v.insert(metric, x);
        put(
            format!("protocols.{e}.ns_per_event"),
            ns(plain, &format!("protocols.{e}.run")) / traced_events(&of),
        );
        put(
            format!("protocols.{e}.events_per_txn"),
            sum(&of, &|c| c.metrics.events) / txns,
        );
        put(
            format!("protocols.{e}.commit_ratio"),
            sum(&of, &|c| c.metrics.committed_total) / txns,
        );
        put(
            format!("netmodel.{e}.msgs_per_txn"),
            sum(&of, &|c| c.metrics.net.messages()) / txns,
        );
        put(
            format!("obs.{e}.rounds_per_commit"),
            sum(&of, &|c| c.metrics.phases.rounds_total)
                / sum(&of, &|c| c.metrics.phases.measured_commits),
        );
    }
    // Runs without a fault plan: span names without the `.crash` suffix.
    let fault_free_ns: f64 = ENGINES
        .iter()
        .map(|e| {
            plain
                .layers()
                .get(&format!("protocols.{e}.run"))
                .map_or(0, |l| l.self_ns) as f64
        })
        .sum();
    let r = &recorded.recorded;
    let mut put = |metric: &str, x: f64| v.insert(metric.to_string(), x);
    put("simcore.peak_calendar", max(&|c| c.metrics.peak_calendar));
    put(
        "fwdlist.window_closes",
        sum(&all, &|c| c.metrics.window_closes),
    );
    put("fwdlist.max_fl_len", max(&|c| c.metrics.max_fl_len));
    put(
        "faults.server_crashes",
        sum(&all, &|c| c.metrics.faults.server_crashes),
    );
    put("faults.retries", sum(&all, &|c| c.metrics.faults.retries));
    put(
        "faults.reregistrations",
        sum(&all, &|c| c.metrics.faults.reregistrations),
    );
    put(
        "obs.span_replay.ns_per_event",
        ns(rec, "obs.span_replay") / r.span_events as f64,
    );
    put(
        "core.tracecheck.ns_per_event",
        ns(rec, "core.tracecheck") / r.trace_events as f64,
    );
    put(
        "core.serializable.ns_per_commit",
        ns(rec, "core.serializable") / r.history_commits as f64,
    );
    // Engine time with recording on over the same runs' time with it off
    // (the plain spans cover every traced pass, the recorded ones one).
    put(
        "obs.record_overhead",
        ns(rec, "protocols.") / (ns(plain, "protocols.") / traced.len() as f64),
    );
    put(
        "protocols.recovery.ns_per_event.fault_free",
        fault_free_ns / traced_events(&|c| !c.crash),
    );
    let crash_events = traced_events(&|c| c.crash);
    if crash_events > 0.0 {
        // Only `recovery` has crash runs, so this one goes to standard
        // error and not into the result line, whose metric set is the
        // same for every workload.
        eprintln!(
            "perfbench: protocols.recovery.ns_per_event.crash {:.4} ns",
            (ns(plain, "protocols.") - fault_free_ns) / crash_events
        );
    }
    v
}

/// Write every tracer's spans and the per-layer self-time table to
/// `.bench_out/<workload>_seed<n>.spans.jsonl` and standard error.
fn write_spans(args: &Args, tracers: &[(&str, &Tracer)]) {
    let mut text = String::new();
    for (run, t) in tracers {
        for line in t.to_jsonl().lines() {
            let _ = writeln!(text, "{{\"run\":\"{run}\",{}", &line[1..]);
        }
        for (name, l) in t.layers() {
            eprintln!(
                "perfbench: self time [{run}] {name:<36} n {:>6} total {:>10.3} ms self {:>10.3} ms",
                l.count,
                l.total_ns as f64 / 1e6,
                l.self_ns as f64 / 1e6
            );
        }
    }
    let dir = std::path::Path::new(".bench_out");
    let file = dir.join(format!(
        "{}_seed{}.spans.jsonl",
        args.workload.name(),
        args.seed
    ));
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&file, text)) {
        eprintln!("perfbench: could not write {}: {e}", file.display());
    } else {
        eprintln!("perfbench: spans written to {}", file.display());
    }
}

fn main() {
    let start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // Failures are counted, not fatal: keep panic messages on standard
    // error and carry on.
    let outcome = if args.trace {
        traced_run(&args, start)
    } else {
        timed_run(&args, start)
    };
    eprintln!(
        "perfbench: failed_frac {}/{}",
        outcome.failed, outcome.attempted
    );
    println!("{}", outcome.to_json());
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::{grid_cells, grid_pass, inputs, serial_pass};

    /// A workload's inputs cut down to a few hundred transactions.
    fn small(w: Workload) -> Vec<g2pl_protocols::EngineConfig> {
        let mut cfgs = inputs(w, 7);
        for c in &mut cfgs {
            c.warmup_txns = 20;
            c.measured_txns = 200;
        }
        cfgs
    }

    #[test]
    fn a_perturbed_digest_counts_as_a_failure() {
        let w = Workload::HotspotWrite;
        let pinned = workload::pinned_digest(w);
        let mut checker = Checker::new(w, workload::DEFAULT_SEED);
        assert!(checker.admit(Some(pinned)));
        assert!(!checker.admit(Some(pinned ^ 1)));
        assert_eq!((checker.attempted, checker.failed), (2, 1));

        // Away from the default seed the first pass sets the reference.
        let mut checker = Checker::new(w, 99);
        assert!(checker.admit(Some(5)));
        assert!(checker.admit(Some(5)));
        assert!(!checker.admit(Some(6)));
        assert_eq!((checker.attempted, checker.failed), (3, 1));
    }

    #[test]
    fn a_verification_panic_counts_as_a_failure() {
        let cfgs = small(Workload::HotspotWrite);
        let mut checker = Checker::new(Workload::HotspotWrite, 7);
        let pass = checker.attempt(|| {
            let mut cfg = cfgs[0].clone();
            cfg.trace_events = true;
            cfg.record_history = true;
            let mut m = g2pl_protocols::run(&cfg).expect("valid");
            // A truncated trace must be refused by the check.
            m.trace_dropped = 1;
            workload::check_trace(&cfg, &m);
            serial_pass(&cfgs, false, &mut Tracer::new(false))
        });
        assert!(pass.is_none());
        assert_eq!((checker.attempted, checker.failed), (1, 1));
        let outcome = Outcome::new(&checker, &END_TO_END, &BTreeMap::new());
        assert!(outcome
            .to_json()
            .starts_with("{\"correct\": false, \"attempted\": 1, \"failed\": 1,"));
    }

    #[test]
    fn traced_and_untraced_passes_give_identical_digests() {
        for w in [Workload::HotspotWrite, Workload::HotspotRead] {
            let cfgs = small(w);
            let plain = serial_pass(&cfgs, false, &mut Tracer::new(false));
            let mut tracer = Tracer::new(true);
            let traced = serial_pass(&cfgs, false, &mut tracer);
            let recorded = serial_pass(&cfgs, true, &mut tracer);
            assert_eq!(plain.digest(), traced.digest(), "{}", w.name());
            assert_eq!(plain.digest(), recorded.digest(), "{}", w.name());
            assert!(recorded.recorded.trace_events > 0);
            assert!(tracer.layers().contains_key("core.tracecheck"));
        }
        // A grid pass and its serial, traced copy run the same simulations.
        let mut cfgs = small(Workload::Recovery);
        cfgs.truncate(2);
        let grid = grid_pass(&cfgs);
        let serial = serial_pass(&grid_cells(&cfgs), false, &mut Tracer::new(true));
        assert_eq!(grid.cells.len(), serial.cells.len());
        assert_eq!(grid.digest(), serial.digest());
    }

    /// The `"name": "..."` and `"unit": "..."` pairs of one section of
    /// `BENCHMARK.json`, in order.
    fn declared(section: &str) -> Vec<(String, String)> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to the benchmark directory");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let field = |obj: &str, key: &str| -> String {
            let at = obj.find(&format!("\"{key}\"")).expect("key present");
            let rest = &obj[at + key.len() + 2..];
            let open = rest.find('"').expect("value opens") + 1;
            let close = open + rest[open..].find('"').expect("value closes");
            rest[open..close].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    #[test]
    fn every_metric_is_printed_with_its_unit() {
        for (section, list) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let want: Vec<(String, String)> = list
                .iter()
                .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
                .collect();
            assert_eq!(
                declared(section),
                want,
                "{section} differs from BENCHMARK.json"
            );
            let values: BTreeMap<String, f64> =
                list.iter().map(|(n, _)| ((*n).to_string(), 1.5)).collect();
            let mut checker = Checker::new(Workload::Recovery, 3);
            checker.admit(Some(3));
            let json = Outcome::new(&checker, list, &values).to_json();
            for (name, unit) in list {
                assert!(
                    json.contains(&format!(
                        "\"{name}\": {{\"value\": 1.5, \"unit\": \"{unit}\"}}"
                    )),
                    "{name} missing from {json}"
                );
            }
            assert!(json.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0,"));
        }
    }
}
