//! The workloads: fixed simulation batches built from a seed, run through
//! the simulator's public entry points, and reduced to a digest of their
//! simulated outputs.

use crate::trace::Tracer;
use g2pl_core::experiments::OUTAGE_SWEEP;
use g2pl_core::runner::replication_seed;
use g2pl_core::{check_serializable, check_trace_with, run_grid, TraceCheckOpts};
use g2pl_obs::{SpanKind, SpanRecorder};
use g2pl_protocols::{
    run, EngineConfig, FaultPlan, History, ItemSpace, ProtocolKind, RunMetrics, ShardMix,
};
use std::time::Instant;

/// The seed whose simulated-output digests are pinned in [`pinned_digest`].
pub const DEFAULT_SEED: u64 = 1;

/// Replications per `recovery` point, as `run_grid` runs them.
const RECOVERY_REPS: u32 = 3;

/// The three engines, in the order every workload runs them.
pub const ENGINES: [&str; 3] = ["s2pl", "g2pl", "c2pl"];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    HotspotWrite,
    HotspotRead,
    Recovery,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::HotspotWrite,
        Workload::HotspotRead,
        Workload::Recovery,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotspotWrite => "hotspot_write",
            Workload::HotspotRead => "hotspot_read",
            Workload::Recovery => "recovery",
        }
    }

    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Whether passes go through the grid scheduler (`run_grid`) rather
    /// than one `protocols::run` call per cell.
    pub fn uses_grid(self) -> bool {
        self == Workload::Recovery
    }
}

/// The simulated-output digest of one pass of `w` at [`DEFAULT_SEED`],
/// measured when the benchmark was defined. A change that alters what
/// the simulator computes must re-measure these (the run prints them).
pub fn pinned_digest(w: Workload) -> u64 {
    match w {
        Workload::HotspotWrite => 0x0c17_4d9f_d518_9ee0,
        Workload::HotspotRead => 0x2637_6a2c_c165_9a11,
        Workload::Recovery => 0xd217_ad29_d271_ef1d,
    }
}

/// splitmix64: spreads a small command-line seed over the whole `u64`.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The engine a configuration runs, by its name in [`ENGINES`].
fn engine_of(cfg: &EngineConfig) -> &'static str {
    match cfg.protocol {
        ProtocolKind::S2pl => "s2pl",
        ProtocolKind::G2pl(_) => "g2pl",
        ProtocolKind::C2pl => "c2pl",
    }
}

fn protocol(engine: &str) -> ProtocolKind {
    match engine {
        "s2pl" => ProtocolKind::S2pl,
        "g2pl" => ProtocolKind::g2pl_paper(),
        _ => ProtocolKind::C2pl,
    }
}

/// The engine configurations of one pass. Every engine of a workload
/// draws from the same seed, so the engines see the same random streams.
/// `recovery` lists its grid points; `run_grid` derives each point's
/// replication seeds from the point's seed.
pub fn inputs(w: Workload, seed: u64) -> Vec<EngineConfig> {
    let seed = mix(seed);
    match w {
        Workload::HotspotWrite | Workload::HotspotRead => {
            let pr = if w == Workload::HotspotWrite {
                0.25
            } else {
                0.9
            };
            ENGINES
                .iter()
                .map(|e| {
                    let mut cfg = EngineConfig::table1(protocol(e), 150, 500, pr);
                    cfg.warmup_txns = 500;
                    cfg.measured_txns = 20_000;
                    cfg.seed = seed;
                    cfg
                })
                .collect()
        }
        Workload::Recovery => ENGINES
            .iter()
            .flat_map(|e| OUTAGE_SWEEP.iter().map(move |&down_for| (e, down_for)))
            .map(|(e, down_for)| {
                let mut cfg = EngineConfig::table1(protocol(e), 50, 50, 0.6);
                cfg.warmup_txns = 500;
                cfg.measured_txns = 5_000;
                cfg.seed = seed;
                cfg.items = ItemSpace::sharded(4, 6);
                cfg.profile.shard_mix = Some(ShardMix {
                    cross_frac: 0.3,
                    shard_theta: 0.5,
                });
                cfg.drain = true;
                if down_for > 0 {
                    cfg.faults = Some(FaultPlan::shard_outage(3, down_for));
                }
                cfg
            })
            .collect(),
    }
}

/// One simulation run of a pass, reduced to what the metrics need.
#[derive(Clone, Debug)]
pub struct Cell {
    pub engine: &'static str,
    /// The run had an active fault plan.
    pub crash: bool,
    /// Host seconds the engine took (the runner's stamp under `run_grid`).
    pub secs: f64,
    pub metrics: RunMetrics,
}

impl Cell {
    /// Simulated transactions finished: committed plus aborted.
    pub fn txns(&self) -> u64 {
        self.metrics.committed_total + self.metrics.aborted_total
    }
}

/// Everything one pass produced.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    pub secs: f64,
    pub cells: Vec<Cell>,
    /// Busy cell seconds over (workers x wall seconds).
    pub grid_util: f64,
    /// What recording gave the checks, when the pass recorded.
    pub recorded: Recorded,
}

/// Sizes of what a recorded pass checked and replayed.
#[derive(Clone, Debug, Default)]
pub struct Recorded {
    pub trace_events: u64,
    pub history_commits: u64,
    pub span_events: u64,
    /// Forward-list lengths at g-2PL window closes.
    pub window_sizes: Vec<u32>,
}

impl Pass {
    pub fn txns(&self) -> u64 {
        self.cells.iter().map(Cell::txns).sum()
    }

    pub fn digest(&self) -> u64 {
        digest(self.cells.iter().map(|c| &c.metrics))
    }
}

/// FNV-1a over the simulated outputs of a sequence of runs. Host timing,
/// recordings and anything else a traced run adds are left out, so
/// recording and tracing must leave the digest unchanged.
pub fn digest<'a>(runs: impl IntoIterator<Item = &'a RunMetrics>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for m in runs {
        for b in m.protocol.bytes() {
            eat(u64::from(b));
        }
        eat(m.committed_total);
        eat(m.aborted_total);
        eat(m.events);
        eat(m.end_time.units());
        eat(m.net.messages());
        eat(m.response.count());
        eat(m.response.mean().to_bits());
        eat(m.aborts.hits());
        eat(m.peak_calendar as u64);
        eat(m.window_closes);
        eat(m.max_fl_len as u64);
        eat(m.phases.rounds_total);
        eat(m.faults.server_crashes);
        eat(m.faults.retries);
        eat(m.faults.reregistrations);
    }
    h
}

/// Check a recorded run's trace against the protocol properties; panics
/// with the diagnostic on a violation, as the grid runner does.
pub fn check_trace(cfg: &EngineConfig, m: &RunMetrics) {
    assert!(
        !m.trace_truncated(),
        "{} trace dropped {} events",
        m.protocol,
        m.trace_dropped
    );
    let trace = m.trace.as_ref().expect("a recorded run carries its trace");
    if let Err(e) = check_trace_with(trace, TraceCheckOpts::for_config(cfg)) {
        panic!("{} trace property violation: {e}", m.protocol);
    }
}

/// Check a recorded run's history for conflict-serializability.
pub fn check_history(m: &RunMetrics) {
    let history = m
        .history
        .as_ref()
        .expect("a recorded run carries its history");
    if let Err(e) = check_serializable(history) {
        panic!("{} serializability violation: {e}", m.protocol);
    }
}

/// A serial pass: one `protocols::run` call per configuration, each in a
/// `protocols.<engine>.run` span (`.run.crash` under a fault plan).
///
/// With `record` on, each run records its trace, history and span events,
/// is checked (spans `core.tracecheck` and `core.serializable`), and has
/// its span events replayed (`obs.span_replay`); the recordings are then
/// dropped.
pub fn serial_pass(cfgs: &[EngineConfig], record: bool, tracer: &mut Tracer) -> Pass {
    let t = Instant::now();
    let mut recorded = Recorded::default();
    let mut cells = Vec::with_capacity(cfgs.len());
    for base in cfgs {
        let mut cfg = base.clone();
        cfg.trace_events = record;
        cfg.record_history = record;
        let crash = cfg.active_faults().is_some();
        let name = format!(
            "protocols.{}.run{}",
            engine_of(&cfg),
            if crash { ".crash" } else { "" }
        );
        let started = Instant::now();
        let mut metrics = tracer.span(&name, || {
            run(&cfg).expect("workload configurations are valid")
        });
        let secs = started.elapsed().as_secs_f64();
        if record {
            tracer.span("core.tracecheck", || check_trace(&cfg, &metrics));
            tracer.span("core.serializable", || check_history(&metrics));
            let spans = metrics.spans.take().unwrap_or_default();
            tracer.span("obs.span_replay", || {
                std::hint::black_box(SpanRecorder::replay(&spans).finish());
            });
            recorded.trace_events += metrics.trace.as_ref().map_or(0, Vec::len) as u64;
            recorded.history_commits += metrics.history.as_ref().map_or(0, History::len) as u64;
            recorded.span_events += spans.len() as u64;
            recorded.window_sizes.extend(
                spans
                    .iter()
                    .filter(|e| e.kind == SpanKind::WindowClosed)
                    .map(|e| e.n),
            );
            metrics.trace = None;
            metrics.history = None;
        }
        cells.push(Cell {
            engine: engine_of(&cfg),
            crash,
            secs,
            metrics,
        });
    }
    let secs = t.elapsed().as_secs_f64();
    let busy: f64 = cells.iter().map(|c| c.secs).sum();
    Pass {
        secs,
        grid_util: busy / secs,
        cells,
        recorded,
    }
}

/// A grid pass: every point of `inputs` through `run_grid`, which runs
/// the replications on one worker per core and verifies replication 0 of
/// every point (trace properties and serializability).
pub fn grid_pass(inputs: &[EngineConfig]) -> Pass {
    let t = Instant::now();
    let results = run_grid(inputs, RECOVERY_REPS);
    let secs = t.elapsed().as_secs_f64();
    let cells: Vec<Cell> = inputs
        .iter()
        .zip(results)
        .flat_map(|(cfg, r)| {
            let crash = cfg.active_faults().is_some();
            let engine = engine_of(cfg);
            r.runs.into_iter().map(move |metrics| Cell {
                engine,
                crash,
                secs: metrics.wall_secs,
                metrics,
            })
        })
        .collect();
    let busy: f64 = cells.iter().map(|c| c.secs).sum();
    let workers = grid_workers().min(cells.len()) as f64;
    Pass {
        secs,
        grid_util: busy / (workers * secs),
        cells,
        recorded: Recorded::default(),
    }
}

/// The grid runner's worker count: one per available core.
pub fn grid_workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// The replication configurations `run_grid` derives from `inputs`, in
/// its result order: what a serial copy of a grid pass runs.
pub fn grid_cells(inputs: &[EngineConfig]) -> Vec<EngineConfig> {
    inputs
        .iter()
        .flat_map(|base| {
            (0..RECOVERY_REPS).map(move |r| {
                let mut cfg = base.clone();
                cfg.seed = replication_seed(base.seed, r);
                cfg
            })
        })
        .collect()
}

/// The untimed warm-up pass of set-up: the hotspots record and check
/// every run; `recovery` is a grid pass, which checks replication 0.
pub fn warmup_pass(w: Workload, inputs: &[EngineConfig]) -> Pass {
    if w.uses_grid() {
        grid_pass(inputs)
    } else {
        serial_pass(inputs, true, &mut Tracer::new(false))
    }
}
