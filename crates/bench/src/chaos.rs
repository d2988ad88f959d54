//! Chaos search: randomized `(seed, FaultPlan)` sampling with shrinking.
//!
//! Each trial derives a case from its own [`RngStream`] (master seed +
//! trial index, so the whole search is reproducible), runs a short
//! drained simulation of one engine under that fault plan, and verifies
//! the result end to end: engine-internal drain invariants (via panic
//! capture), trace properties P1–P10 and conflict-serializability. A
//! failing case is then *shrunk* — fault components are removed or
//! simplified greedily while the failure persists — and reported as a
//! minimal single-case reproducer command line.
//!
//! The `chaos` binary drives this module; `ci/check.sh` runs a small
//! smoke search on every commit.

use g2pl_core::{check_serializable, check_trace_with, TraceCheckOpts};
use g2pl_protocols::{
    run, CrashWindow, Endpoint, EngineConfig, FaultPlan, ItemSpace, LinkPartition, ProtocolKind,
    ServerCrashWindow, ShardMix,
};
use g2pl_simcore::RngStream;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Engine labels the sampler draws from (CLI `--engine` values).
pub const ENGINES: [&str; 3] = ["g2pl", "s2pl", "c2pl"];

/// Clients in every chaos configuration (client crash windows index
/// into this range).
pub const CLIENTS: u32 = 8;

/// Map an engine label to its protocol. `None` for unknown labels.
pub fn protocol_of(engine: &str) -> Option<ProtocolKind> {
    match engine {
        "g2pl" => Some(ProtocolKind::g2pl_paper()),
        "s2pl" => Some(ProtocolKind::S2pl),
        "c2pl" => Some(ProtocolKind::C2pl),
        _ => None,
    }
}

/// One sampled chaos case: which engine, which workload seed, which
/// fault plan.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosCase {
    /// Engine label (one of [`ENGINES`]).
    pub engine: &'static str,
    /// Workload seed of the run.
    pub seed: u64,
    /// The sampled fault plan.
    pub plan: FaultPlan,
    /// Server shard count (1 = the paper's single server). Crash
    /// windows may hit any shard; the surviving shards must ride them
    /// out, and in-flight multi-home commits must stay atomic.
    pub shards: u32,
}

/// Canonicalize an engine label to its `'static` spelling.
fn intern_engine(engine: &str) -> Option<&'static str> {
    ENGINES.iter().find(|e| **e == engine).copied()
}

/// Sample trial `trial` of the search seeded by `master`.
///
/// Every draw comes from one stream derived as `chaos-trial-<n>`, so a
/// failing trial is reproducible from `(master, trial)` alone and
/// resampling one trial never perturbs another. `engine` pins the
/// engine; `None` samples it too.
pub fn sample_case(master: u64, trial: u64, engine: Option<&'static str>) -> ChaosCase {
    let mut rng = RngStream::derive_indexed(master, "chaos-trial", trial);
    let engine = engine.unwrap_or_else(|| ENGINES[rng.index(ENGINES.len())]);
    let seed = rng.uniform_incl(0, u64::from(u32::MAX));
    // Half the trials run sharded: faults must compose with multi-home
    // commit, and the P9/P10 crash-window checks are per site. Sampled
    // up front so crash windows can target any shard.
    let shards: u32 = [1, 1, 2, 4][rng.index(4)];
    let mut plan = FaultPlan::default();
    if rng.bernoulli(0.5) {
        plan.drop_prob = rng.unit_f64() * 0.04;
    }
    if rng.bernoulli(0.25) {
        plan.dup_prob = rng.unit_f64() * 0.02;
    }
    if rng.bernoulli(0.25) {
        plan.delay_prob = rng.unit_f64() * 0.05;
        plan.delay_extra = rng.uniform_incl(50, 500);
    }
    // One or two server outages, spaced so windows can never overlap
    // even at maximum jitter (FaultPlan::validate rejects per-shard
    // overlap; the global spacing is stricter than it demands). Each
    // window picks its own victim shard, so a sharded trial can lose a
    // non-zero shard mid multi-home commit.
    let outages = 1 + usize::from(rng.bernoulli(0.4));
    let mut cursor = rng.uniform_incl(2_000, 8_000);
    for _ in 0..outages {
        let shard = rng.index(shards as usize) as u32;
        let down_for = rng.uniform_incl(100, 2_000);
        let jitter = rng.uniform_incl(0, 400);
        plan.server_crashes.push(ServerCrashWindow {
            shard,
            at: cursor,
            down_for,
            jitter,
        });
        cursor += down_for + jitter + rng.uniform_incl(1_500, 8_000);
    }
    // Sometimes a client dies too: crash-recovery must compose with the
    // lease machinery, not just run beside it.
    if rng.bernoulli(0.4) {
        plan.crashes.push(CrashWindow {
            client: rng.index(CLIENTS as usize) as u32,
            at: rng.uniform_incl(2_000, 15_000),
            down_for: rng.uniform_incl(500, 3_000),
        });
    }
    // Sharded trials sometimes sever a shard-to-shard link: recovery
    // commit queries must survive a partitioned peer (retry until the
    // window lifts, or fall back to the commit oracle).
    if shards > 1 && rng.bernoulli(0.35) {
        let a = rng.index(shards as usize) as u32;
        let b = (a + 1 + rng.index(shards as usize - 1) as u32) % shards;
        let from = rng.uniform_incl(2_000, 12_000);
        let until = from + rng.uniform_incl(300, 2_500);
        plan.partitions
            .push(LinkPartition::between_shards(a, b, from, until));
    }
    ChaosCase {
        engine,
        seed,
        plan,
        shards,
    }
}

/// The fixed simulation cell a case runs in: small enough for hundreds
/// of trials, long enough that both sampled outage windows land inside
/// the run. Drain mode forces every surviving transaction to finish, so
/// recovery liveness is checked by completion itself.
pub fn case_config(case: &ChaosCase) -> Option<EngineConfig> {
    let mut cfg = EngineConfig::table1(protocol_of(case.engine)?, CLIENTS, 50, 0.5);
    cfg.seed = case.seed;
    cfg.warmup_txns = 50;
    cfg.measured_txns = 250;
    cfg.drain = true;
    cfg.trace_events = true;
    cfg.record_history = true;
    cfg.enable_wal = true;
    if case.shards > 1 {
        // Keep the pool at the paper's hot size, spread across shards,
        // with 30% of transactions crossing shard boundaries.
        cfg.items = ItemSpace::sharded(case.shards, 25_u32.div_ceil(case.shards));
        cfg.profile.shard_mix = Some(ShardMix {
            cross_frac: 0.3,
            shard_theta: 0.5,
        });
    }
    cfg.faults = Some(case.plan.clone());
    Some(cfg)
}

/// Run one case and verify it; `Err` carries the first failure found.
pub fn run_case(case: &ChaosCase) -> Result<(), String> {
    let Some(cfg) = case_config(case) else {
        return Err(format!("unknown engine label {:?}", case.engine));
    };
    if let Err(e) = cfg.validate() {
        return Err(format!("invalid config: {e}"));
    }
    let outcome = catch_unwind(AssertUnwindSafe(|| run(&cfg)));
    let metrics = match outcome {
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic payload");
            return Err(format!("engine panicked: {msg}"));
        }
        Ok(Err(e)) => return Err(format!("invalid config: {e}")),
        Ok(Ok(m)) => m,
    };
    if metrics.trace_truncated() {
        return Err("trace truncated: cannot verify honestly".to_string());
    }
    let Some(trace) = &metrics.trace else {
        return Err("engine returned no trace with trace_events on".to_string());
    };
    check_trace_with(trace, TraceCheckOpts::for_config(&cfg))
        .map_err(|e| format!("trace property: {e}"))?;
    let Some(history) = &metrics.history else {
        return Err("engine returned no history with record_history on".to_string());
    };
    check_serializable(history).map_err(|e| format!("serializability: {e}"))?;
    Ok(())
}

/// Shrink a failing case with an injectable failure oracle (`Some(err)`
/// = still fails). Greedy: apply the first simplification that keeps
/// the case failing, restart from the top, stop at a fixpoint or after
/// `max_runs` oracle calls. Returns the shrunk case and the error it
/// still fails with.
pub fn shrink_with(
    case: &ChaosCase,
    error: String,
    mut fails: impl FnMut(&ChaosCase) -> Option<String>,
    max_runs: u32,
) -> (ChaosCase, String, u32) {
    let mut best = case.clone();
    let mut best_err = error;
    let mut runs = 0;
    'outer: loop {
        for candidate in candidates(&best) {
            if runs >= max_runs {
                break 'outer;
            }
            runs += 1;
            if let Some(e) = fails(&candidate) {
                best = candidate;
                best_err = e;
                continue 'outer;
            }
        }
        break;
    }
    (best, best_err, runs)
}

/// Shrink a failing case by re-running the real simulation.
pub fn shrink(case: &ChaosCase, error: String) -> (ChaosCase, String, u32) {
    shrink_with(case, error, |c| run_case(c).err(), 100)
}

/// Candidate one-step simplifications of a case, simplest-first.
fn candidates(case: &ChaosCase) -> Vec<ChaosCase> {
    let mut out = Vec::new();
    if case.shards > 1 {
        // Simplest first: does the failure survive without sharding?
        // Collapsing retargets every crash window at the sole remaining
        // shard and drops shard partitions (the link no longer exists);
        // retargeting can merge windows into a per-shard overlap, in
        // which case the candidate is skipped as invalid.
        let mut p = case.plan.clone();
        for w in &mut p.server_crashes {
            w.shard = 0;
        }
        p.partitions
            .retain(|lp| !matches!((lp.a, lp.b), (Endpoint::Shard(_), Endpoint::Shard(_))));
        if p.validate().is_ok() {
            out.push(ChaosCase {
                shards: 1,
                plan: p,
                ..case.clone()
            });
        }
    }
    let mut push = |plan: FaultPlan| {
        out.push(ChaosCase {
            plan,
            ..case.clone()
        });
    };
    // Drop every window of one victim shard at once (a whole fault
    // domain at a time), then windows one by one.
    let mut victim_shards: Vec<u32> = case.plan.server_crashes.iter().map(|w| w.shard).collect();
    victim_shards.sort_unstable();
    victim_shards.dedup();
    if victim_shards.len() > 1 {
        for s in victim_shards {
            let mut p = case.plan.clone();
            p.server_crashes.retain(|w| w.shard != s);
            push(p);
        }
    }
    for i in 0..case.plan.server_crashes.len() {
        let mut p = case.plan.clone();
        p.server_crashes.remove(i);
        push(p);
    }
    for i in 0..case.plan.crashes.len() {
        let mut p = case.plan.clone();
        p.crashes.remove(i);
        push(p);
    }
    for i in 0..case.plan.partitions.len() {
        let mut p = case.plan.clone();
        p.partitions.remove(i);
        push(p);
    }
    if case.plan.drop_prob > 0.0 {
        let mut p = case.plan.clone();
        p.drop_prob = 0.0;
        push(p);
    }
    if case.plan.dup_prob > 0.0 {
        let mut p = case.plan.clone();
        p.dup_prob = 0.0;
        push(p);
    }
    if case.plan.delay_prob > 0.0 {
        let mut p = case.plan.clone();
        p.delay_prob = 0.0;
        p.delay_extra = 0;
        push(p);
    }
    for (i, w) in case.plan.server_crashes.iter().enumerate() {
        if w.jitter > 0 {
            let mut p = case.plan.clone();
            p.server_crashes[i].jitter = 0;
            push(p);
        }
        if w.down_for > 200 {
            let mut p = case.plan.clone();
            p.server_crashes[i].down_for = w.down_for / 2;
            push(p);
        }
    }
    out
}

/// The single-case reproducer command line for a (shrunk) case.
pub fn repro_command(case: &ChaosCase) -> String {
    use std::fmt::Write as _;
    let mut cmd = format!(
        "cargo run --release -p g2pl-bench --bin chaos -- --repro \
         --engine {} --seed {}",
        case.engine, case.seed
    );
    let p = &case.plan;
    if p.drop_prob > 0.0 {
        let _ = write!(cmd, " --drop {}", p.drop_prob);
    }
    if p.dup_prob > 0.0 {
        let _ = write!(cmd, " --dup {}", p.dup_prob);
    }
    if p.delay_prob > 0.0 {
        let _ = write!(
            cmd,
            " --delay {} --delay-extra {}",
            p.delay_prob, p.delay_extra
        );
    }
    for w in &p.server_crashes {
        let _ = write!(
            cmd,
            " --server-crash {}:{}:{}:{}",
            w.shard, w.at, w.down_for, w.jitter
        );
    }
    for w in &p.crashes {
        let _ = write!(cmd, " --client-crash {}:{}:{}", w.client, w.at, w.down_for);
    }
    for lp in &p.partitions {
        if let (Endpoint::Shard(a), Endpoint::Shard(b)) = (lp.a, lp.b) {
            let _ = write!(cmd, " --shard-partition {a}:{b}:{}:{}", lp.from, lp.until);
        }
    }
    if case.shards > 1 {
        let _ = write!(cmd, " --shards {}", case.shards);
    }
    cmd
}

/// Parse the `--repro` flag tail back into a case (the inverse of
/// [`repro_command`]).
pub fn parse_case(args: &[String]) -> Result<ChaosCase, String> {
    let mut engine = None;
    let mut seed = None;
    let mut shards = 1u32;
    let mut plan = FaultPlan::default();
    let mut it = args.iter();
    let next_val = |flag: &str, it: &mut std::slice::Iter<'_, String>| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--engine" => {
                let v = next_val("--engine", &mut it)?;
                engine = Some(intern_engine(&v).ok_or_else(|| format!("unknown engine {v:?}"))?);
            }
            "--seed" => seed = Some(parse_num(&next_val("--seed", &mut it)?)?),
            "--shards" => {
                let v = parse_num(&next_val("--shards", &mut it)?)?;
                shards = u32::try_from(v)
                    .ok()
                    .filter(|s| (1..=64).contains(s))
                    .ok_or_else(|| format!("shard count out of range: {v}"))?;
            }
            "--drop" => plan.drop_prob = parse_prob(&next_val("--drop", &mut it)?)?,
            "--dup" => plan.dup_prob = parse_prob(&next_val("--dup", &mut it)?)?,
            "--delay" => plan.delay_prob = parse_prob(&next_val("--delay", &mut it)?)?,
            "--delay-extra" => {
                plan.delay_extra = parse_num(&next_val("--delay-extra", &mut it)?)?;
            }
            "--server-crash" => {
                let v = next_val("--server-crash", &mut it)?;
                // Four fields address a shard; the legacy three-field
                // form described "the server" and keeps meaning shard 0.
                let (shard, at, down_for, jitter) = match parse_parts(&v)?[..] {
                    [at, down_for, jitter] => (0, at, down_for, jitter),
                    [shard, at, down_for, jitter] => (
                        u32::try_from(shard).map_err(|_| format!("shard {shard} out of range"))?,
                        at,
                        down_for,
                        jitter,
                    ),
                    _ => return Err(format!("expected [shard:]at:down:jitter, got {v:?}")),
                };
                plan.server_crashes.push(ServerCrashWindow {
                    shard,
                    at,
                    down_for,
                    jitter,
                });
            }
            "--shard-partition" => {
                let v = next_val("--shard-partition", &mut it)?;
                let [a, b, from, until] = parse_parts(&v)?[..] else {
                    return Err(format!("expected a:b:from:until, got {v:?}"));
                };
                let shard = |x: u64| u32::try_from(x).map_err(|_| format!("shard {x} too large"));
                plan.partitions.push(LinkPartition::between_shards(
                    shard(a)?,
                    shard(b)?,
                    from,
                    until,
                ));
            }
            "--client-crash" => {
                let v = next_val("--client-crash", &mut it)?;
                let [client, at, down_for] = parse_triple(&v)?;
                let client = u32::try_from(client)
                    .map_err(|_| format!("client index {client} out of range"))?;
                plan.crashes.push(CrashWindow {
                    client,
                    at,
                    down_for,
                });
            }
            other => return Err(format!("unknown repro flag {other:?}")),
        }
    }
    let engine = engine.ok_or("--repro needs --engine")?;
    let seed = seed.ok_or("--repro needs --seed")?;
    Ok(ChaosCase {
        engine,
        seed,
        plan,
        shards,
    })
}

fn parse_num(s: &str) -> Result<u64, String> {
    s.parse().map_err(|_| format!("not a number: {s:?}"))
}

fn parse_prob(s: &str) -> Result<f64, String> {
    s.parse()
        .ok()
        .filter(|p| (0.0..=1.0).contains(p))
        .ok_or_else(|| format!("not a probability: {s:?}"))
}

fn parse_triple(s: &str) -> Result<[u64; 3], String> {
    match parse_parts(s)?[..] {
        [a, b, c] => Ok([a, b, c]),
        _ => Err(format!("expected a:b:c, got {s:?}")),
    }
}

/// Split a colon-separated numeric tuple of any arity.
fn parse_parts(s: &str) -> Result<Vec<u64>, String> {
    s.split(':').map(parse_num).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic_per_trial() {
        let a = sample_case(7, 3, None);
        let b = sample_case(7, 3, None);
        assert_eq!(a, b);
        let c = sample_case(7, 4, None);
        assert_ne!(a, c, "distinct trials must differ");
    }

    #[test]
    fn sampled_plans_are_valid() {
        for trial in 0..50 {
            let case = sample_case(42, trial, None);
            assert!(
                case.plan.validate().is_ok(),
                "trial {trial} sampled an invalid plan: {:?}",
                case.plan
            );
            assert!(
                case.plan.has_server_crashes(),
                "every case crashes the server"
            );
            let cfg = case_config(&case).expect("known engine");
            assert!(cfg.validate().is_ok());
        }
    }

    #[test]
    fn engine_pin_is_honored() {
        for trial in 0..10 {
            let case = sample_case(1, trial, Some("s2pl"));
            assert_eq!(case.engine, "s2pl");
        }
    }

    #[test]
    fn repro_command_round_trips() {
        for trial in 0..20 {
            let case = sample_case(99, trial, None);
            let cmd = repro_command(&case);
            let tail: Vec<String> = cmd
                .split(" --repro ")
                .nth(1)
                .expect("repro marker")
                .split_whitespace()
                .map(str::to_string)
                .collect();
            let parsed = parse_case(&tail).expect("parses");
            assert_eq!(parsed, case, "{cmd}");
        }
    }

    #[test]
    fn parse_rejects_malformed_input() {
        let args = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        assert!(parse_case(&args("--engine g2pl")).is_err(), "missing seed");
        assert!(parse_case(&args("--seed 4")).is_err(), "missing engine");
        assert!(parse_case(&args("--engine x2pl --seed 4")).is_err());
        assert!(parse_case(&args("--engine g2pl --seed 4 --drop 1.5")).is_err());
        assert!(parse_case(&args("--engine g2pl --seed 4 --server-crash 1:2")).is_err());
        assert!(parse_case(&args("--engine g2pl --seed 4 --bogus 1")).is_err());
    }

    #[test]
    fn shrink_reaches_a_minimal_failing_case() {
        // Oracle: fails while any server crash window remains. The
        // shrinker must strip everything else and keep exactly one.
        let case = sample_case(11, 2, Some("g2pl"));
        let (small, err, runs) = shrink_with(
            &case,
            "seed failure".to_string(),
            |c| {
                c.plan
                    .has_server_crashes()
                    .then(|| "still fails".to_string())
            },
            1_000,
        );
        assert!(runs > 0);
        assert_eq!(err, "still fails");
        assert_eq!(small.plan.server_crashes.len(), 1);
        assert!(small.plan.crashes.is_empty());
        assert_eq!(small.plan.drop_prob, 0.0);
        assert_eq!(small.plan.dup_prob, 0.0);
        assert_eq!(small.plan.delay_prob, 0.0);
        assert_eq!(small.plan.server_crashes[0].jitter, 0);
        assert!(small.plan.server_crashes[0].down_for <= 200);
    }

    #[test]
    fn shrink_respects_the_run_budget() {
        // Plenty of components left to strip, but only 2 runs allowed.
        let mut plan = FaultPlan::default();
        for i in 0..4 {
            plan.server_crashes
                .push(ServerCrashWindow::fixed(2_000 + i * 5_000, 1_000));
        }
        plan.drop_prob = 0.01;
        let case = ChaosCase {
            engine: "g2pl",
            seed: 7,
            plan,
            shards: 1,
        };
        let (small, _, runs) = shrink_with(&case, "e".to_string(), |_| Some("e".to_string()), 2);
        assert_eq!(runs, 2);
        assert_eq!(
            small.plan.server_crashes.len(),
            2,
            "two accepted removals, then the budget stops the search"
        );
    }

    #[test]
    fn chaos_trials_pass_on_the_current_engines() {
        // A miniature in-process smoke search: one trial per engine.
        for (i, engine) in ENGINES.iter().enumerate() {
            let case = sample_case(5, i as u64, intern_engine(engine));
            assert_eq!(run_case(&case), Ok(()), "{engine} trial failed");
        }
    }

    #[test]
    fn sharded_chaos_trials_pass_on_every_engine() {
        // Crashing shard 0 while other shards stay live, with 30%
        // multi-home transactions: faults must compose with sharding.
        for (i, engine) in ENGINES.iter().enumerate() {
            let mut case = sample_case(21, i as u64, intern_engine(engine));
            case.shards = 4;
            assert_eq!(run_case(&case), Ok(()), "{engine} sharded trial failed");
        }
    }

    #[test]
    fn c2pl_client_crash_keeps_the_cached_reads_of_its_transaction() {
        // The client crashes while its transaction pins a cached copy
        // with a callback deferred behind it. Dropping the pin with the
        // cache let the retried callback be acknowledged at restart, so a
        // writer overwrote what the still-running transaction had read.
        let args: Vec<String> = [
            "--engine",
            "c2pl",
            "--seed",
            "2759577457",
            "--drop",
            "0.0028362797117148643",
            "--delay",
            "0.01839689197120586",
            "--delay-extra",
            "378",
            "--server-crash",
            "0:4014:1764:153",
            "--client-crash",
            "0:10787:1213",
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        let case = parse_case(&args).expect("valid repro");
        assert_eq!(run_case(&case), Ok(()));
    }

    #[test]
    fn sampler_emits_sharded_cases() {
        let mut seen_multi = false;
        let mut seen_single = false;
        for trial in 0..30 {
            let case = sample_case(13, trial, None);
            assert!((1..=64).contains(&case.shards));
            seen_multi |= case.shards > 1;
            seen_single |= case.shards == 1;
        }
        assert!(seen_multi && seen_single, "both layouts must be sampled");
    }
}
