//! Substrate layers timed on their own, at the sizes a workload's runs
//! showed: the event calendar, the s-2PL/c-2PL lock table and g-2PL
//! window ordering.
//!
//! There is deliberately no row for `lockmgr::WaitForGraph`: no engine
//! calls it (they search for deadlocks with the crate-private
//! `protocols::cycle::CycleFinder`), so its cost would move no end-to-end
//! figure. Deadlock search is inside `protocols.<engine>.ns_per_event`.

use crate::stats::median;
use crate::trace::Tracer;
use g2pl_fwdlist::window::PendingReq;
use g2pl_fwdlist::{FlEntry, OrderingRule, PrecedenceDag};
use g2pl_lockmgr::{LockMode, LockTable};
use g2pl_simcore::{Calendar, ClientId, ItemId, SimTime, TxnId};
use std::hint::black_box;
use std::time::Instant;

/// Timed repetitions of each layer; the median is reported.
const REPEATS: usize = 5;

/// What a workload's runs looked like, as the layers see it.
#[derive(Clone, Debug)]
pub struct Shape {
    pub clients: u32,
    pub items: u32,
    pub read_prob: f64,
    pub latency: u64,
    pub peak_calendar: usize,
    /// Forward-list lengths at window close, as observed (g-2PL).
    pub window_sizes: Vec<u32>,
}

/// A small deterministic generator (xorshift64*), local to the layer
/// loops so they draw no simulator random stream.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn chance(&mut self, p: f64) -> bool {
        ((self.next() >> 11) as f64 / (1u64 << 53) as f64) < p
    }
}

fn mode(g: &mut Gen, read_prob: f64) -> LockMode {
    if g.chance(read_prob) {
        LockMode::Shared
    } else {
        LockMode::Exclusive
    }
}

/// Median nanoseconds per unit over [`REPEATS`] timed calls of `f`, each
/// inside a span named `name`; `f` returns how many units it did.
fn timed(tracer: &mut Tracer, name: &str, mut f: impl FnMut() -> u64) -> f64 {
    let per: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let t = Instant::now();
            let units = tracer.span(name, &mut f);
            t.elapsed().as_nanos() as f64 / units.max(1) as f64
        })
        .collect();
    median(&per)
}

/// Calendar schedule and pop at the workload's peak depth: each pop is
/// followed by a schedule one delay later, the delay drawn from the
/// network latency and the think (1–3) and idle (2–10) times. Reports
/// ns per operation (a schedule or a pop).
pub fn calendar(tracer: &mut Tracer, shape: &Shape) -> f64 {
    const POPS: u64 = 200_000;
    let depth = shape.peak_calendar.max(1) as u64;
    timed(tracer, "simcore.calendar", || {
        let mut g = Gen(0x5eed);
        let mut cal: Calendar<u64> = Calendar::new();
        let delay = |g: &mut Gen| match g.below(4) {
            0 | 1 => shape.latency,
            2 => 1 + g.below(3),
            _ => 2 + g.below(9),
        };
        for i in 0..depth {
            let d = delay(&mut g);
            cal.schedule(SimTime::new(d), i);
        }
        let mut sum = 0u64;
        for _ in 0..POPS {
            let (at, e) = cal.pop().expect("the calendar never empties");
            sum = sum.wrapping_add(e);
            let d = delay(&mut g);
            cal.schedule(SimTime::new(at.units() + d), e);
        }
        black_box(sum);
        2 * POPS
    })
}

/// Lock-table acquire and release_all with the workload's clients, hot
/// items and read probability: every client keeps one transaction of
/// 1–5 items open; the oldest releases as the next one starts. Reports
/// ns per operation (an acquire or a release_all).
pub fn lock_table(tracer: &mut Tracer, shape: &Shape) -> f64 {
    const TXNS: u32 = 40_000;
    let live = shape.clients.max(1);
    timed(tracer, "lockmgr.table", || {
        let mut g = Gen(0x10c4);
        let mut lt = LockTable::new();
        let mut ops = 0u64;
        for t in 0..TXNS {
            for _ in 0..=g.below(5) {
                let item = ItemId::new(g.below(u64::from(shape.items)) as u32);
                black_box(lt.acquire(TxnId::new(t), item, mode(&mut g, shape.read_prob)));
                ops += 1;
            }
            if t >= live {
                black_box(lt.release_all(TxnId::new(t - live)));
                ops += 1;
            }
        }
        ops
    })
}

/// Window-close ordering at the observed forward-list lengths, against a
/// precedence DAG that carries constraints across windows: each window
/// draws its requests from the clients' current transactions, and each
/// client in a window finishes its transaction (leaving the DAG) with
/// probability 1/3, as a transaction of 1–5 items would. Reports ns per
/// window.
pub fn ordering(tracer: &mut Tracer, shape: &Shape) -> f64 {
    const WINDOWS: usize = 2_000;
    let sizes: &[u32] = if shape.window_sizes.is_empty() {
        &[1]
    } else {
        &shape.window_sizes
    };
    let clients = shape.clients.max(1);
    timed(tracer, "fwdlist.order", || {
        let mut g = Gen(0x0de7);
        let mut dag = PrecedenceDag::new();
        let mut current: Vec<u32> = (0..clients).collect();
        let mut next_txn = clients;
        let mut arrival = 0u64;
        for w in 0..WINDOWS {
            let size = sizes[w % sizes.len()].min(clients);
            let first = g.below(u64::from(clients)) as u32;
            let members: Vec<usize> = (0..size)
                .map(|k| ((first + k) % clients) as usize)
                .collect();
            let pending: Vec<PendingReq> = members
                .iter()
                .map(|&c| {
                    arrival += 1;
                    PendingReq {
                        entry: FlEntry::new(
                            TxnId::new(current[c]),
                            ClientId::new(c as u32),
                            mode(&mut g, shape.read_prob),
                        ),
                        arrival,
                        restarts: 0,
                    }
                })
                .collect();
            black_box(OrderingRule::default().order(pending, &mut dag));
            for c in members {
                if g.below(3) == 0 {
                    dag.remove_txn(TxnId::new(current[c]));
                    current[c] = next_txn;
                    next_txn += 1;
                }
            }
        }
        WINDOWS as u64
    })
}
