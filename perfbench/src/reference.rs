//! The reference loop: a fixed piece of work, local to the benchmark,
//! that measures how fast the host is running right now.
//!
//! A shared host's speed drifts by up to a third over tens of seconds
//! (other tenants' load on the same cores, caches and memory), and the
//! drift lasts longer than a run, so a median over one run's passes does
//! not remove it. The timed runs therefore follow each engine run (each
//! grid pass on `recovery`, each set-up) with this loop and express host
//! time in reference seconds: host seconds × `NOMINAL_SECS` / the loop's
//! measured time. A host at nominal speed reads unscaled.
//!
//! The loop is shaped like the simulator's hot path (a binary-heap event
//! calendar, per-item FIFO queues in a `BTreeMap`, per-transaction item
//! lists) so the same contention slows both alike. It uses only `std`, so
//! no change to the repository's crates changes it.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// Events the loop processes.
const EVENTS: u64 = 600_000;

/// The loop's median time on the 2-core x86-64 host the benchmark was
/// defined on; the scale
/// that makes reference seconds read as host seconds at that speed.
pub const NOMINAL_SECS: f64 = 0.08;

fn run_loop() -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    let mut rnd = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut calendar = BinaryHeap::new();
    let mut queues: BTreeMap<u32, VecDeque<u64>> = BTreeMap::new();
    let mut held: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
    for id in 0..300u64 {
        calendar.push(Reverse((rnd() % 500, id)));
    }
    let mut sum = 0u64;
    for _ in 0..EVENTS {
        let Reverse((at, id)) = calendar.pop().expect("the calendar never empties");
        let item = (rnd() % 25) as u32;
        let queue = queues.entry(item).or_default();
        queue.push_back(id);
        if queue.len() > 6 {
            sum = sum.wrapping_add(queue.pop_front().expect("queue is non-empty"));
        }
        let items = held.entry(id % 4096).or_default();
        items.push(item);
        if items.len() > 5 {
            items.clear();
        }
        let delay = match rnd() % 4 {
            0 | 1 => 500,
            2 => 1 + rnd() % 3,
            _ => 2 + rnd() % 9,
        };
        calendar.push(Reverse((at + delay, id)));
    }
    sum
}

/// Run the loop on `threads` threads at once (one per grid worker, so
/// every core the work used is sampled) and return the mean seconds.
pub fn secs(threads: usize) -> f64 {
    let timed = || {
        let t = Instant::now();
        black_box(run_loop());
        t.elapsed().as_secs_f64()
    };
    if threads <= 1 {
        return timed();
    }
    let times: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(timed)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread does not panic"))
            .collect()
    });
    times.iter().sum::<f64>() / times.len() as f64
}

/// The factor that turns host seconds into reference seconds for work
/// bracketed by two runs of the loop that took `before` and `after`.
pub fn scale(before: f64, after: f64) -> f64 {
    2.0 * NOMINAL_SECS / (before + after)
}
