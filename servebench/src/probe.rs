//! The machine-speed probe: a fixed piece of work, written with the
//! standard library only, whose time says how fast the machine runs at
//! the moment.
//!
//! The benchmark runs on a few cores of a shared host whose speed drifts
//! by a third or more over tens of seconds, so a timing taken in one
//! stretch of a run says as much about the host as about the program. The
//! probe runs between measurement slices, while the servers are idle, and
//! every timing metric is scaled by how long the probe took next to it:
//! the numbers read as if the host had run at the [`REFERENCE`] speed
//! throughout. The probe shares no code with `cdat`, so a change to the
//! program moves the scaled numbers exactly as much as the raw ones.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The probe time that the scaled metrics assume: about one median round
/// on the 2-core x86-64 box the benchmark was tuned on, when unloaded.
pub const REFERENCE: Duration = Duration::from_millis(5);

/// Probe rounds each of the two probe threads runs.
const ROUNDS: u64 = 30;

/// Numbers one round formats, parses, hashes and sorts.
const ITEMS: u64 = 20_000;

/// One round: text formatting and parsing, hashing, ordered-map inserts
/// and a sort, the kinds of work a request costs the server.
fn round(seed: u64) -> u64 {
    let mut x = seed;
    let mut text = String::with_capacity(ITEMS as usize * 8);
    for _ in 0..ITEMS {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let _ = write!(text, "{},", (x >> 33) % 1_000_003);
    }
    let numbers: Vec<u64> = text.split(',').filter_map(|s| s.parse().ok()).collect();
    let mut hashed: HashMap<u64, u64> = HashMap::with_capacity(numbers.len());
    let mut ordered: BTreeMap<u64, u64> = BTreeMap::new();
    for (i, &n) in numbers.iter().enumerate() {
        *hashed.entry(n % 4096).or_default() += n;
        ordered.insert(n, i as u64);
    }
    let mut sorted: Vec<u64> = hashed.values().copied().collect();
    sorted.sort_unstable();
    sorted.iter().take(16).sum::<u64>() ^ ordered.len() as u64
}

/// Runs the probe on two threads at once (the server keeps both cores
/// busy, so the probe must too) and returns the median round's wall time
/// as a multiple of [`REFERENCE`]: 1.2 means the host now runs 1.2 times
/// slower than the reference.
pub fn slowdown() -> f64 {
    let run = |offset: u64| -> Vec<Duration> {
        (0..ROUNDS)
            .map(|r| {
                let started = Instant::now();
                black_box(round(black_box(offset + r + 1)));
                started.elapsed()
            })
            .collect()
    };
    let mut times = std::thread::scope(|s| {
        let other = s.spawn(|| run(1 << 20));
        let mut times = run(0);
        times.extend(other.join().expect("a probe round never panics"));
        times
    });
    times.sort();
    times[times.len() / 2].as_secs_f64() / REFERENCE.as_secs_f64()
}
