//! A fixed piece of work that tells how fast the host runs right now.
//!
//! The benchmark runs on virtual machines whose speed changes for minutes
//! at a time: when other tenants load the cores and caches underneath, the
//! same code runs up to 1.8 times slower, and steal time does not show it.
//! The yardstick is the benchmark's own code, not the program's, so a
//! change to the program cannot move it. Timed beside the workload, it
//! gives the host's speed at that moment, and the benchmark reports its
//! timings scaled to the speed at which the yardstick takes
//! [`REFERENCE_NS`].
//!
//! One reading is the geometric mean of two timings: a pointer chase
//! through a 128-KiB table (memory latency) and building and probing a
//! 1024-entry hash map (hashing, branches, allocation). On the paper
//! workload, over 192 windows of 6 runs whose query rate ranged from 743
//! to 1344 per second, the program's time per query moved with this mean
//! at a log-log slope of 0.95; the chase alone moved at 1.77 and the hash
//! map alone at 0.63, so each alone would under- or over-correct.

use crate::report::median;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Entries of the pointer-chase table: one cycle through 32768 `u32`.
const CHASE: usize = 32_768;
/// Steps of one chase.
const STEPS: usize = 8192;
/// Keys inserted into, then looked up in, the hash map.
const KEYS: usize = 1024;
/// Timings of each part per reading; a reading takes their medians.
const PASSES: usize = 7;

/// The geometric mean, in nanoseconds, of the two parts' timings at the
/// reference speed: the fast end of what a 2-vCPU x86-64 virtual machine
/// (Intel Xeon, AVX-512) measured.
pub const REFERENCE_NS: f64 = 42_000.0;

/// The yardstick's data, generated from a fixed seed.
pub struct Yardstick {
    keys: Vec<u64>,
    next: Vec<u32>,
}

impl Yardstick {
    /// Generates the keys and one random cycle through the chase table.
    pub fn new() -> Self {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut rand = move || {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let keys = (0..KEYS).map(|_| rand()).collect();
        // Sattolo's shuffle: a single cycle through every entry.
        let mut order: Vec<u32> = (0..CHASE as u32).collect();
        for i in (1..CHASE).rev() {
            let j = (rand() % i as u64) as usize;
            order.swap(i, j);
        }
        let mut next = vec![0u32; CHASE];
        for i in 0..CHASE {
            next[order[i] as usize] = order[(i + 1) % CHASE];
        }
        Self { keys, next }
    }

    fn chase(&self) -> u32 {
        let mut at = 0u32;
        for _ in 0..STEPS {
            at = black_box(&self.next)[at as usize];
        }
        at
    }

    fn hash_map(&self) -> u64 {
        let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
        for (i, &k) in black_box(&self.keys).iter().enumerate() {
            map.insert(k, i as u64);
        }
        self.keys.iter().filter_map(|k| map.get(k)).sum()
    }

    /// One reading: how much slower than the reference speed the host runs
    /// now (1 at the reference speed).
    pub fn slowdown(&self) -> f64 {
        fn timed<T>(f: impl Fn() -> T) -> f64 {
            let times: Vec<f64> = (0..PASSES)
                .map(|_| {
                    let t0 = Instant::now();
                    black_box(f());
                    t0.elapsed().as_nanos() as f64
                })
                .collect();
            median(&times)
        }
        let chase = timed(|| self.chase());
        let hash = timed(|| self.hash_map());
        (chase * hash).sqrt() / REFERENCE_NS
    }

    /// `n` readings in a row.
    pub fn readings(&self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.slowdown()).collect()
    }

    /// The slowdown of the whole machine for work spread over every
    /// hardware thread: `n` readings on each of that many threads at once
    /// (a vCPU can be slowed while its sibling is not), combined as the
    /// harmonic mean of the threads' medians, since throughput adds up
    /// over the threads. Only meaningful while the program idles.
    pub fn machine_slowdown(&self, n: usize) -> f64 {
        let threads = std::thread::available_parallelism().map_or(1, |t| t.get());
        let medians: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| s.spawn(|| median(&self.readings(n))))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("yardstick thread panicked"))
                .collect()
        });
        medians.len() as f64 / medians.iter().map(|m| 1.0 / m).sum::<f64>()
    }
}
