//! How fast the machine is right now.
//!
//! On a shared host the same code runs 20–40% slower for minutes at a
//! time, when neighbours load the caches and cores. Every round therefore
//! first times a fixed reference workload on as many threads as the
//! service has workers, and the run reports its wall-clock figures scaled
//! to the speed at which the reference takes [`REFERENCE`]. The reference
//! is this benchmark's own code, so no change to the system under test
//! moves it; it mixes the operations the interpreter spends its time on:
//! hash-map lookups and inserts, reads and writes of a cache-sized array,
//! and short-lived allocations.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// What one reference run takes at the reference speed (its median on an
/// unloaded 2-core x86-64 box).
pub const REFERENCE: Duration = Duration::from_micros(6500);

/// One thread's reference run.
fn reference(seed: u64) -> Duration {
    let mut map: HashMap<u32, u64> = (0..4096u32).map(|k| (k, u64::from(k) * 7)).collect();
    let mut mem = vec![0u64; 32 * 1024];
    let code: Vec<u64> = (0..64).map(|i| (i * 7 + 3) % 6).collect();
    let start = Instant::now();
    let mut acc = seed;
    for round in 0..8_000u64 {
        for (pc, &op) in (0u64..).zip(&code) {
            let key = ((acc ^ pc ^ round) % 4096) as u32;
            match op {
                0 => acc = acc.wrapping_add(map.get(&key).copied().unwrap_or(1)),
                1 => {
                    let i = (acc % mem.len() as u64) as usize;
                    mem[i] = mem[i].wrapping_add(acc);
                    acc ^= mem[(i * 31) % mem.len()];
                }
                2 => acc = acc.rotate_left(5) ^ black_box(Box::new([acc; 4]))[3],
                3 => {
                    let v: Vec<u64> = (0..acc % 16).collect();
                    acc = acc.wrapping_add(black_box(v).len() as u64);
                }
                4 => {
                    map.insert(key, acc);
                }
                _ => acc = acc.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 7,
            }
        }
    }
    black_box(acc);
    start.elapsed()
}

/// The reference run's mean duration over `threads` concurrent threads.
#[must_use]
pub fn measure(threads: usize) -> Duration {
    let total: Duration = std::thread::scope(|s| {
        // Start every thread before joining any, so that they run at once.
        #[allow(clippy::needless_collect)]
        let runs: Vec<_> = (0..threads as u64)
            .map(|t| s.spawn(move || reference(t)))
            .collect();
        runs.into_iter()
            .map(|r| r.join().expect("reference run panicked"))
            .sum()
    });
    total / u32::try_from(threads).expect("thread count fits u32")
}
