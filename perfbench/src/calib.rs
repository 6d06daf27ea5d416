//! Machine-speed calibration.
//!
//! On a shared host the speed of the same code moves by up to 2×
//! between regimes that last from seconds to minutes, and the lab's
//! workloads (hash maps, small allocations, snapshot copies) move more
//! than tight arithmetic loops do. A run therefore follows every unit
//! with a fixed slice of a kernel built from the same kinds of work, and
//! reports its time figures at the kernel's nominal speed: a regime
//! change slows the units and the kernel together and cancels out of
//! the reported figure. The kernel is the benchmark's own code, so a
//! change to the lab never changes what it measures.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Kernel rounds per slice: about 50 ms at nominal speed.
const SLICE_ROUNDS: u64 = 2_000_000;

/// Kernel rounds per second on an uncontended Intel Xeon vCPU (2 GHz),
/// the speed a calibrated figure is reported at.
pub const NOMINAL_ROUNDS_PER_S: f64 = 40e6;

/// Distinct keys the kernel's map cycles through.
const KEYS: u64 = 4096;

/// One slice of the kernel: a seeded stream of map inserts, appends and
/// removals with small heap values.
fn kernel(rounds: u64) -> usize {
    let mut map: HashMap<u64, Vec<u8>> = HashMap::new();
    let mut s = 0x1234_5678_9ABC_DEF1u64;
    let mut acc = 0usize;
    for i in 0..rounds {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        let key = s % KEYS;
        match map.get_mut(&key) {
            Some(v) => {
                v.push(i as u8);
                acc += v.len();
                if v.len() > 16 {
                    map.remove(&key);
                }
            }
            None => {
                map.insert(key, format!("{key}").into_bytes());
            }
        }
    }
    acc
}

/// Kernel time accumulated over a run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Calibration {
    rounds: u64,
    secs: f64,
}

impl Calibration {
    /// Runs and times one slice.
    pub fn slice(&mut self) {
        let t = Instant::now();
        black_box(kernel(black_box(SLICE_ROUNDS)));
        self.secs += t.elapsed().as_secs_f64();
        self.rounds += SLICE_ROUNDS;
    }

    /// The machine's speed over the run relative to nominal: 1.0 at
    /// nominal, 0.5 when the kernel ran at half its nominal rate.
    pub fn speed(&self) -> f64 {
        if self.secs == 0.0 {
            return 1.0;
        }
        self.rounds as f64 / self.secs / NOMINAL_ROUNDS_PER_S
    }
}
