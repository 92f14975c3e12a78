//! A host-speed probe, so timings from a shared, drifting host can be
//! compared across runs.
//!
//! On a shared virtual machine the same binary runs 10–35% faster or
//! slower from one minute to the next, as neighbours come and go; even a
//! pure-ALU loop moves by about 10%. The probe is a dependent pointer
//! chase over a fixed 1 MiB random cycle: L2-resident, latency-bound
//! code, close in kind to the simulators' own hot loops. The benchmark
//! reads it before and after every repetition and every batch of
//! set-ups, and scales its timings to a host whose probe runs at
//! [`REFERENCE_MOPS`] by the median of all the run's readings. One
//! reading can catch a passing stall; the median of a hundred cannot. The
//! probe is this file's code alone, so no change to the simulators can
//! move it.

use std::cell::RefCell;
use std::time::Instant;

use crate::stats::median;

/// Probe speed of the reference host, in million chase steps per second
/// (a 2-vCPU Xeon Sapphire Rapids KVM guest measures 105–120).
pub const REFERENCE_MOPS: f64 = 100.0;

const WORDS: usize = 1 << 18;
const PROBE_SECONDS: f64 = 0.03;

pub struct HostProbe {
    next: Vec<u32>,
    readings: RefCell<Vec<f64>>,
}

impl HostProbe {
    /// Builds one random cycle through all `WORDS` slots (Sattolo's
    /// algorithm, fixed seed), so every chase visits the whole array.
    pub fn new() -> Self {
        let mut next: Vec<u32> = (0..WORDS as u32).collect();
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        for i in (1..WORDS).rev() {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            next.swap(i, (x >> 33) as usize % i);
        }
        HostProbe {
            next,
            readings: RefCell::new(Vec::new()),
        }
    }

    /// Records the chase speed, in million steps per second, over a
    /// short timed chase.
    pub fn read(&self) {
        let start = Instant::now();
        let mut i = 0usize;
        let mut steps = 0u64;
        while start.elapsed().as_secs_f64() < PROBE_SECONDS {
            for _ in 0..10_000 {
                i = self.next[i] as usize;
            }
            i = std::hint::black_box(i);
            steps += 10_000;
        }
        let mops = steps as f64 / start.elapsed().as_secs_f64() / 1e6;
        self.readings.borrow_mut().push(mops);
    }

    /// Every reading so far.
    pub fn readings(&self) -> Vec<f64> {
        self.readings.borrow().clone()
    }

    /// How much faster the reference host is than this one over the
    /// run so far: multiply a rate by it, divide a time by it.
    pub fn reference_factor(&self) -> f64 {
        REFERENCE_MOPS / median(&self.readings.borrow())
    }
}
