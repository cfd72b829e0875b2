//! Host-speed calibration. The reference host is a VM whose speed drifts
//! by tens of percent over minutes as other tenants load its shared
//! caches and memory. A fixed unit of work owned by the benchmark (a toy
//! set-associative cache simulation, so it reacts to that contention the
//! way the simulator does) is timed before every simulation trial; the
//! median of those samples over [`REFERENCE_S`] is the run's host
//! slowdown, and simulation timings divided by it read in seconds at
//! reference speed. The calibration code never changes with the program,
//! so a program change moves the measured times and not the slowdown.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// Calibration time of an uncontended reference host (2-vCPU Intel Xeon
/// VM), seconds.
pub const REFERENCE_S: f64 = 0.010;

const SETS: usize = 8192;
const WAYS: usize = 8;
const ACCESSES: u64 = 400_000;

pub struct Calibrator {
    tags: Vec<u64>,
    age: Vec<u8>,
    samples: Vec<f64>,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        Calibrator {
            tags: vec![u64::MAX; SETS * WAYS],
            age: vec![0; SETS * WAYS],
            samples: Vec::new(),
        }
    }

    /// Time one unit of calibration work and keep the sample.
    pub fn sample(&mut self) {
        let t = Instant::now();
        let mut x = 0x1234_5678_9abc_def1u64;
        let mut addr = 0u64;
        let mut hits = 0u64;
        for _ in 0..ACCESSES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            addr = match x % 4 {
                0 => addr + 64,
                1 => x & 0xff_ffc0,
                2 => addr + 128,
                _ => addr ^ (x & 0xfff_ffc0),
            };
            let line = addr >> 6;
            let base = (line as usize % SETS) * WAYS;
            let set_tags = &mut self.tags[base..base + WAYS];
            let set_age = &mut self.age[base..base + WAYS];
            if let Some(w) = set_tags.iter().position(|&t| t == line) {
                set_age[w] = 0;
                hits += 1;
            } else {
                for a in set_age.iter_mut() {
                    *a = a.saturating_add(1);
                }
                let victim = (0..WAYS).max_by_key(|&w| set_age[w]).unwrap_or(0);
                set_tags[victim] = line;
                set_age[victim] = 0;
            }
        }
        black_box(hits);
        self.samples.push(t.elapsed().as_secs_f64());
    }

    /// Median calibration time over [`REFERENCE_S`]; 1 before any sample.
    pub fn slowdown(&self) -> f64 {
        if self.samples.is_empty() {
            1.0
        } else {
            median(&self.samples) / REFERENCE_S
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_the_median_sample_over_the_reference() {
        let mut c = Calibrator::new();
        assert_eq!(c.slowdown(), 1.0);
        c.samples = vec![0.020, 0.010, 0.300];
        assert_eq!(c.slowdown(), 2.0);
        c.sample();
        assert_eq!(c.samples.len(), 4);
        assert!(c.samples[3] > 0.0);
    }
}
