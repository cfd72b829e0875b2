//! Summary statistics and failure accounting for benchmark results.

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; fewer and it would be one or two outliers, not a tail.
const MIN_BEYOND: usize = 10;

/// Candidate percentiles, lowest first.
const LADDER: [f64; 5] = [50.0, 75.0, 90.0, 95.0, 99.0];

/// Nearest-rank percentile of an ascending-sorted, non-empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64 / 100.0).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly above the nearest-rank `p` percentile of `n` samples.
fn beyond(n: usize, p: f64) -> usize {
    n - (p * n as f64 / 100.0).ceil() as usize
}

/// The highest percentile of [`LADDER`] that still leaves at least
/// [`MIN_BEYOND`] of `n` samples beyond it; `None` when even the median
/// does not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Median of unsorted, non-empty samples (the mean of the middle two for
/// an even count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Operations attempted and failed. A refused, timed-out or otherwise
/// erroring request, a panicking trial, a failed numerical check and a
/// counter that differs from the recorded one are all failures.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one operation; returns whether it succeeded.
    pub fn record<T, E>(&mut self, outcome: &Result<T, E>) -> bool {
        self.attempted += 1;
        if outcome.is_err() {
            self.failed += 1;
        }
        outcome.is_ok()
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed operations over attempted (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::Duration;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[1.0, 2.0], 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // 99th needs 1000 samples (10 beyond), 95th 200, 90th 100, 75th
        // 40, the median 20.
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(48), Some(75.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
        for n in [20, 48, 100, 999, 5000] {
            let p = tail_percentile(n).unwrap();
            assert!(beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn failed_frac_counts_every_failure() {
        let mut t = Tally::default();
        assert_eq!(t.failed_frac(), 0.0);
        assert!(t.record(&Ok::<(), String>(())));
        assert!(!t.record(&Err::<(), _>("verify failed")));
        assert!(t.record(&Ok::<(), String>(())));
        assert!(!t.record(&Err::<(), _>("counter mismatch")));
        assert_eq!((t.attempted, t.failed), (4, 2));
        assert_eq!(t.failed_frac(), 0.5);
        let mut sum = Tally::default();
        sum.add(t);
        sum.add(t);
        assert_eq!((sum.attempted, sum.failed), (8, 4));
    }

    #[test]
    fn refused_fleet_request_is_a_failure() {
        // Bind then drop a listener: nothing accepts on that port.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let mut t = Tally::default();
        let r = cobra_fleet::FleetClient::connect_timeout(&addr, Duration::from_secs(2))
            .and_then(|mut c| c.stats());
        assert!(!t.record(&r));
        assert_eq!(t.failed_frac(), 1.0);
    }

    #[test]
    fn timed_out_fleet_request_is_a_failure() {
        // A listener that accepts (the kernel completes the handshake) but
        // never answers: the request must time out and count as failed.
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap().to_string();
        let mut t = Tally::default();
        let r = cobra_fleet::FleetClient::connect_timeout(&addr, Duration::from_millis(200))
            .and_then(|mut c| c.stats());
        assert!(r.is_err(), "a silent server must not produce a reply");
        assert!(!t.record(&r));
        assert!(t.record(&Ok::<(), String>(())));
        assert_eq!((t.attempted, t.failed), (2, 1));
        drop(l);
    }
}
