//! Per-op latency percentiles in constant memory.
//!
//! A log-linear histogram (1024 sub-buckets per power of two, so a bucket
//! is at most 0.1% wide) instead of a sample vector: the hot workload
//! answers hundreds of thousands of requests a run, and a sample vector
//! would make the benchmark's own memory, and with it `peak_rss_mb`, grow
//! with the throughput it measures.

use std::time::Instant;

const SUB_BITS: u32 = 10;
const SUB: u64 = 1 << SUB_BITS;

pub struct Latency {
    counts: Vec<u32>,
    samples: u64,
}

fn bucket(ns: u64) -> usize {
    if ns < SUB {
        return ns as usize;
    }
    let exp = 63 - ns.leading_zeros();
    let shift = exp - SUB_BITS;
    ((((exp - SUB_BITS + 1) as u64) << SUB_BITS) + ((ns >> shift) & (SUB - 1))) as usize
}

/// `(lowest value, width)` of bucket `i`, in ns.
fn span(i: usize) -> (u64, u64) {
    let i = i as u64;
    if i < SUB {
        return (i, 1);
    }
    let shift = (i >> SUB_BITS) - 1;
    (((SUB | (i & (SUB - 1))) << shift), 1 << shift)
}

impl Latency {
    pub fn new() -> Latency {
        Latency {
            counts: vec![0; bucket(u64::MAX) + 1],
            samples: 0,
        }
    }

    pub fn record(&mut self, elapsed: std::time::Duration) {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.counts[bucket(ns)] += 1;
        self.samples += 1;
    }

    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// The nearest-rank rank of quantile `q` (1-based).
    fn rank(&self, q: f64) -> u64 {
        ((q * self.samples as f64).ceil() as u64).clamp(1, self.samples.max(1))
    }

    /// Samples strictly beyond quantile `q`.
    pub fn beyond(&self, q: f64) -> u64 {
        self.samples - self.rank(q)
    }

    /// Quantile `q` in milliseconds, interpolated inside its bucket.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        let rank = self.rank(q);
        let mut below = 0u64;
        for (i, &count) in self.counts.iter().enumerate() {
            let count = u64::from(count);
            if below + count >= rank {
                let (lo, width) = span(i);
                let within = (rank - below) as f64 - 0.5;
                return (lo as f64 + width as f64 * within / count as f64) / 1e6;
            }
            below += count;
        }
        unreachable!("the rank never exceeds the sample count")
    }
}

/// The wall time of every complete pass (one op on each row) inside a
/// window.  Throughput is read from the median pass, so a burst of load
/// from outside the benchmark moves it less than a mean over the window
/// would, and every pass has the same mix of rows.
pub struct PassClock {
    rows: u64,
    started: Option<Instant>,
    seconds: Vec<f64>,
}

impl PassClock {
    pub fn new(rows: usize) -> PassClock {
        PassClock {
            rows: rows as u64,
            started: None,
            seconds: Vec::new(),
        }
    }

    /// Before the op with stream id `id` (passes start at multiples of
    /// the row count).
    pub fn op_starts(&mut self, id: u64) {
        if id.is_multiple_of(self.rows) {
            self.started = Some(Instant::now());
        }
    }

    /// After the op with stream id `id`.
    pub fn op_ends(&mut self, id: u64) {
        if id % self.rows == self.rows - 1 {
            if let Some(started) = self.started.take() {
                self.seconds.push(started.elapsed().as_secs_f64());
            }
        }
    }

    /// Ops per second of the median pass; `None` without a complete pass.
    pub fn ops_per_s(&self) -> Option<f64> {
        let mut seconds = self.seconds.clone();
        (!seconds.is_empty()).then(|| self.rows as f64 / crate::median(&mut seconds))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn buckets_tile_the_line() {
        for ns in [0, 1, 1023, 1024, 1025, 4097, 123_456_789, u64::MAX / 3] {
            let (lo, width) = span(bucket(ns));
            assert!(lo <= ns && ns - lo < width, "{ns} outside its bucket");
            assert!(
                width == 1 || width * 1024 <= lo,
                "bucket of {ns} wider than 0.1%"
            );
        }
    }

    #[test]
    fn quantiles_of_a_uniform_ramp() {
        let mut lat = Latency::new();
        for us in 1..=1000u64 {
            lat.record(Duration::from_micros(us));
        }
        assert_eq!(lat.samples(), 1000);
        assert_eq!(lat.beyond(0.99), 10);
        let p50 = lat.quantile_ms(0.5);
        let p99 = lat.quantile_ms(0.99);
        assert!((p50 - 0.5).abs() < 0.001, "p50 {p50}");
        assert!((p99 - 0.99).abs() < 0.002, "p99 {p99}");
    }
}
