//! Summary statistics and open-loop load generation.
//!
//! Every latency the benchmark reports is a median plus a *tail*: the
//! highest percentile of a fixed ladder that still has at least
//! [`TAIL_MIN_BEYOND`] samples beyond it, so a tail is never read off one
//! or two outliers. Open-loop requests are timed from the moment they
//! were *due*, so a stall delays (and is charged to) every request queued
//! behind it, not only the one that stalled.

use std::time::{Duration, Instant};

/// Samples a tail percentile must have strictly beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Percentile ladder the tail is chosen from, highest first.
const TAIL_LADDER: [f64; 12] = [
    99.99, 99.95, 99.9, 99.8, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0,
];

/// Median of `values` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so in-run spreads and the external acceptance check agree. `None`
/// for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// A tail percentile as reported: which percentile, its value, and the
/// sample counts it rests on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile (e.g. `99.9`).
    pub percentile: f64,
    /// The nearest-rank value at that percentile.
    pub value: f64,
    /// Samples strictly beyond the value's rank.
    pub beyond: usize,
    /// Total samples.
    pub samples: usize,
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`]
/// samples beyond its nearest rank; `None` when even the median lacks
/// that many (fewer than 2 × [`TAIL_MIN_BEYOND`] samples).
pub fn tail(values: &[f64]) -> Option<Tail> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    TAIL_LADDER.iter().find_map(|&p| {
        // Nearest rank in exact integer arithmetic (basis points).
        let bp = (p * 100.0).round() as usize;
        let rank = (bp * n).div_ceil(10_000);
        let idx = rank.max(1) - 1;
        let beyond = n.checked_sub(idx + 1)?;
        (beyond >= TAIL_MIN_BEYOND).then(|| Tail {
            percentile: p,
            value: v[idx],
            beyond,
            samples: n,
        })
    })
}

/// Time source for the open-loop generator; a trait so tests can drive
/// it with a virtual clock.
pub trait Clock {
    /// The current instant.
    fn now(&self) -> Instant;
    /// Blocks until `t` (returns at once if `t` has passed).
    fn sleep_until(&self, t: Instant);
}

/// The wall clock.
pub struct WallClock;

impl Clock for WallClock {
    fn now(&self) -> Instant {
        Instant::now()
    }
    fn sleep_until(&self, t: Instant) {
        let now = Instant::now();
        if t > now {
            std::thread::sleep(t - now);
        }
    }
}

/// One open-loop request's timing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timed {
    /// Completion minus due time: the latency a user arriving on
    /// schedule sees.
    pub latency: Duration,
    /// Start minus due time: how late the generator ran.
    pub late: Duration,
}

/// Runs `op(i, due)` on a fixed schedule — request `i` is due at
/// `start + i × period` — until `stop(i)` says stop, and times each from
/// its due time. The generator is single-threaded: a request that
/// overruns its slot delays the ones behind it, and that delay shows in
/// their latencies rather than being lost.
pub fn open_loop<C: Clock>(
    clock: &C,
    period: Duration,
    mut stop: impl FnMut(usize, Instant) -> bool,
    mut op: impl FnMut(usize, Instant),
) -> Vec<Timed> {
    let start = clock.now();
    let mut out = Vec::new();
    let mut i = 0usize;
    loop {
        let due = start + period * i as u32;
        if stop(i, due) {
            return out;
        }
        clock.sleep_until(due);
        let started = clock.now();
        op(i, due);
        let done = clock.now();
        out.push(Timed {
            latency: done.saturating_duration_since(due),
            late: started.saturating_duration_since(due),
        });
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some([1.0, 3.0, 5.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 50 samples: p80's nearest rank is 40, leaving exactly 10 above.
        let v: Vec<f64> = (1..=50).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!(
            (t.percentile, t.value, t.beyond, t.samples),
            (80.0, 40.0, 10, 50)
        );
        // 10 000 samples reach p99.9 (rank 9990, 10 beyond) but not p99.95.
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (99.9, 9990.0, 10));
        // Too few for even the median to have ten beyond it.
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&v), None);
        assert_eq!(tail(&[1.0; 20]).map(|t| t.percentile), Some(50.0));
    }

    /// A virtual clock: `sleep_until` jumps forward, `op` advances time
    /// by its scripted service time.
    struct FakeClock {
        origin: Instant,
        t: Cell<Duration>,
    }

    impl Clock for FakeClock {
        fn now(&self) -> Instant {
            self.origin + self.t.get()
        }
        fn sleep_until(&self, t: Instant) {
            let d = t.saturating_duration_since(self.origin);
            if d > self.t.get() {
                self.t.set(d);
            }
        }
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_queued_behind_it() {
        let clock = FakeClock {
            origin: Instant::now(),
            t: Cell::new(Duration::ZERO),
        };
        let ms = Duration::from_millis;
        // 10 ms slots, 1 ms service, except request 2 stalls for 35 ms.
        let service = [1, 1, 35, 1, 1, 1, 1, 1];
        let timed = open_loop(
            &clock,
            ms(10),
            |i, _| i == service.len(),
            |i, _| clock.t.set(clock.t.get() + ms(service[i])),
        );
        let lat: Vec<u64> = timed.iter().map(|t| t.latency.as_millis() as u64).collect();
        let late: Vec<u64> = timed.iter().map(|t| t.late.as_millis() as u64).collect();
        // Request 2 ends at 55 ms; 3 (due 30) waits until then, 4 (due
        // 40) until 56, 5 (due 50) until 57; 6 (due 60) is back on time.
        assert_eq!(lat, [1, 1, 35, 26, 17, 8, 1, 1]);
        assert_eq!(late, [0, 0, 0, 25, 16, 7, 0, 0]);
        // A closed-loop timer (service time alone) would have hidden it.
        assert!(lat[3] > service[3]);
    }
}
