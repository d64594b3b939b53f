//! The benchmark's own arithmetic: percentiles under the tail rule, span
//! self time, and open-loop schedule accounting.

use std::time::{Duration, Instant};

/// A latency summary: the median and the highest percentile the sample
/// supports, with the sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// The median.
    pub p50: f64,
    /// The tail value: p99 when at least ten samples lie beyond it,
    /// otherwise the highest percentile that still has ten beyond it.
    pub tail: f64,
    /// The percentile `tail` was read at, in percent (99 when supported).
    pub tail_pct: f64,
}

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Index into `n` sorted samples of the tail percentile: p99 if at least
/// [`TAIL_BEYOND`] samples lie above it, otherwise the highest index that
/// still leaves that many above. Samples too few for any tail (`n <=
/// 2 * TAIL_BEYOND`) fall back to the median index.
pub fn tail_index(n: usize) -> usize {
    assert!(n > 0, "no samples");
    let median = (n - 1) / 2;
    if n <= 2 * TAIL_BEYOND {
        return median;
    }
    let p99 = (n * 99).div_ceil(100) - 1;
    p99.min(n - 1 - TAIL_BEYOND).max(median)
}

/// Samples a stretch needs for its p99 to have [`TAIL_BEYOND`] beyond it.
const P99_SAMPLES: usize = 100 * TAIL_BEYOND;
/// Most stretches a run's tail is split into.
pub const TAIL_CHUNKS: usize = 5;

/// Summarizes `samples`, given in the order they completed. `None` when
/// empty.
///
/// The tail follows [`tail_index`] over all samples, unless there are
/// enough for two or more consecutive stretches of [`P99_SAMPLES`] (at
/// most [`TAIL_CHUNKS`]) that each support a p99 on their own: then it is
/// the median of the stretches' p99s, so one burst of background work (a
/// checkpoint, a scheduling hiccup) moves one stretch, not the result.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let t = tail_index(n);
    let mut s = Summary {
        n,
        p50: median_sorted(&v),
        tail: v[t],
        tail_pct: 100.0 * (t + 1) as f64 / n as f64,
    };
    let chunks = (n / P99_SAMPLES).min(TAIL_CHUNKS);
    if chunks >= 2 {
        let tails: Vec<f64> = samples
            .chunks(n.div_ceil(chunks))
            .map(|c| {
                let mut c = c.to_vec();
                c.sort_by(f64::total_cmp);
                c[tail_index(c.len())]
            })
            .collect();
        s.tail = median(&tails);
        s.tail_pct = 99.0;
    }
    Some(s)
}

fn median_sorted(v: &[f64]) -> f64 {
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The median of `samples`, or 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    median_sorted(&v)
}

/// The mean of `samples`, or 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// A span's self time: its duration minus the part of `[start, end)` that
/// the union of its children's intervals covers. Children may overlap one
/// another (pipelined requests) and may stick out of the parent; only the
/// covered part inside the parent is subtracted.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    if end <= start {
        return 0;
    }
    let mut clipped: Vec<(u64, u64)> =
        children.iter().map(|&(s, e)| (s.max(start), e.min(end))).filter(|&(s, e)| s < e).collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    (end - start) - covered
}

/// A fixed-rate open-loop schedule: request `i` is due at
/// `start + i * period + jitter(i)`, whatever happened to earlier requests.
/// The jitter, up to half a period and fixed by a seed, keeps sends from
/// locking onto the phase of a kernel timer tick, which would otherwise
/// pick one latency mode for a whole run.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    start: Instant,
    period: Duration,
    seed: Option<u64>,
}

impl Schedule {
    /// A schedule of `rate` requests per second from `start`, jittered by
    /// `seed` (`None`: exactly periodic).
    pub fn new(start: Instant, rate: f64, seed: Option<u64>) -> Schedule {
        assert!(rate > 0.0, "rate must be positive");
        Schedule { start, period: Duration::from_secs_f64(1.0 / rate), seed }
    }

    /// When the schedule starts.
    pub fn start(&self) -> Instant {
        self.start
    }

    /// When request `i` is due.
    pub fn due(&self, i: usize) -> Instant {
        let slot = self.start + self.period * u32::try_from(i).expect("request index fits u32");
        match self.seed {
            Some(seed) => slot + jitter(seed, i as u64, self.period / 2),
            None => slot,
        }
    }

    /// How late request `i` was sent at `sent` (zero if on time or early).
    pub fn lateness(&self, i: usize, sent: Instant) -> Duration {
        sent.saturating_duration_since(self.due(i))
    }

    /// Request `i`'s latency when it completed at `done`, counted from when
    /// it was due, so a stall also charges every request queued behind it.
    pub fn latency(&self, i: usize, done: Instant) -> Duration {
        done.saturating_duration_since(self.due(i))
    }
}

/// A deterministic pseudo-random duration in `[0, max)` for `(seed, i)`.
pub fn jitter(seed: u64, i: u64, max: Duration) -> Duration {
    let mut rng = crate::gen::Rng::new(seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    max.mul_f64((rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_index_is_p99_with_ten_beyond() {
        // 1000 samples: p99 is index 989, and indices 990..=999 (ten) lie beyond.
        assert_eq!(tail_index(1000), 989);
        assert_eq!(1000 - 1 - tail_index(1000), 10);
        // More samples: still p99, more than ten beyond.
        assert_eq!(tail_index(5000), 4949);
        // Fewer: the highest percentile with exactly ten beyond.
        assert_eq!(tail_index(350), 339);
        assert_eq!(350 - 1 - tail_index(350), 10);
        // Too few for a tail: the median.
        assert_eq!(tail_index(20), 9);
        assert_eq!(tail_index(1), 0);
    }

    #[test]
    fn summary_reports_count_and_percentile() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&samples).unwrap();
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.5);
        assert_eq!(s.tail, 990.0);
        assert_eq!(s.tail_pct, 99.0);
        assert_eq!(samples.iter().filter(|&&x| x > s.tail).count(), 10);

        // Enough for five stretches: the median of their p99s, so one
        // stretch's outliers do not move it.
        let mut long: Vec<f64> = (0..5000).map(|i| f64::from(i % 1000)).collect();
        for x in &mut long[..50] {
            *x = 1e6;
        }
        let s = summarize(&long).unwrap();
        assert_eq!((s.n, s.tail, s.tail_pct), (5000, 989.0, 99.0));

        let short: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let s = summarize(&short).unwrap();
        assert_eq!(s.tail, 90.0);
        assert_eq!(s.tail_pct, 90.0);
        assert_eq!(short.iter().filter(|&&x| x > s.tail).count(), 10);
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time(0, 100, &[]), 100);
        assert_eq!(self_time(0, 100, &[(10, 20), (30, 50)]), 70);
        // Overlapping children count once: [10, 60) is covered.
        assert_eq!(self_time(0, 100, &[(10, 40), (20, 60), (30, 35)]), 50);
        // Children sticking out are clipped to the parent.
        assert_eq!(self_time(50, 100, &[(0, 60), (90, 200)]), 30);
        // Touching intervals merge; fully covered parent has no self time.
        assert_eq!(self_time(0, 100, &[(0, 50), (50, 100)]), 0);
        // Children outside the parent change nothing.
        assert_eq!(self_time(0, 10, &[(20, 30)]), 10);
        assert_eq!(self_time(5, 5, &[]), 0);
    }

    #[test]
    fn open_loop_counts_from_the_due_time() {
        let t0 = Instant::now();
        let s = Schedule::new(t0, 100.0, None); // every 10 ms
        assert_eq!(s.due(0), t0);
        assert_eq!(s.due(3), t0 + Duration::from_millis(30));
        // Sent on time: not late. Sent early: not late either.
        assert_eq!(s.lateness(3, t0 + Duration::from_millis(30)), Duration::ZERO);
        assert_eq!(s.lateness(3, t0), Duration::ZERO);
        // A stall delayed sending request 3 by 25 ms.
        assert_eq!(s.lateness(3, t0 + Duration::from_millis(55)), Duration::from_millis(25));
        // Its latency counts from when it was due, not when it was sent:
        // sent 25 ms late, answered 5 ms after sending -> 30 ms.
        assert_eq!(s.latency(3, t0 + Duration::from_millis(60)), Duration::from_millis(30));

        // Jittered: each slot moves by less than half a period, the same
        // way every time, and slots stay in order.
        let j = Schedule::new(t0, 100.0, Some(7));
        for i in 0..1000 {
            let offset = j.due(i) - s.due(i);
            assert!(offset < Duration::from_millis(5), "slot {i} moved {offset:?}");
            assert_eq!(j.due(i), Schedule::new(t0, 100.0, Some(7)).due(i));
            assert!(j.due(i + 1) > j.due(i));
        }
        assert_ne!(j.due(1), Schedule::new(t0, 100.0, Some(8)).due(1));
    }
}
