//! The benchmark's own statistics: medians, geometric means, the tail
//! percentile rule, open-loop lateness and goodput, plus the seeded RNG
//! every workload draws its inputs from.

/// splitmix64: a tiny, well-mixed generator, so a seed fixes the inputs.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle pair for even counts); `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Arithmetic mean; 0 when empty.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Geometric mean of positive values; `None` when empty or any value is
/// not a positive finite number.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|&x| !(x.is_finite() && x > 0.0)) {
        return None;
    }
    let mean_log = xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64;
    Some(mean_log.exp())
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// A tail latency: the value at the highest percentile that still has
/// [`TAIL_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile of the reported sample, `100 * rank / n`.
    pub pct: f64,
    pub value: f64,
    /// Samples strictly after the reported one in sorted order.
    pub beyond: usize,
    pub n: usize,
}

/// The highest percentile with at least ten samples beyond it, i.e. the
/// `(n - 10)`-th smallest sample. With ten or fewer samples no percentile
/// qualifies and the result is `None`.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let v = sorted(xs);
    let n = v.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let rank = n - TAIL_BEYOND; // 1-based rank of the reported sample
    Some(Tail {
        pct: 100.0 * rank as f64 / n as f64,
        value: v[rank - 1],
        beyond: TAIL_BEYOND,
        n,
    })
}

/// How late an open-loop generator ran: seconds each request was sent
/// after it was due (never negative), as (median, max).
pub fn lateness(due_s: &[f64], sent_s: &[f64]) -> (f64, f64) {
    let late: Vec<f64> = due_s
        .iter()
        .zip(sent_s)
        .map(|(d, s)| (s - d).max(0.0))
        .collect();
    let max = late.iter().copied().fold(0.0, f64::max);
    (median(&late).unwrap_or(0.0), max)
}

/// The fate of one offered request, as goodput sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fate {
    /// Completed and passed every check, with this latency in ms.
    Ok(f64),
    /// Completed but produced a wrong or failed result.
    Failed,
    /// Refused at submission (queue full, saturated, draining).
    Refused,
}

/// Requests per second that completed correctly within `limit_ms`,
/// over a window of `window_s` seconds. Failed, refused and over-limit
/// requests all count as missing.
pub fn goodput(fates: &[Fate], limit_ms: f64, window_s: f64) -> f64 {
    let good = fates
        .iter()
        .filter(|f| matches!(f, Fate::Ok(ms) if *ms <= limit_ms))
        .count();
    good as f64 / window_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.pct, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);
        // Order of the input does not matter.
        let mut rev = xs.clone();
        rev.reverse();
        assert_eq!(tail(&rev), Some(t));
        // 11 samples: the smallest is the only one with ten beyond it.
        let t = tail(&xs[..11]).unwrap();
        assert_eq!((t.value, t.n), (1.0, 11));
        assert!(tail(&xs[..10]).is_none());
        assert!(tail(&[]).is_none());
    }

    #[test]
    fn tail_percentile_rises_with_sample_count() {
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.pct, 99.0);
        assert_eq!(t.value, 989.0);
    }

    #[test]
    fn geomean_matches_closed_form_and_rejects_non_positive() {
        let g = geomean(&[1.0, 4.0, 16.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
        assert!((geomean(&[7.5]).unwrap() - 7.5).abs() < 1e-12);
        assert!(geomean(&[]).is_none());
        assert!(geomean(&[1.0, 0.0]).is_none());
        assert!(geomean(&[1.0, f64::NAN]).is_none());
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn lateness_counts_only_late_sends() {
        let due = [0.0, 1.0, 2.0, 3.0];
        let sent = [0.0, 0.9, 2.5, 4.0]; // one early, two late
        let (med, max) = lateness(&due, &sent);
        assert_eq!(max, 1.0);
        assert_eq!(med, 0.25);
    }

    #[test]
    fn goodput_counts_failed_refused_and_over_limit_as_missing() {
        let fates = [
            Fate::Ok(100.0),
            Fate::Ok(999.0),
            Fate::Ok(1000.0), // at the limit: counts
            Fate::Ok(1000.5), // over the limit
            Fate::Failed,
            Fate::Refused,
        ];
        assert_eq!(goodput(&fates, 1000.0, 2.0), 1.5);
        assert_eq!(goodput(&[], 1000.0, 2.0), 0.0);
    }

    #[test]
    fn rng_is_seeded_and_shuffle_is_a_permutation() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut v: Vec<u32> = (0..20).collect();
        a.shuffle(&mut v);
        let mut s = v.clone();
        s.sort_unstable();
        assert_eq!(s, (0..20).collect::<Vec<_>>());
    }
}
