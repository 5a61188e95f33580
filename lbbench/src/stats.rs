//! Order statistics and time-window rates over measured samples.

/// Nearest-rank percentile (`q` in `(0, 1]`) of unsorted samples.
/// `None` when there are no samples.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// The median (nearest-rank p50).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// How many samples lie strictly beyond the nearest-rank `q` percentile.
pub fn beyond(len: usize, q: f64) -> usize {
    let rank = ((q * len as f64).ceil() as usize).clamp(1, len.max(1));
    len.saturating_sub(rank)
}

/// One unit of completed work on the time axis: `[start_ns, end_ns)`
/// relative to the measurement start, carrying `weight` (1 for a trial,
/// its node-rounds for simulated throughput).
#[derive(Debug, Clone, Copy)]
pub struct Interval {
    pub start_ns: u64,
    pub end_ns: u64,
    pub weight: f64,
}

/// Per-window rates (weight per second) over `[0, span_ns)` cut into
/// `windows` equal windows. A piece of work spread over several windows
/// counts in each in proportion to the share of its duration that falls
/// there, so a window's rate is not quantised to whole trials and work in
/// flight at a window edge is split, not dropped.
pub fn window_rates(work: &[Interval], span_ns: u64, windows: usize) -> Vec<f64> {
    let width = span_ns as f64 / windows as f64;
    let mut credit = vec![0.0; windows];
    for w in work {
        let dur = (w.end_ns - w.start_ns).max(1) as f64;
        for (k, c) in credit.iter_mut().enumerate() {
            let (a, b) = (k as f64 * width, (k + 1) as f64 * width);
            let overlap = (w.end_ns as f64).min(b) - (w.start_ns as f64).max(a);
            if overlap > 0.0 {
                *c += w.weight * overlap / dur;
            }
        }
    }
    credit.into_iter().map(|c| c / (width / 1e9)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.9), Some(90.0));
        assert_eq!(beyond(v.len(), 0.9), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn window_rates_split_work_in_flight() {
        // Two 1 s pieces of work, one straddling the 1 s window edge.
        let work = [
            Interval {
                start_ns: 0,
                end_ns: 1_000_000_000,
                weight: 1.0,
            },
            Interval {
                start_ns: 500_000_000,
                end_ns: 1_500_000_000,
                weight: 1.0,
            },
        ];
        let rates = window_rates(&work, 2_000_000_000, 2);
        assert!((rates[0] - 1.5).abs() < 1e-9);
        assert!((rates[1] - 0.5).abs() < 1e-9);
    }
}
