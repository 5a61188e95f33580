//! The host speed probe.
//!
//! On a shared host the same trial can take 1.5× longer from one second
//! to the next while neighbouring load comes and goes, and a short
//! dependency-chain loop barely notices. The probe is a fixed piece of
//! branchy, cache-resident work (sort a block of pseudo-random keys,
//! then count them into a hash map), written here and so independent of
//! the repository's code, whose time tracks the trials' slowdowns. Every
//! worker runs it between its trials, and the end-to-end times are
//! reported scaled to the host speed at which one probe takes
//! `REFERENCE_NS`: a trial's time is multiplied by `REFERENCE_NS` over
//! the median probe time its worker measured around it.

use std::cell::Cell;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Probe time at the reference host speed: about the median over many
/// runs on the shared 2-vCPU Intel Xeon host the benchmark was
/// calibrated on, so scaled figures read close to that host's unscaled
/// ones.
pub const REFERENCE_NS: f64 = 300_000.0;

/// A worker probes before its next trial once this long has passed since
/// its last probe.
const EVERY: Duration = Duration::from_millis(20);

/// Probes within this distance of a trial's start scale that trial.
pub const SPAN_NS: u64 = 250_000_000;

const KEYS: usize = 8192;

/// Runs the probe once and returns its time in ns.
pub fn run() -> u64 {
    let t = Instant::now();
    let mut x = black_box(0x2545_f491_4f6c_dd1du64);
    let mut keys: Vec<u32> = (0..KEYS)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as u32
        })
        .collect();
    keys.sort_unstable();
    let mut counts = HashMap::with_capacity(KEYS / 4);
    for k in &keys[..KEYS / 2] {
        *counts.entry(k % 2048).or_insert(0u32) += 1;
    }
    black_box((&keys, counts.len()));
    t.elapsed().as_nanos() as u64
}

thread_local! {
    static THREAD: usize = {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
    static LAST: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// This thread's index, distinct for every thread of the process.
pub fn thread_index() -> usize {
    THREAD.with(|t| *t)
}

/// Runs the probe if this thread's last probe is older than `EVERY`.
pub fn if_due() -> Option<u64> {
    LAST.with(|last| {
        let now = Instant::now();
        if last.get().is_some_and(|t| now.duration_since(t) < EVERY) {
            return None;
        }
        let ns = run();
        last.set(Some(Instant::now()));
        Some(ns)
    })
}

/// The factor that scales each sample to the reference host speed:
/// `REFERENCE_NS` over the median of the probes its own thread ran
/// within `SPAN_NS` of it (the nearest probe if none did). A sample is
/// `(thread, time_ns, probe_ns)`, where `probe_ns` is the probe taken at
/// that time, if any. `None` when no thread of a sample ever probed.
pub fn scale_factors(samples: &[(usize, u64, Option<u64>)]) -> Option<Vec<f64>> {
    let mut probes: HashMap<usize, Vec<(u64, u64)>> = HashMap::new();
    for &(thread, t, p) in samples {
        if let Some(p) = p {
            probes.entry(thread).or_default().push((t, p));
        }
    }
    for v in probes.values_mut() {
        v.sort_unstable();
    }
    samples
        .iter()
        .map(|&(thread, t, _)| {
            let v = probes.get(&thread)?;
            let lo = v.partition_point(|&(pt, _)| pt + SPAN_NS < t);
            let hi = v.partition_point(|&(pt, _)| pt <= t + SPAN_NS);
            let near: Vec<f64> = if lo < hi {
                v[lo..hi].iter().map(|&(_, p)| p as f64).collect()
            } else {
                // No probe in the span: the nearest one on either side.
                let (before, after) = (v[lo.saturating_sub(1)], v[lo.min(v.len() - 1)]);
                let nearest = if after.0.abs_diff(t) <= before.0.abs_diff(t) {
                    after
                } else {
                    before
                };
                vec![nearest.1 as f64]
            };
            crate::stats::median(&near).map(|m| REFERENCE_NS / m)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factors_use_the_own_threads_nearby_probes() {
        let (s, r) = (SPAN_NS, REFERENCE_NS as u64);
        let samples = [
            (0, 0, Some(r)),
            (1, 0, Some(2 * r)),
            (0, s / 2, None),
            (1, s / 2, None),
            (0, 10 * s, None),
            (0, 10 * s + 1, Some(r / 2)),
        ];
        let f = scale_factors(&samples).unwrap();
        assert_eq!(f[2], 1.0);
        assert_eq!(f[3], 0.5);
        // Far from the first probe of thread 0, next to its second.
        assert_eq!(f[4], 2.0);
        assert!(scale_factors(&[(0, 0, None)]).is_none());
    }
}
