//! Parallel Monte-Carlo job execution.
//!
//! Trials are pure functions of their trial index (every simulation is
//! fully determined by its master seed, derived from the index), so the
//! runner is embarrassingly parallel and its output is identical to a
//! sequential run regardless of thread count.
//!
//! [`run_jobs`] is the general pool: `jobs` independent evaluations of
//! `f(index)` fanned across cores. [`run_trials`] layers the seed
//! derivation convention on top — the seed for trial `i` is
//! `base_seed.wrapping_add(i)`, and campaign runners flatten
//! *(scenario, trial)* pairs into one [`run_jobs`] call so scenarios
//! parallelize as well as trials.

use std::sync::Mutex;

/// One completed job, as seen by a [`run_jobs_observed`] observer:
/// which job, which worker ran it, and how long it took. Observations
/// arrive in completion order (concurrently, from worker threads); the
/// returned result vector stays index-ordered regardless.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobObservation {
    /// Job index in `0..jobs`.
    pub job: usize,
    /// Worker index in `0..effective_threads(..)` (0 on the sequential
    /// fast path).
    pub worker: usize,
    /// Wall-clock nanoseconds `f(job)` took on its worker.
    pub elapsed_ns: u64,
}

/// The worker count [`run_jobs_on`] actually uses for a `threads`
/// request: available parallelism when `None`, clamped to `>= 1` and
/// to the job count. Exposed so pool telemetry can size per-worker
/// accumulators to match the real fan-out.
pub fn effective_threads(jobs: usize, threads: Option<usize>) -> usize {
    threads
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        })
        .max(1)
        .min(jobs.max(1))
}

/// Runs `jobs` independent evaluations of `f` (given the job index)
/// across available cores, returning results ordered by job index.
pub fn run_jobs<T, F>(jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_jobs_on(jobs, None, f)
}

/// Like [`run_jobs`], but with an explicit worker-thread cap. `None`
/// uses the available parallelism; `Some(1)` forces a sequential run
/// (useful for asserting thread-count independence). The result is
/// identical either way: results are slotted by index, not by
/// completion order.
pub fn run_jobs_on<T, F>(jobs: usize, threads: Option<usize>, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_jobs_observed(jobs, threads, f, |_| {})
}

/// The observed pool: like [`run_jobs_on`], additionally reporting a
/// [`JobObservation`] to `observe` as each job completes — the hook
/// campaign telemetry uses for per-trial wall-clock histograms, worker
/// utilization, and heartbeat progress. `observe` is called from
/// worker threads (unsynchronized with other observers) and must not
/// influence results: job fan-out and result order are identical to
/// [`run_jobs_on`] by construction.
pub fn run_jobs_observed<T, F, O>(jobs: usize, threads: Option<usize>, f: F, observe: O) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    O: Fn(JobObservation) + Sync,
{
    let threads = effective_threads(jobs, threads);
    if threads <= 1 || jobs <= 1 {
        return (0..jobs)
            .map(|i| {
                let start = std::time::Instant::now();
                let out = f(i);
                observe(JobObservation {
                    job: i,
                    worker: 0,
                    elapsed_ns: start.elapsed().as_nanos() as u64,
                });
                out
            })
            .collect();
    }

    let results: Mutex<Vec<Option<T>>> =
        Mutex::new((0..jobs).map(|_| None).collect());
    let next = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for worker in 0..threads {
            let results = &results;
            let next = &next;
            let f = &f;
            let observe = &observe;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= jobs {
                    break;
                }
                let start = std::time::Instant::now();
                let out = f(i);
                let elapsed_ns = start.elapsed().as_nanos() as u64;
                results.lock().expect("results lock poisoned")[i] = Some(out);
                observe(JobObservation { job: i, worker, elapsed_ns });
            });
        }
    });
    results
        .into_inner()
        .expect("results lock poisoned")
        .into_iter()
        .map(|r| r.expect("all jobs completed"))
        .collect()
}

/// Runs `trials` independent evaluations of `f` (given the trial's master
/// seed) across available cores, returning results ordered by trial
/// index.
///
/// The seed for trial `i` is `base_seed.wrapping_add(i)` — wrapping, so
/// a base seed near `u64::MAX` is legal and the parallel, sequential,
/// and single-trial replay paths always agree on the derivation.
/// Disjoint experiments should use well-separated `base_seed`s.
pub fn run_trials<T, F>(trials: usize, base_seed: u64, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    run_jobs(trials, |i| f(base_seed.wrapping_add(i as u64)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_ordered_by_trial() {
        let out = run_trials(64, 100, |seed| seed);
        let expected: Vec<u64> = (100..164).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn single_trial_runs_inline() {
        let out = run_trials(1, 7, |seed| seed * 2);
        assert_eq!(out, vec![14]);
    }

    #[test]
    fn zero_trials_is_empty() {
        let out: Vec<u64> = run_trials(0, 7, |seed| seed);
        assert!(out.is_empty());
    }

    #[test]
    fn parallel_matches_sequential() {
        let work = |seed: u64| {
            // Small deterministic computation.
            (0..100u64).fold(seed, |acc, i| acc.wrapping_mul(31).wrapping_add(i))
        };
        let par = run_trials(40, 5, work);
        let seq: Vec<u64> = (0..40).map(|i| work(5 + i as u64)).collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn seed_derivation_wraps_at_u64_max() {
        // Regression: `base_seed + i` used to overflow (panic in debug)
        // for base seeds near u64::MAX; derivation must wrap instead,
        // identically on the parallel and sequential paths.
        let out = run_trials(4, u64::MAX, |seed| seed);
        assert_eq!(out, vec![u64::MAX, 0, 1, 2]);
        let out = run_trials(3, u64::MAX - 1, |seed| seed);
        assert_eq!(out, vec![u64::MAX - 1, u64::MAX, 0]);
    }

    #[test]
    fn job_results_are_thread_count_independent() {
        let work = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let one = run_jobs_on(33, Some(1), work);
        let four = run_jobs_on(33, Some(4), work);
        let auto = run_jobs(33, work);
        assert_eq!(one, four);
        assert_eq!(one, auto);
    }

    #[test]
    fn oversubscribed_thread_request_is_clamped() {
        let out = run_jobs_on(3, Some(64), |i| i);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn effective_threads_clamps_like_the_pool() {
        assert_eq!(effective_threads(10, Some(4)), 4);
        assert_eq!(effective_threads(3, Some(64)), 3);
        assert_eq!(effective_threads(10, Some(0)), 1);
        assert_eq!(effective_threads(0, Some(4)), 1);
        assert!(effective_threads(1_000_000, None) >= 1);
    }

    #[test]
    fn observer_sees_every_job_exactly_once() {
        for threads in [Some(1), Some(4)] {
            let seen = Mutex::new(vec![0u32; 17]);
            let out = run_jobs_observed(
                17,
                threads,
                |i| i * 3,
                |obs| {
                    assert!(obs.worker < 4);
                    seen.lock().unwrap()[obs.job] += 1;
                },
            );
            assert_eq!(out, (0..17).map(|i| i * 3).collect::<Vec<_>>());
            assert!(seen.into_inner().unwrap().iter().all(|&c| c == 1), "threads = {threads:?}");
        }
    }

    #[test]
    fn observed_results_match_unobserved() {
        let work = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let plain = run_jobs_on(33, Some(4), work);
        let observed = run_jobs_observed(33, Some(4), work, |_| {});
        assert_eq!(plain, observed);
    }
}
