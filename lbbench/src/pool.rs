//! The closed-loop load generator over `analysis::runner::run_jobs_observed`.
//!
//! A fixed pool of workers runs trials back to back: each worker takes
//! the next trial index when its last trial finishes, until the deadline.
//! Trial indices cycle through the scenario's `trials`, so every index
//! is re-run many times and each re-run is checked against the first.
//! Between trials each worker runs the host speed probe when it is due.

use crate::probe;
use analysis::runner::run_jobs_observed;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// One trial the loop ran, timed by the job that ran it.
#[derive(Debug)]
pub struct Done<T> {
    pub trial: usize,
    /// The worker thread that ran it (`probe::thread_index`).
    pub thread: usize,
    /// The speed probe the worker ran just before it, if one was due (ns).
    pub probe_ns: Option<u64>,
    /// Start and end in ns since the loop started.
    pub start_ns: u64,
    pub end_ns: u64,
    pub value: T,
}

/// What one closed-loop run measured.
#[derive(Debug)]
pub struct LoopRun<T> {
    pub done: Vec<Done<T>>,
    pub workers: usize,
    /// The measurement span: the deadline, in ns since the loop started.
    pub span_ns: u64,
    /// Loop start to the last worker's exit.
    pub wall_ns: u64,
    /// Job time the pool observed, summed over workers.
    pub busy_ns: u64,
}

/// Jobs per pool call. Bounded so that the pool's result buffer, and so
/// the run's peak memory, does not depend on the noisy warm-up estimate;
/// a batch boundary idles a worker for at most one trial.
const MAX_BATCH: usize = 1024;

fn since(t0: Instant, t: Instant) -> u64 {
    t.duration_since(t0).as_nanos() as u64
}

/// Runs `run(trial)` for trial indices `0, 1, …, trials-1, 0, 1, …` on
/// `workers` workers for `seconds`. `est_trial_s` (a warm-up estimate)
/// only sizes the job batches handed to the pool, up to `MAX_BATCH`;
/// once the deadline passes, the jobs left in a batch return without
/// running a trial.
pub fn closed_loop<T, F>(
    workers: usize,
    trials: usize,
    seconds: f64,
    est_trial_s: f64,
    run: F,
) -> LoopRun<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let batch = ((seconds / est_trial_s.max(1e-6) * workers as f64 * 1.5).ceil() as usize)
        .clamp(workers, MAX_BATCH);
    let busy = AtomicU64::new(0);
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let mut done = Vec::new();
    let mut offset = 0usize;
    while Instant::now() < deadline {
        let results = run_jobs_observed(
            batch,
            Some(workers),
            |job| {
                if Instant::now() >= deadline {
                    return None;
                }
                let probe_ns = probe::if_due();
                let start = Instant::now();
                let trial = (offset + job) % trials;
                let value = run(trial);
                Some(Done {
                    trial,
                    thread: probe::thread_index(),
                    probe_ns,
                    start_ns: since(t0, start),
                    end_ns: since(t0, Instant::now()),
                    value,
                })
            },
            |obs| {
                busy.fetch_add(obs.elapsed_ns, Ordering::Relaxed);
            },
        );
        done.extend(results.into_iter().flatten());
        offset += batch;
    }
    LoopRun {
        done,
        workers,
        span_ns: since(t0, deadline),
        wall_ns: since(t0, Instant::now()),
        busy_ns: busy.into_inner(),
    }
}
