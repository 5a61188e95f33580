//! One benchmark run: set-up, warm-up, the closed loop, the output
//! checks, and the metrics of the untraced (end-to-end) or traced
//! (per-layer) run.

use crate::host;
use crate::pool::{closed_loop, Done, LoopRun};
use crate::probe;
use crate::spans::{self, Ctx, Span, Tracer};
use crate::stats::{beyond, median, percentile, window_rates, Interval};
use crate::trace_json::parse_lb_trace;
use crate::workload::{outcome_line, pinned_checks, twin, Workload};
use analysis::runner::run_jobs_on;
use local_broadcast::config::LbConfig;
use radio_sim::rng::{derive_stream, StreamKind};
use radio_sim::scheduler::EdgeSelection;
use rand::Rng;
use scenario::spec::WorkloadSpec;
use scenario::{ScenarioRunner, TrialOutcome};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use telemetry::EngineMetrics;

/// The pool never has more workers than this, nor more than the host's
/// cores: the benchmark's load is one process with a small, fixed
/// client count, so figures compare across hosts of two or more cores.
pub const MAX_WORKERS: usize = 2;

/// Set-up repeats at least this often, and for at least
/// `SETUP_MIN_TIME`, and its median is reported.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_TIME: Duration = Duration::from_millis(2000);
/// Untraced set-ups are timed in batches that take at least this long.
const SETUP_BATCH: Duration = Duration::from_millis(1);
/// The traced run stops repeating set-up here, which bounds the spans it
/// keeps of set-ups that take a few microseconds.
const TRACED_SETUP_MAX_REPS: usize = 10_000;

/// Windows the measurement span is cut into for the throughput medians.
const RATE_WINDOWS: usize = 20;

/// Time budget of each side measurement in the traced run.
const SIDE_BUDGET: Duration = Duration::from_millis(500);

/// Draws timed for `rng.ns_per_draw`.
const RNG_DRAWS: u64 = 1 << 22;

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Everything a run reports.
pub struct Outcome {
    pub workers: usize,
    /// Distinct trial indices the loop cycles through.
    pub trials: usize,
    pub attempted: usize,
    pub failed: usize,
    /// Output checks that passed, by description.
    pub checks: Vec<String>,
    /// Output checks that failed (any entry makes the run incorrect).
    pub errors: Vec<String>,
    /// The metrics `BENCHMARK.json` lists for this mode, in its order.
    pub metrics: Vec<Metric>,
    /// Further figures printed for the reader but not gated: the
    /// simulated-time metrics and sample counts.
    pub notes: Vec<String>,
    /// Every figure this run reports for this workload, by name.
    pub reported: Vec<String>,
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }
}

pub fn workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |p| p.get())
        .min(MAX_WORKERS)
}

/// Repeats `step` per the set-up policy, at most `max_reps` times once
/// the minimum is met, keeping the last result.
fn repeat_setup<T>(
    max_reps: usize,
    mut step: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let start = Instant::now();
    let mut reps = 0;
    let mut last = None;
    while reps < SETUP_MIN_REPS || (start.elapsed() < SETUP_MIN_TIME && reps < max_reps) {
        // Drop the previous result first so that peak memory reflects
        // one set-up, not two.
        drop(last.take());
        last = Some(step()?);
        reps += 1;
    }
    Ok(last.expect("at least one set-up ran"))
}

/// The canonical outcome of every trial index, from an untimed warm-up
/// pass on the pool (`None` where the trial panicked), and the mean
/// trial time it took.
fn warm_up(runner: &ScenarioRunner, workers: usize) -> (Vec<Option<TrialOutcome>>, f64) {
    let trials = runner.scenario().trials;
    let start = Instant::now();
    let canon = run_jobs_on(trials, Some(workers), |i| {
        catch_unwind(AssertUnwindSafe(|| runner.run_trial(i))).ok()
    });
    let est = start.elapsed().as_secs_f64() * workers.min(trials) as f64 / trials as f64;
    (canon, est)
}

/// Checks the canonical outcomes: against the checked-in reference at
/// the default seed, against the mock-net twin where one exists, and
/// against the repository's pins for the scenario. Returns the passed
/// checks, and marks each trial index whose outcome failed in `bad`.
fn check_outputs(
    w: &Workload,
    seed: u64,
    runner: &ScenarioRunner,
    workers: usize,
    canon: &[Option<TrialOutcome>],
    bad: &mut [bool],
    errors: &mut Vec<String>,
) -> Vec<String> {
    let mut checks = Vec::new();
    for (i, c) in canon.iter().enumerate() {
        if c.is_none() {
            bad[i] = true;
            errors.push(format!("trial {i} panicked"));
        }
    }
    if seed == w.default_seed {
        match w.reference() {
            Ok(reference) if reference.len() == canon.len() => {
                for (i, (c, r)) in canon.iter().zip(&reference).enumerate() {
                    if c.as_ref().is_some_and(|c| outcome_line(c) != *r) {
                        bad[i] = true;
                        errors.push(format!("trial {i} differs from the reference"));
                    }
                }
                checks.push(format!(
                    "{} trial outcomes equal the reference",
                    canon.len()
                ));
            }
            Ok(reference) => errors.push(format!(
                "reference holds {} trials, the workload runs {}",
                reference.len(),
                canon.len()
            )),
            Err(e) => errors.push(e),
        }
    }
    if let Some(t) = twin(runner.scenario()) {
        let substrate = t.transport.name();
        match ScenarioRunner::new(t) {
            Ok(tr) => {
                let theirs = run_jobs_on(canon.len(), Some(workers), |i| tr.run_trial(i));
                for (i, (c, o)) in canon.iter().zip(&theirs).enumerate() {
                    if c.as_ref().is_some_and(|c| c != o) {
                        bad[i] = true;
                        errors.push(format!("trial {i} differs on the {substrate} substrate"));
                    }
                }
                checks.push(format!(
                    "{} trial outcomes equal the {substrate} twin's",
                    canon.len()
                ));
            }
            Err(e) => errors.push(format!("{substrate} twin: {e}")),
        }
    }
    match pinned_checks(w) {
        Ok(c) => checks.extend(c),
        Err(e) => errors.push(e),
    }
    checks
}

/// Runs one trial in the loop and says whether it reproduced its
/// canonical outcome.
fn reproduces(
    canon: &[Option<TrialOutcome>],
    trial: usize,
    run: impl FnOnce() -> TrialOutcome,
) -> Option<TrialOutcome> {
    let out = catch_unwind(AssertUnwindSafe(run)).ok()?;
    (canon[trial].as_ref() == Some(&out)).then_some(out)
}

fn failed_in_loop<T>(run: &LoopRun<(bool, T)>, bad: &[bool]) -> usize {
    run.done
        .iter()
        .filter(|d| !d.value.0 || bad[d.trial])
        .count()
}

/// The simulated-time figures of the canonical trials, for the reader;
/// adds the name of each figure the workload has to `reported`.
fn sim_notes(
    canon: &[Option<TrialOutcome>],
    failed: usize,
    attempted: usize,
    reported: &mut Vec<String>,
) -> Vec<String> {
    let outs: Vec<&TrialOutcome> = canon.iter().flatten().collect();
    let pick = |f: fn(&TrialOutcome) -> Option<u64>| -> Vec<f64> {
        outs.iter().filter_map(|o| f(o)).map(|r| r as f64).collect()
    };
    let acks = pick(|o| o.first_ack);
    let deliveries = pick(|o| o.first_delivery);
    let mut notes = Vec::new();
    match median(&acks) {
        Some(v) => {
            reported.push("ack_rounds_p50".into());
            notes.push(format!(
                "ack_rounds_p50 {v} rounds (sim; {} trials acked)",
                acks.len()
            ))
        }
        None => notes.push("ack_rounds_p50 not reported (no trial acknowledges)".into()),
    }
    if let Some(v) = median(&deliveries) {
        reported.push("delivery_rounds_p50".into());
        notes.push(format!(
            "delivery_rounds_p50 {v} rounds (sim; {} trials delivered)",
            deliveries.len()
        ));
    }
    reported.extend(["spec_ok_ratio".into(), "failed_trial_ratio".into()]);
    let ok = outs.iter().filter(|o| o.spec_ok).count();
    notes.push(format!(
        "spec_ok_ratio {} ratio (sim; {ok} of {} trials)",
        ok as f64 / outs.len().max(1) as f64,
        outs.len()
    ));
    notes.push(format!(
        "failed_trial_ratio {} ratio ({failed} of {attempted} trials)",
        failed as f64 / attempted.max(1) as f64
    ));
    notes
}

/// The untraced run: end-to-end metrics.
pub fn end_to_end(w: &Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let workers = workers();
    // Set-ups run back to back, with the speed probe between them when
    // it is due, and are scaled like trials (see `probe`). They are timed
    // in batches of at least `SETUP_BATCH`, so that the record of them,
    // and with it peak memory, does not grow with the host's speed.
    let (mut setup_s, mut setup_probes) = (Vec::new(), Vec::new());
    let mut batch = 1;
    let t0 = Instant::now();
    let runner = repeat_setup(usize::MAX, || {
        let probe_ns = probe::if_due();
        let t = Instant::now();
        let mut last = None;
        for _ in 0..batch {
            drop(last.take());
            last = Some(ScenarioRunner::new(w.scenario(seed)?).map_err(|e| e.to_string())?);
        }
        let elapsed = t.elapsed();
        setup_s.push(elapsed.as_secs_f64() / batch as f64);
        setup_probes.push((0, t.duration_since(t0).as_nanos() as u64, probe_ns));
        if elapsed < SETUP_BATCH {
            batch *= 2;
        }
        Ok(last.expect("a batch runs at least one set-up"))
    })?;
    let setup_scaled: Vec<f64> = probe::scale_factors(&setup_probes)
        .ok_or("the speed probe never ran")?
        .iter()
        .zip(&setup_s)
        .map(|(f, s)| s * f)
        .collect();
    let n = runner.topology().graph.len() as f64;
    let (canon, est) = warm_up(&runner, workers);
    // Peak memory of set-up plus one pass over every trial on the pool.
    // Read before the loop, whose own per-trial records grow with the
    // host's speed.
    let peak_rss = host::peak_rss_mb().ok_or("peak RSS unavailable (/proc/self/status)")?;
    let trials = canon.len();
    let run = closed_loop(workers, trials, seconds, est, |i| {
        let out = reproduces(&canon, i, || runner.run_trial(i));
        (out.is_some(), out.map_or(0, |o| o.rounds))
    });

    let mut bad = vec![false; trials];
    let mut errors = Vec::new();
    let checks = check_outputs(w, seed, &runner, workers, &canon, &mut bad, &mut errors);
    let attempted = run.done.len();
    let failed = failed_in_loop(&run, &bad);

    let need = |v: Option<f64>, what: &str| v.ok_or(format!("no samples for {what}"));
    // Scale every trial, and every window's rate, to the reference host
    // speed (see `probe`).
    let factors = probe::scale_factors(
        &run.done
            .iter()
            .map(|d| (d.thread, d.start_ns, d.probe_ns))
            .collect::<Vec<_>>(),
    )
    .ok_or("the speed probe never ran")?;
    let raw_ms: Vec<f64> = run
        .done
        .iter()
        .map(|d| (d.end_ns - d.start_ns) as f64 / 1e6)
        .collect();
    let trial_ms: Vec<f64> = raw_ms.iter().zip(&factors).map(|(t, f)| t * f).collect();
    // Per-window rates of a weight per trial, over wall time.
    let rates = |weight: &dyn Fn(usize, &Done<(bool, u64)>) -> f64| -> Vec<f64> {
        let work: Vec<Interval> = run
            .done
            .iter()
            .enumerate()
            .map(|(i, d)| Interval {
                start_ns: d.start_ns,
                end_ns: d.end_ns,
                weight: weight(i, d),
            })
            .collect();
        window_rates(&work, run.span_ns, RATE_WINDOWS)
    };
    // A window's speed factor: its trials' factors weighted by their
    // time inside the window.
    let dur = |d: &Done<(bool, u64)>| (d.end_ns - d.start_ns) as f64;
    let overall = need(median(&factors), "speed factors")?;
    let window_factor: Vec<f64> = rates(&|i, d| factors[i] * dur(d))
        .iter()
        .zip(rates(&|_, d| dur(d)))
        .map(|(fx, x)| if x > 0.0 { fx / x } else { overall })
        .collect();
    let scaled =
        |raw: &[f64]| -> Vec<f64> { raw.iter().zip(&window_factor).map(|(r, f)| r / f).collect() };
    let raw_trial_rates = rates(&|_, _| 1.0);
    let trial_rates = scaled(&raw_trial_rates);
    let node_round_rates = scaled(&rates(&|_, d| n * d.value.1 as f64));
    let metrics = vec![
        metric("setup_s", need(median(&setup_scaled), "setup_s")?, "s"),
        metric(
            "trials_per_s",
            need(median(&trial_rates), "trials_per_s")?,
            "1/s",
        ),
        metric(
            "node_rounds_per_s",
            need(median(&node_round_rates), "node_rounds_per_s")?,
            "1/s",
        ),
        metric(
            "trial_ms_p50",
            need(median(&trial_ms), "trial_ms_p50")?,
            "ms",
        ),
        metric(
            "trial_ms_p90",
            need(percentile(&trial_ms, 0.9), "trial_ms_p90")?,
            "ms",
        ),
        metric("peak_rss_mb", peak_rss, "MB"),
    ];
    let probes: Vec<f64> = run
        .done
        .iter()
        .filter_map(|d| d.probe_ns.map(|p| p as f64))
        .collect();
    let mut notes = vec![
        format!(
            "times are scaled to the reference host speed: probe median {:.0} ns here vs {:.0} ns reference over {} probes (speed factor {overall:.3})",
            need(median(&probes), "probes")?,
            probe::REFERENCE_NS,
            probes.len()
        ),
        format!(
            "setup_s is the median of {} set-up batches, {batch} set-ups per batch at the end; unscaled {:.6} s",
            setup_s.len(),
            need(median(&setup_s), "setup_s")?
        ),
        format!(
            "unscaled trial_ms_p50 {:.6} ms, p90 {:.6} ms",
            need(median(&raw_ms), "trial_ms_p50")?,
            need(percentile(&raw_ms, 0.9), "trial_ms_p90")?
        ),
        format!(
            "trial_ms_p50/p90 over {} trials ({} beyond p90); throughput is the median of {RATE_WINDOWS} windows",
            trial_ms.len(),
            beyond(trial_ms.len(), 0.9),
        ),
    ];
    let range = |r: &[f64]| {
        let (lo, hi) = r
            .iter()
            .fold((f64::MAX, 0f64), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        format!("{lo:.4}..{hi:.4}")
    };
    notes.push(format!(
        "trials_per_s windows range {} (unscaled median {:.4})",
        range(&trial_rates),
        need(median(&raw_trial_rates), "trials_per_s")?
    ));
    let mut reported: Vec<String> = metrics.iter().map(|m| m.name.to_string()).collect();
    if trial_ms.len() < 100 {
        notes
            .push("trial_ms_p90 has fewer than 10 samples beyond it: read it as indicative".into());
        reported.retain(|m| m != "trial_ms_p90");
    }
    notes.extend(sim_notes(&canon, failed, attempted, &mut reported));
    Ok(Outcome {
        workers,
        trials,
        attempted,
        failed,
        checks,
        errors,
        metrics,
        notes,
        reported,
        spans: Vec::new(),
    })
}

/// Engine telemetry summed over instrumented trials, with each trial's
/// time outside the engine (trial time minus engine busy time).
#[derive(Default)]
struct EngineSample {
    total: Option<EngineMetrics>,
    trials: usize,
    outside_us: Vec<f64>,
}

impl EngineSample {
    fn add(&mut self, m: &EngineMetrics, trial_ns: u64) {
        match &mut self.total {
            Some(t) => t.merge(m),
            None => self.total = Some(m.clone()),
        }
        self.trials += 1;
        self.outside_us
            .push((trial_ns as f64 - m.busy_ns() as f64) / 1e3);
    }
}

/// The median duration (ns) of the spans named `name`.
fn span_median_ns(spans: &[Span], name: &str) -> Option<f64> {
    let d: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect();
    median(&d)
}

/// Runs trials cyclically until `budget` is spent (at least `min` runs).
fn for_budget(trials: usize, min: usize, budget: Duration, mut f: impl FnMut(usize)) {
    let start = Instant::now();
    let mut i = 0;
    while i < min || start.elapsed() < budget {
        f(i % trials);
        i += 1;
    }
}

/// The traced run: per-layer metrics, from spans around the
/// benchmark's calls into each layer plus the engine telemetry that
/// `run_trial_instrumented` returns.
pub fn traced(w: &Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let workers = workers();
    let tracer = Tracer::new();

    // Set-up, layer by layer.
    let runner = repeat_setup(TRACED_SETUP_MAX_REPS, || {
        tracer.root("setup", |cx| {
            let s = tracer.child(cx, "spec.parse", |_| w.scenario(seed))?;
            let topo = tracer.child(cx, "topology.build", |_| s.topology.build());
            tracer
                .child(cx, "faults.resolve", |_| s.faults.resolve(&topo))
                .map_err(|e| e.to_string())?;
            tracer
                .child(cx, "runner.new", |_| ScenarioRunner::new(s))
                .map_err(|e| e.to_string())
        })
    })?;
    let graph = &runner.topology().graph;
    let (canon, est) = warm_up(&runner, workers);
    let trials = canon.len();

    // The pool, with every trial instrumented.
    let run = closed_loop(workers, trials, seconds, est, |i| {
        tracer.root("pool.job", |cx| {
            let t = Instant::now();
            let (out, m) = tracer.child(cx, "runner.trial", |_| {
                catch_unwind(AssertUnwindSafe(|| runner.run_trial_instrumented(i)))
                    .ok()
                    .unzip()
            });
            let trial_ns = t.elapsed().as_nanos() as u64;
            let ok = out.is_some() && canon[i].as_ref() == out.as_ref();
            (ok, m.flatten().map(|m| (m, trial_ns)))
        })
    });
    let utilization = run.busy_ns as f64 / (run.workers as f64 * run.wall_ns as f64);
    let idle_ms = (run.workers as f64 * run.wall_ns as f64 - run.busy_ns as f64) / 1e6;
    let mut engine = EngineSample::default();
    for d in &run.done {
        if let Some((m, ns)) = &d.value.1 {
            engine.add(m, *ns);
        }
    }

    // The other substrate: the trial-time ratio mock-net / sim.
    let twin_runner = twin(runner.scenario())
        .map(ScenarioRunner::new)
        .transpose()
        .map_err(|e| e.to_string())?;
    let substrate_ratio = match &twin_runner {
        Some(tr) => {
            let (mut sim, mut mock) = (Vec::new(), Vec::new());
            for_budget(trials, 3, SIDE_BUDGET, |i| {
                let t = Instant::now();
                black_box(runner.run_trial(i));
                sim.push(t.elapsed().as_secs_f64());
                let t = Instant::now();
                black_box(tr.run_trial(i));
                mock.push(t.elapsed().as_secs_f64());
            });
            let pairs = "at least three pairs ran";
            median(&mock).expect(pairs) / median(&sim).expect(pairs)
        }
        None => 1.0,
    };
    let e = engine
        .total
        .clone()
        .ok_or("no engine telemetry from the pool's trials")?;

    // Telemetry overhead: traced over untraced time of the same trials.
    let (mut plain, mut instrumented) = (0u64, 0u64);
    for_budget(trials, 2, SIDE_BUDGET, |i| {
        let t = Instant::now();
        black_box(runner.run_trial(i));
        plain += t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        tracer.root("overhead.trial", |cx| {
            tracer.child(cx, "runner.trial", |_| {
                black_box(runner.run_trial_instrumented(i))
            })
        });
        instrumented += t.elapsed().as_nanos() as u64;
    });
    let overhead = instrumented as f64 / plain.max(1) as f64;

    // The adversary's per-round edges, replayed on the workload's graph
    // for each trial's rounds.
    let (mut sched_ns, mut sched_rounds, mut sched_edges) = (0u64, 0u64, 0u64);
    for_budget(trials, 1, SIDE_BUDGET, |i| {
        let (Some(out), Some(mut sched)) = (
            canon[i].as_ref(),
            runner
                .scenario()
                .adversary
                .build_oblivious(seed.wrapping_add(i as u64)),
        ) else {
            return;
        };
        let t = Instant::now();
        tracer.root("scheduler.replay", |_| {
            for round in 1..=out.rounds {
                sched_edges += match black_box(sched.extra_edges(round, graph)) {
                    EdgeSelection::All => graph.extra_edges().len() as u64,
                    EdgeSelection::None => 0,
                    EdgeSelection::Subset(v) => v.len() as u64,
                };
            }
        });
        sched_ns += t.elapsed().as_nanos() as u64;
        sched_rounds += out.rounds;
    });

    // The RNG shim: one stream, then Bernoulli draws.
    let rng_ns = tracer.root("rng.draws", |_| {
        let t = Instant::now();
        let mut rng = derive_stream(seed, StreamKind::Scheduler, 0);
        let hits = (0..RNG_DRAWS).filter(|_| rng.gen_bool(0.5)).count();
        black_box(hits);
        t.elapsed().as_nanos() as f64
    });

    // The checkers the runner applies, on sampled trials' traces parsed
    // back from JSON; their verdict must match the trial's `spec_ok`.
    let mut errors = Vec::new();
    let t_ack = match &runner.scenario().workload {
        WorkloadSpec::LocalBroadcast { epsilon1, .. } => Some(
            LbConfig::practical(*epsilon1)
                .resolve(runner.topology().r, graph.delta(), graph.delta_prime())
                .t_ack_rounds(),
        ),
        WorkloadSpec::Decay { .. } => None,
        other => {
            return Err(format!(
                "no checker mapping for the {} workload",
                other.name()
            ))
        }
    };
    let mut checked = 0;
    for_budget(trials, 1, SIDE_BUDGET, |i| {
        let verdict = tracer.root("check", |cx: Ctx| {
            let json = tracer.child(cx, "runner.trace_json", |_| runner.trial_trace_json(i));
            let trace = tracer
                .child(cx, "trace.parse", |_| parse_lb_trace(&json))
                .map_err(|e| format!("trial {i}: {e}"))?;
            Ok::<bool, String>(tracer.child(cx, "spec.check", |_| {
                let valid = local_broadcast::spec::check_validity(&trace, graph).is_ok();
                match t_ack {
                    Some(t) => valid && local_broadcast::spec::check_timely_ack(&trace, t).is_ok(),
                    None => valid,
                }
            }))
        });
        checked += 1;
        // Without a checker of its own (Decay), the runner's verdict is
        // always true; validity must then hold on the trace.
        let expected = canon[i].as_ref().map(|o| o.spec_ok);
        match verdict {
            Ok(v) if Some(v) == expected => {}
            Ok(v) => errors.push(format!(
                "trial {i}: checkers say {v}, the runner said {expected:?}"
            )),
            Err(e) => errors.push(e),
        }
    });

    let recorded = tracer.finish();
    let mut bad = vec![false; trials];
    let mut checks = check_outputs(w, seed, &runner, workers, &canon, &mut bad, &mut errors);
    checks.push(format!(
        "checker verdicts match the runner on {checked} sampled traces"
    ));
    let attempted = run.done.len();
    let failed = failed_in_loop(&run, &bad);

    let rounds = e.rounds.max(1) as f64;
    let per_trial = engine.trials.max(1) as f64;
    let phase = |p: usize| e.phase_ns[p] as f64 / rounds;
    let sched_per_round = sched_ns as f64 / sched_rounds.max(1) as f64;
    let ms = |name: &str| span_median_ns(&recorded, name).map(|v| v / 1e6);
    let need = |v: Option<f64>, what: &str| v.ok_or(format!("no samples for {what}"));
    let metrics = vec![
        metric("spec.parse_ms", need(ms("spec.parse"), "spec.parse")?, "ms"),
        metric(
            "topology.build_ms",
            need(ms("topology.build"), "topology.build")?,
            "ms",
        ),
        metric(
            "faults.resolve_ms",
            need(ms("faults.resolve"), "faults.resolve")?,
            "ms",
        ),
        metric("runner.new_ms", need(ms("runner.new"), "runner.new")?, "ms"),
        metric("pool.utilization", utilization, "ratio"),
        metric("pool.idle_ms", idle_ms, "ms"),
        metric("engine.faults_ns", phase(0), "ns"),
        metric("engine.inputs_ns", phase(1), "ns"),
        metric("engine.transmit_ns", phase(2), "ns"),
        metric("engine.resolve_ns", phase(3), "ns"),
        metric("engine.deliver_ns", phase(4), "ns"),
        metric("engine.outputs_ns", phase(5), "ns"),
        metric(
            "engine.transmissions",
            e.transmissions as f64 / per_trial,
            "count",
        ),
        metric(
            "engine.deliveries",
            e.deliveries as f64 / per_trial,
            "count",
        ),
        metric(
            "engine.collisions",
            e.collisions as f64 / per_trial,
            "count",
        ),
        metric("engine.jammed", e.jammed as f64 / per_trial, "count"),
        metric("engine.dropped", e.dropped as f64 / per_trial, "count"),
        metric(
            "engine.down_node_rounds",
            e.down_node_rounds as f64 / per_trial,
            "count",
        ),
        metric(
            "engine.collision_ratio",
            e.collisions as f64 / (e.deliveries + e.collisions).max(1) as f64,
            "ratio",
        ),
        metric("scheduler.ns_per_round", sched_per_round, "ns"),
        metric(
            "scheduler.edges_per_round",
            sched_edges as f64 / sched_rounds.max(1) as f64,
            "count",
        ),
        metric("rng.ns_per_draw", rng_ns / RNG_DRAWS as f64, "ns"),
        metric("resolve.self_ns", phase(3) - sched_per_round, "ns"),
        metric(
            "spec.check_us",
            need(span_median_ns(&recorded, "spec.check"), "spec.check")? / 1e3,
            "us",
        ),
        metric(
            "runner.self_us",
            need(median(&engine.outside_us), "runner.self_us")?,
            "us",
        ),
        metric("net.substrate_ratio", substrate_ratio, "ratio"),
        metric("telemetry.overhead_ratio", overhead, "ratio"),
    ];
    let mut notes = vec![format!(
        "engine phases from {} instrumented pool trials",
        engine.trials
    )];
    if twin_runner.is_none() {
        notes.push(
            "net.substrate_ratio is 1: no mock-net twin (the adversary schedules per-round edges)"
                .into(),
        );
    }
    if overhead > 1.25 {
        notes.push(format!(
            "telemetry overhead {overhead:.2}x: the phase split overstates the small phases on this workload"
        ));
    }
    for (name, (count, total, own)) in spans::summary(&recorded) {
        notes.push(format!(
            "span {name}: {count} x, total {:.3} ms, self {:.3} ms",
            total as f64 / 1e6,
            own as f64 / 1e6
        ));
    }
    Ok(Outcome {
        workers,
        trials,
        attempted,
        failed,
        checks,
        errors,
        reported: metrics.iter().map(|m| m.name.to_string()).collect(),
        metrics,
        notes,
        spans: recorded,
    })
}
