//! The repository benchmark.
//!
//! ```text
//! lbbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! lbbench --bless <name>
//! ```
//!
//! Runs one workload (a scenario file under `workloads/`, with `--seed`
//! as its base seed) through the public scenario API on a closed-loop
//! pool for `--seconds` (default 25, `BENCHMARK.json`'s `run_seconds`),
//! checks every trial's output, and prints the metrics: with
//! `--trace 0` the end-to-end metrics, measured untraced; with
//! `--trace 1` the per-layer metrics of a traced run. The last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; a run record (host fingerprint, worker count,
//! seed, trial counts, checks, metrics) and, for traced runs, the spans
//! go to `out/`. The exit code is 1 when any output check fails and 2 on
//! a usage or set-up error.
//!
//! `--bless` records the outcome of every trial of a workload at its
//! default seed as the reference later runs at that seed must equal.

mod host;
mod pool;
mod probe;
mod run;
mod spans;
mod stats;
mod trace_json;
mod workload;

use run::Outcome;
use std::fmt::Write as _;
use std::process::ExitCode;
use workload::{bench_dir, repo_dir, Workload};

const USAGE: &str = "usage: lbbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]\n       lbbench --bless <name>";

struct Args {
    workload: String,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    bless: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: None,
        seconds: 25.0,
        trace: false,
        bless: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--bless" => {
                args.workload = value()?;
                args.bless = true;
            }
            "--seed" => args.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_list(items: &[String]) -> String {
    format!(
        "[{}]",
        items
            .iter()
            .map(|s| json_str(s))
            .collect::<Vec<_>>()
            .join(", ")
    )
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct(),
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn write_record(args: &Args, seed: u64, host: &host::Host, o: &Outcome) -> std::io::Result<()> {
    let dir = bench_dir().join("out");
    std::fs::create_dir_all(&dir)?;
    let mode = if args.trace { 1 } else { 0 };
    let stem = format!("{}-seed{seed}-trace{mode}", args.workload);
    let record = format!(
        "{{\n  \"workload\": {},\n  \"seed\": {seed},\n  \"seconds\": {},\n  \"trace\": {mode},\n  \
         \"workers\": {},\n  \"host\": {{\"cores\": {}, \"cpu_model\": {}, \"rustc\": {}, \"commit\": {}}},\n  \
         \"distinct_trials\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"reported\": {},\n  \"checks\": {},\n  \
         \"errors\": {},\n  \"notes\": {},\n  \"result\": {}\n}}\n",
        json_str(&args.workload),
        args.seconds,
        o.workers,
        host.cores,
        json_str(&host.cpu_model),
        json_str(&host.rustc),
        json_str(&host.commit),
        o.trials,
        o.attempted,
        o.failed,
        json_list(&o.reported),
        json_list(&o.checks),
        json_list(&o.errors),
        json_list(&o.notes),
        result_line(o),
    );
    std::fs::write(dir.join(format!("run-{stem}.json")), record)?;
    if args.trace {
        spans::write_jsonl(&dir.join(format!("spans-{stem}.jsonl")), &o.spans)?;
    }
    Ok(())
}

fn bless(w: &Workload) -> Result<(), String> {
    let runner =
        scenario::ScenarioRunner::new(w.scenario(w.default_seed)?).map_err(|e| e.to_string())?;
    let path = w.write_reference(&runner.run().outcomes)?;
    println!("wrote {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lbbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = match Workload::load(&args.workload) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("lbbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.bless {
        return match bless(&w) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("lbbench: {e}");
                ExitCode::from(2)
            }
        };
    }
    let seed = args.seed.unwrap_or(w.default_seed);
    let host = host::Host::probe(&repo_dir());
    let result = if args.trace {
        run::traced(&w, seed, args.seconds)
    } else {
        run::end_to_end(&w, seed, args.seconds)
    };
    let o = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("lbbench: {}: {e}", w.name);
            return ExitCode::from(2);
        }
    };
    println!(
        "lbbench {} seed={seed} seconds={} trace={} workers={}",
        w.name, args.seconds, args.trace as u8, o.workers
    );
    println!(
        "host: cores={} cpu={:?} rustc={:?} commit={}",
        host.cores, host.cpu_model, host.rustc, host.commit
    );
    println!(
        "trials: {} attempted, {} failed, cycling {} distinct trial indices",
        o.attempted, o.failed, o.trials
    );
    for c in &o.checks {
        println!("check ok: {c}");
    }
    for e in &o.errors {
        println!("CHECK FAILED: {e}");
    }
    for m in &o.metrics {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for n in &o.notes {
        println!("  {n}");
    }
    if let Err(e) = write_record(&args, seed, &host, &o) {
        eprintln!("lbbench: writing the run record: {e}");
        return ExitCode::from(2);
    }
    println!("{}", result_line(&o));
    if o.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
