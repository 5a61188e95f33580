//! The benchmark's workloads: scenario files under `workloads/`, their
//! seeding, and the output checks every run applies to their trials.

use scenario::spec::{Scenario, TransportSpec};
use scenario::{GoldenMetrics, ScenarioReport, ScenarioRunner, TrialOutcome};
use std::path::PathBuf;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["ack-clique", "stream-rgg", "scale-50k"];

/// The benchmark package directory.
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The repository root (the benchmark package's parent).
pub fn repo_dir() -> PathBuf {
    bench_dir().join("..")
}

pub struct Workload {
    pub name: String,
    /// The scenario file's text, parsed again on every timed set-up.
    pub json: String,
    /// The file's own `base_seed`: the default seed, for which the
    /// checked-in reference outcomes hold.
    pub default_seed: u64,
}

impl Workload {
    pub fn load(name: &str) -> Result<Self, String> {
        if !NAMES.contains(&name) {
            return Err(format!(
                "unknown workload '{name}' (known: {})",
                NAMES.join(", ")
            ));
        }
        let path = bench_dir().join("workloads").join(format!("{name}.json"));
        let json =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let default_seed = Scenario::from_json(&json)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .base_seed;
        Ok(Workload {
            name: name.into(),
            json,
            default_seed,
        })
    }

    /// Parses and validates the scenario with `seed` as its base seed.
    pub fn scenario(&self, seed: u64) -> Result<Scenario, String> {
        let mut s = Scenario::from_json(&self.json).map_err(|e| e.to_string())?;
        s.base_seed = seed;
        Ok(s)
    }

    fn reference_path(&self) -> PathBuf {
        bench_dir()
            .join("reference")
            .join(format!("{}.txt", self.name))
    }

    /// The checked-in outcome of every trial at the default seed.
    pub fn reference(&self) -> Result<Vec<String>, String> {
        let path = self.reference_path();
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .map(str::to_string)
            .collect())
    }

    /// Records `outcomes` (the default seed's trials) as the reference.
    pub fn write_reference(&self, outcomes: &[TrialOutcome]) -> Result<PathBuf, String> {
        let path = self.reference_path();
        let mut text = format!(
            "# {}: TrialOutcome of trials 0..{} at base seed {}\n",
            self.name,
            outcomes.len(),
            self.default_seed
        );
        for o in outcomes {
            text.push_str(&outcome_line(o));
            text.push('\n');
        }
        std::fs::create_dir_all(path.parent().expect("reference path has a parent"))
            .and_then(|()| std::fs::write(&path, text))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(path)
    }
}

/// The canonical text of one outcome: every field, as `Debug` prints it.
pub fn outcome_line(o: &TrialOutcome) -> String {
    format!("{o:?}")
}

/// The same simulator scenario over the synchronous mock network, when
/// the scenario can run there. Mock-net executions with delay 0, no loss
/// and no partitions are byte-identical to the simulator's, so the
/// twin's outcomes must equal the workload's trial by trial.
pub fn twin(s: &Scenario) -> Option<Scenario> {
    if !s.transport.is_sim() {
        return None;
    }
    let mut t = s.clone();
    t.transport = TransportSpec::mock_net_synchronous();
    t.validate().ok().map(|()| t)
}

/// Seed-independent checks of the scenario file against the repository's
/// own pins: a file named after a pinned sweep point must equal that
/// point, and a file named after a golden scenario must reproduce the
/// golden metrics at the golden's trial count and seed. Returns what was
/// checked, or the first mismatch.
pub fn pinned_checks(w: &Workload) -> Result<Vec<String>, String> {
    let file = Scenario::from_json(&w.json).map_err(|e| e.to_string())?;
    let mut checked = Vec::new();
    for sweep in scenario::sweep::sweeps() {
        let grid = sweep.expand().map_err(|e| e.to_string())?.pinned();
        if let Some(point) = grid.scenarios().into_iter().find(|p| p.name == file.name) {
            if point != file {
                return Err(format!(
                    "{}: workload file differs from sweep '{}' point '{}'",
                    w.name, sweep.name, point.name
                ));
            }
            checked.push(format!(
                "equals sweep {} pinned point {}",
                sweep.name, point.name
            ));
        }
    }
    let golden_path = repo_dir()
        .join("scenarios/golden")
        .join(format!("{}.json", file.name));
    if golden_path.exists() {
        let text = std::fs::read_to_string(&golden_path)
            .map_err(|e| format!("{}: {e}", golden_path.display()))?;
        let golden = GoldenMetrics::from_json(&text).map_err(|e| e.to_string())?;
        let mut native = file.clone();
        native.trials = golden.trials;
        native.base_seed = golden.base_seed;
        let runner = ScenarioRunner::new(native).map_err(|e| e.to_string())?;
        let report: ScenarioReport = runner.run();
        if let Some(bad) = golden.check(&report).into_iter().find(|r| !r.ok) {
            return Err(format!(
                "{}: golden {} {}: expected {}, got {}",
                w.name, bad.scenario, bad.metric, bad.expected, bad.actual
            ));
        }
        checked.push(format!(
            "golden {} at {} trial(s), seed {}",
            file.name, golden.trials, golden.base_seed
        ));
    }
    Ok(checked)
}
