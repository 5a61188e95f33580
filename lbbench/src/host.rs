//! The host fingerprint recorded with every result, and process memory.

use std::path::Path;
use std::process::Command;

#[derive(Debug, Clone)]
pub struct Host {
    pub cores: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub commit: String,
}

fn command_line(command: &mut Command, dir: &Path) -> Option<String> {
    let out = command.current_dir(dir).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

impl Host {
    /// Fingerprints this host; `repo` is where the commit is looked up
    /// (a source checkout without git history records "unknown").
    pub fn probe(repo: &Path) -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
        Host {
            cores: std::thread::available_parallelism().map_or(1, |p| p.get()),
            cpu_model,
            rustc: command_line(Command::new(rustc).arg("-V"), repo)
                .unwrap_or_else(|| "unknown".into()),
            commit: commit(repo).unwrap_or_else(|| "unknown".into()),
        }
    }
}

/// `HEAD` of the git repository rooted at `repo`. Discovery stops at
/// `repo`, so a checkout without history inside some other repository
/// records no commit rather than the enclosing repository's.
fn commit(repo: &Path) -> Option<String> {
    let repo = repo.canonicalize().ok()?;
    let mut git = Command::new("git");
    git.args(["rev-parse", "HEAD"]);
    if let Some(parent) = repo.parent() {
        git.env("GIT_CEILING_DIRECTORIES", parent);
    }
    command_line(&mut git, &repo)
}

/// Peak resident set size of this process in MiB (`VmHWM`), if the
/// platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
