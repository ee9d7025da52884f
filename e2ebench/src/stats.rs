//! Sample summaries, resident-memory readings and the run-environment stamp.

use std::path::Path;
use std::process::Command;

/// Nearest-rank percentile of an ascending slice; `p` in `(0, 100]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `v` ascending (NaN-free input) and returns it.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an unsorted sample.
pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 50.0)
}

/// Mean of a sample (0 when empty).
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set (`VmHWM`) of a process, in MB, from `/proc`.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Where and how a report was produced, so figures from different
/// machines or builds are never compared silently.
#[derive(Debug, Clone)]
pub struct RunEnv {
    /// `available_parallelism()` of the benchmark host.
    pub nproc: usize,
    /// The link the tcp workloads run over.
    pub link: &'static str,
    /// Build profile of the benchmark binary.
    pub profile: &'static str,
    /// Commit of the checkout, or `unknown` outside a git work tree.
    pub commit: String,
}

impl RunEnv {
    /// Stamps the current process and working directory.
    pub fn detect() -> Self {
        RunEnv {
            nproc: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            link: "loopback",
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            commit: git_commit(Path::new(".")).unwrap_or_else(|| "unknown".into()),
        }
    }

    /// The one-line `key=value` form printed with every report.
    pub fn render(&self) -> String {
        format!(
            "env nproc={} link={} profile={} commit={}",
            self.nproc, self.link, self.profile, self.commit
        )
    }
}

/// HEAD of `dir` when `dir` itself is a git work tree. Git is not allowed
/// to look above `dir`, so a checkout nested in another repository reports
/// `unknown` rather than that repository's commit.
fn git_commit(dir: &Path) -> Option<String> {
    let dir = std::fs::canonicalize(dir).ok()?;
    let out = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(&dir)
        .env("GIT_CEILING_DIRECTORIES", dir.parent()?)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
