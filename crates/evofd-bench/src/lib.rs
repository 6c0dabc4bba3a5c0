//! # evofd-bench
//!
//! Benchmark harness reproducing **every table and figure** of the
//! EDBT 2016 evaluation (Section 6), plus the §5 CB-vs-EB comparison the
//! paper could not run and ablations of our design choices.
//!
//! One binary per experiment (see DESIGN.md's experiment index):
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `table4` | Table 4 — TPC-H databases overview |
//! | `table5` | Table 5 — FindFDRepairs processing times |
//! | `fig3` | Figure 3 — time vs #attrs / #tuples / table size |
//! | `table6` | Table 6 — real databases overview & find-first times |
//! | `table7` | Table 7 — Veterans sweep, find **all** repairs |
//! | `table8` | Table 8 — Veterans sweep, find the **first** repair |
//! | `cb_vs_eb` | §5 — confidence-based vs entropy-based methods |
//! | `discovery_vs_repair` | §2 — declared-FD repair vs discover-then-relax |
//! | `ablation` | DESIGN.md ablations (cache, counting, thresholds) |
//!
//! Each binary accepts `--scale`/`--rows`/`--attrs` style flags (run with
//! `--help`) and defaults to laptop-friendly sizes; `--paper` switches to
//! the paper's full workload sizes. Measured numbers are printed next to
//! the paper's, and EXPERIMENTS.md records a full run.

pub mod paper;

use std::time::{Duration, Instant};

/// The git revision of the working tree the bench runs in (`git
/// rev-parse HEAD`), or `unknown` outside a clone or without `git`.
pub fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|rev| rev.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Time a closure.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Minimal flag parser: `--name value` pairs plus boolean `--flag`s.
#[derive(Debug, Clone, Default)]
pub struct Args {
    pairs: Vec<(String, String)>,
    flags: Vec<String>,
}

impl Args {
    /// Parse `std::env::args` (skipping the binary name).
    pub fn from_env() -> Args {
        Args::parse(std::env::args().skip(1))
    }

    /// Parse an explicit iterator (testable).
    pub fn parse<I: IntoIterator<Item = String>>(items: I) -> Args {
        let mut out = Args::default();
        let mut iter = items.into_iter().peekable();
        while let Some(item) = iter.next() {
            if let Some(name) = item.strip_prefix("--") {
                match iter.peek() {
                    Some(v) if !v.starts_with("--") => {
                        out.pairs.push((name.to_string(), iter.next().expect("peeked")));
                    }
                    _ => out.flags.push(name.to_string()),
                }
            }
        }
        out
    }

    /// Boolean flag presence.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// Raw string value.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.pairs.iter().rev().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// Parsed value with default.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.get(name).and_then(|v| v.parse().ok()).unwrap_or(default)
    }

    /// Comma-separated list with default.
    pub fn list_or(&self, name: &str, default: &[usize]) -> Vec<usize> {
        match self.get(name) {
            None => default.to_vec(),
            Some(v) => v.split(',').filter_map(|x| x.trim().parse().ok()).collect(),
        }
    }
}

/// Render `measured` next to a `paper_ms` reference.
pub fn vs_paper(measured: Duration, paper_ms: u64) -> String {
    format!(
        "{} (paper: {})",
        evofd_core::format_duration(measured),
        evofd_core::format_duration(Duration::from_millis(paper_ms))
    )
}

/// Print a standard experiment header.
pub fn banner(title: &str, note: &str) {
    println!("================================================================");
    println!("{title}");
    if !note.is_empty() {
        println!("{note}");
    }
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_pairs_and_flags() {
        let a = args("--scale 0.05 --paper --rows 10,20");
        assert_eq!(a.get_or("scale", 1.0f64), 0.05);
        assert!(a.flag("paper"));
        assert!(!a.flag("full"));
        assert_eq!(a.list_or("rows", &[1]), vec![10, 20]);
        assert_eq!(a.list_or("attrs", &[5, 6]), vec![5, 6]);
    }

    #[test]
    fn later_pair_wins() {
        let a = args("--scale 1 --scale 2");
        assert_eq!(a.get_or("scale", 0.0f64), 2.0);
    }

    #[test]
    fn timed_measures() {
        let (v, d) = timed(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(d < Duration::from_secs(5));
    }

    #[test]
    fn vs_paper_formats_both() {
        let s = vs_paper(Duration::from_millis(5), 7_159_884);
        assert!(s.contains("5ms"));
        assert!(s.contains("1h 59m 19s 884ms"));
    }
}
