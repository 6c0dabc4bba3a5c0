//! `evobench` — the repository benchmark for evofd.
//!
//! ```text
//! cargo run --release --manifest-path evobench/Cargo.toml -- \
//!     --workload ingest|designer|served|all --seed N --seconds S --trace 0|1
//! ```
//!
//! Three workloads run through the surfaces users touch
//! (`DurableEngine::execute`, `evofd_server::Client::sql`); see each
//! workload module for why it exists. Every workload ends with the same
//! recovery, catch-up and probe phases, so every end-to-end metric is
//! measured on every workload. A run does a fixed amount of work per
//! round and repeats rounds while `--seconds` have not elapsed, so its
//! figures do not depend on how much work fits in the time.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` runs the
//! workload untraced, then one round with spans around each layer's
//! public calls and shadow copies of the layers, and prints the per-layer
//! metrics and the tracing overhead. Output: human-readable `#` lines,
//! then one JSON result line. A failed correctness gate exits non-zero
//! and prints no result.

mod bench;
mod data;
mod designer;
mod ingest;
mod layers;
mod served;
mod stats;
mod sys;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use bench::{Bench, Res};
use layers::trace_overhead_pct;

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

const WORKLOADS: &[&str] = &["ingest", "designer", "served"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Res<Args> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("--seed"))?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad("--seconds"))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("--trace")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?} or all"));
    }
    Ok(args)
}

/// Run rounds of `workload` until `seconds` have elapsed, and at least
/// [`bench::MIN_ROUNDS`]. The traced run does one round: its per-layer
/// figures are per call, and its shadow layers triple the work.
fn run_workload(workload: &'static str, seed: u64, seconds: f64, traced: bool) -> Res<Bench> {
    let mut b = Bench::new(workload, seed, traced)?;
    let start = Instant::now();
    let (rounds, seconds) = if traced { (1, 0.0) } else { (bench::MIN_ROUNDS, seconds) };
    while b.round < rounds || start.elapsed().as_secs_f64() < seconds {
        match workload {
            "ingest" => ingest::run(&mut b)?,
            "designer" => designer::run(&mut b)?,
            "served" => served::run(&mut b)?,
            _ => unreachable!("validated workload"),
        }
        b.round += 1;
    }
    Ok(b)
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn result_line(b: &Bench, metrics: &[(String, f64, &str)]) -> String {
    let (attempted, failed) = b.rec.totals();
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", number(*value))
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run(args: &Args) -> Res<()> {
    let workload = WORKLOADS.iter().copied().find(|w| *w == args.workload).expect("validated");
    let untraced = run_workload(workload, args.seed, args.seconds, false)?;
    let e2e = untraced.end_to_end()?;
    untraced.header(false);
    untraced.print_accounting();
    for m in &e2e {
        println!("# {:<22} {:>14.3} {:<5} ({})", m.name, m.value, m.unit, m.note);
    }
    if !args.trace {
        let metrics: Vec<_> = e2e
            .iter()
            .filter(|m| bench::GATED.contains(&m.name.as_str()))
            .map(|m| (m.name.clone(), m.value, m.unit))
            .collect();
        println!("{}", result_line(&untraced, &metrics));
        return Ok(());
    }
    let untraced_ops = stats::median(&untraced.rec.ops_per_s);
    drop(untraced);

    let mut traced = run_workload(workload, args.seed, args.seconds, true)?;
    traced.header(true);
    let r = &traced.rec;
    let traced_ops = stats::median(&r.ops_per_s);
    let busy = r.timed_cpu_s / r.timed_secs;
    let overhead = trace_overhead_pct(untraced_ops, traced_ops);
    let layers = traced.layers.as_mut().expect("traced run");
    let metrics = layers.metrics(busy, overhead);
    for (name, value, unit) in &metrics {
        println!("# {name:<30} {value:>14.3} {unit}");
    }
    println!("{}", result_line(&traced, &metrics));
    Ok(())
}

/// `--workload all`: each workload in its own process (so `peak_rss_mb`
/// is its own), one after another.
fn run_all(args: &Args) -> Res<()> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    for workload in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", workload, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .map_err(|e| format!("running {workload}: {e}"))?;
        if !status.success() {
            return Err(format!("workload {workload} failed"));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let outcome =
        parse_args().and_then(
            |args| {
                if args.workload == "all" {
                    run_all(&args)
                } else {
                    run(&args)
                }
            },
        );
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("evobench: {e}");
            ExitCode::FAILURE
        }
    }
}
