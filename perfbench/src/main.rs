//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload kv-mixed --seed 1 --seconds 10 --trace 0
//! ```
//!
//! runs one named workload, checks its outputs, prints every metric with
//! its unit, and ends with one JSON line
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` prints the
//! end-to-end metrics (measured with tracing off); `--trace 1` prints the
//! per-layer metrics from a traced run, plus the tracing overhead, and
//! writes the actor times and metrics under `.bench_trace/`. The metric names
//! must match `BENCHMARK.json` in the working directory, or the run fails.
//!
//! Two clocks apply, and `METRICS.md` says which metric uses which:
//! *virtual* time is the simulator's calibrated hardware model and is
//! exact per seed; *host* time is what the Rust code costs on this
//! machine. Layers are measured from outside, through public APIs only.

mod cluster;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;

/// Set-ups per end-to-end run; `setup_s` is their median.
pub const SETUPS: usize = 7;

/// Everything one run produces.
pub struct Report {
    /// Operations attempted in the measurement window.
    pub attempted: u64,
    /// Operations failed, refused, or stalled past the window.
    pub failed: u64,
    /// Named correctness checks and whether each held.
    pub checks: Vec<(String, bool)>,
    /// End-to-end metrics (`--trace 0`) or per-layer metrics (`--trace 1`).
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = num()?,
            "--seconds" => seconds = num()?.max(1),
            "--trace" => trace = num()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

/// The metric names listed under `section` in `BENCHMARK.json`.
fn declared_names(manifest: &str, section: &str) -> Result<Vec<String>, String> {
    let at = manifest
        .find(&format!("\"{section}\""))
        .ok_or_else(|| format!("BENCHMARK.json has no \"{section}\""))?;
    let body = &manifest[at..];
    let open = body.find('[').ok_or("malformed BENCHMARK.json")?;
    let close = body.find(']').ok_or("malformed BENCHMARK.json")?;
    let mut names = Vec::new();
    let mut rest = &body[open..close];
    while let Some(i) = rest.find("\"name\"") {
        rest = &rest[i + 6..];
        let start = rest.find('"').ok_or("malformed name")? + 1;
        let len = rest[start..].find('"').ok_or("malformed name")?;
        names.push(rest[start..start + len].to_string());
        rest = &rest[start + len + 1..];
    }
    Ok(names)
}

fn json_line(report: &Report, correct: bool) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.attempted, report.failed
    );
    for (i, (name, value, unit)) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
    }
    out.push_str("}}");
    out
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let manifest = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json in the working directory: {e}"))?;
    let section = if args.trace { "per_layer" } else { "end_to_end" };
    let declared = declared_names(&manifest, section)?;
    let report = cluster::run(&args.workload, args.seed, args.seconds, args.trace)?;
    let printed: Vec<String> = report.metrics.iter().map(|m| m.0.to_string()).collect();
    if printed != declared {
        return Err(format!(
            "metrics {printed:?} do not match BENCHMARK.json {section} {declared:?}"
        ));
    }
    for (name, ok) in &report.checks {
        println!("check {name}: {}", if *ok { "ok" } else { "FAILED" });
    }
    for (name, value, unit) in &report.metrics {
        println!("{name} = {value:.6} {unit}");
    }
    let correct = report.checks.iter().all(|c| c.1);
    println!("{}", json_line(&report, correct));
    Ok(correct)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
