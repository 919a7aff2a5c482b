//! Workload benchmark for the Auto-FuzzyJoin workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one named workload on inputs generated from `--seed`, checks every
//! output, and prints as its last stdout line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.  With `--trace 0` the
//! metrics are the end-to-end ones, measured untraced; with `--trace 1` a
//! separate traced run reports the per-layer ones from spans the benchmark
//! records around its calls into each layer.  Earlier stdout lines record
//! the input spec and profile, the spans, and a report naming every
//! measurement that applies to the workload.  See `README.md` beside this
//! crate for the workloads and the layer → metric map.

mod layers;
mod learn;
mod serve;
mod stats;
mod trace;

use learn::Shape;
use stats::{metrics_json, Metric};
use std::time::Duration;

/// Rayon workers the library runs on.
pub const RAYON_WORKERS: usize = 2;
/// Client connections a serve workload drives (and server acceptors).
pub const CLIENTS: usize = 2;
/// A run that has not finished by then is stopped without a result.
const DEADLINE: Duration = Duration::from_secs(170);

/// Estimate and greedy heavy: β = 1.5 keeps ~82 candidates per record.
const LEARN_MEDIUM: Shape = Shape {
    num_entities: 3_300,
    num_right: 3_000,
    held_out: 0,
    beta: 1.5,
};
/// Blocking heavy: 33 120 reference records engage the filtered probe
/// (≥ 32 768), and β = 0.25 keeps estimate and greedy small.
const LEARN_WIDE: Shape = Shape {
    num_entities: 36_000,
    num_right: 1_000,
    held_out: 0,
    beta: 0.25,
};
/// The served snapshot: 2 024 × 2 000, plus 800 held-out records to append.
const SERVE: Shape = Shape {
    num_entities: 2_200,
    num_right: 2_000,
    held_out: 800,
    beta: 1.5,
};

const WORKLOADS: [&str; 4] = ["learn_medium", "learn_wide", "serve_join", "serve_append"];

const USAGE: &str =
    "usage: autofj-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks.
    pub errors: Vec<String>,
    /// The metrics of the result line, before the process-wide ones.
    pub metrics: Vec<Metric>,
    /// Further end-to-end measurements printed on the report line only.
    pub report: Vec<Metric>,
    /// Stdout lines printed before the report and result lines.
    pub lines: Vec<String>,
    /// Stderr notes.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn error(&mut self, msg: &str) {
        self.errors.push(msg.to_string());
    }

    pub fn note(&mut self, msg: String) {
        self.notes.push(msg);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run_workload(args: &Args) -> Outcome {
    let (seed, secs, trace) = (args.seed, args.seconds, args.trace);
    match args.workload.as_str() {
        "learn_medium" => learn::run("learn_medium", LEARN_MEDIUM, seed, secs, trace),
        "learn_wide" => learn::run("learn_wide", LEARN_WIDE, seed, secs, trace),
        "serve_join" => serve::run("serve_join", SERVE, seed, secs, trace, false),
        _ => serve::run("serve_append", SERVE, seed, secs, trace, true),
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // A hung server or client must not hold the run past its deadline.
    std::thread::spawn(|| {
        std::thread::sleep(DEADLINE);
        eprintln!("run exceeded {DEADLINE:?}; stopping without a result");
        std::process::exit(3);
    });
    if let Err(e) = rayon::ThreadPoolBuilder::new()
        .num_threads(RAYON_WORKERS)
        .build_global()
    {
        eprintln!("cannot size the rayon pool: {e:?}");
        std::process::exit(2);
    }

    let mut out = learn::guarded(|| run_workload(&args)).unwrap_or_else(|| Outcome {
        attempted: 1,
        failed: 1,
        errors: vec!["workload panicked".into()],
        ..Outcome::default()
    });
    let _ = std::fs::remove_dir(std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tmp"));

    let attempted = out.attempted.max(1);
    let failed_share = out.failed as f64 / attempted as f64;
    if !args.trace && !out.metrics.is_empty() {
        if let Some(rss) = stats::peak_rss_mib() {
            out.metrics.push(Metric::new("peak_rss_mib", rss, "MiB"));
        }
        out.metrics
            .push(Metric::new("ok_share", 1.0 - failed_share, "share"));
    }
    let missing_or_bad = out.metrics.is_empty() || out.metrics.iter().any(|m| !m.value.is_finite());
    if missing_or_bad {
        out.error("a metric is missing or not finite");
    }
    let correct = out.errors.is_empty() && out.failed == 0;

    for note in &out.notes {
        eprintln!("{note}");
    }
    for e in &out.errors {
        eprintln!("check failed: {e}");
    }
    for line in &out.lines {
        println!("{line}");
    }
    let mut report = out.metrics.clone();
    report.extend(out.report.iter().cloned());
    report.push(Metric::new("failed_share", failed_share, "share"));
    println!(
        "{{\"report\": {}, \"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"host_parallelism\": {}, \"rayon_workers\": {RAYON_WORKERS}, \"clients\": {CLIENTS}}}",
        metrics_json(&report),
        args.workload,
        args.seed,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {}}}",
        out.failed,
        metrics_json(&out.metrics)
    );
    std::process::exit(if correct { 0 } else { 1 });
}
