//! `rapids-perfbench` — the RAPIDS end-to-end benchmark.
//!
//! ```text
//! rapids-perfbench --workload suite-es|suite-legal-sat|serve-mixed \
//!     --seed N --seconds S --trace 0|1 [--serve-bin PATH] [--scratch DIR]
//! ```
//!
//! Runs whole rounds of one workload until `--seconds` of timed work are
//! done, checks every output against oracles the program does not use to
//! produce it, and prints as its last stdout line one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones.  `run.py` builds this package and the `rapids-serve` binary and
//! passes `--serve-bin`; README.md documents every metric.

mod layers;
mod serve;
mod stats;
mod suite;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// `(name, unit)` of every end-to-end metric, in report order.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("flow_s", "s"),
    ("gsg_s", "s"),
    ("gs_s", "s"),
    ("combined_s", "s"),
    ("gsg_gain_pct", "%"),
    ("gs_gain_pct", "%"),
    ("combined_gain_pct", "%"),
    ("serve_jobs_per_s", "jobs/s"),
    ("serve_miss_p50_ms", "ms"),
    ("serve_hit_p50_ms", "ms"),
    ("serve_p90_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// `(name, unit)` of every per-layer metric, in report order.
const PER_LAYER: &[(&str, &str)] = &[
    ("circuits.generate_s", "s"),
    ("placement.place_s", "s"),
    ("legalize.legalize_s", "s"),
    ("legalize.nudges", "count"),
    ("legalize.nudge_fallbacks", "count"),
    ("timing.initial_sta_s", "s"),
    ("timing.full_s", "s"),
    ("timing.full_refreshes", "count"),
    ("timing.incremental_updates", "count"),
    ("timing.gates_retimed", "count"),
    ("core.pass_s", "s"),
    ("core.passes", "count"),
    ("core.swaps", "count"),
    ("core.es_swaps", "count"),
    ("core.rollbacks", "count"),
    ("core.swap_keep_ratio", "ratio"),
    ("sizing.pass_s", "s"),
    ("sizing.passes", "count"),
    ("sizing.gates_resized", "count"),
    ("sim.safety_net_s", "s"),
    ("cec.safety_net_s", "s"),
    ("cec.encode_s", "s"),
    ("cec.sweep_s", "s"),
    ("cec.solve_s", "s"),
    ("cec.conflicts", "count"),
    ("cec.sweep_proven_ratio", "ratio"),
    ("flow.prepare_s", "s"),
    ("serve.resolve_s", "s"),
    ("serve.run_s", "s"),
    ("serve.store_s", "s"),
    ("serve.engine_hit_p50_ms", "ms"),
    ("serve.net_overhead_ms", "ms"),
    ("serve.optimizer_runs", "count"),
    ("serve.cache_hits", "count"),
    ("serve.hit_ratio", "ratio"),
    ("obs.trace_overhead_pct", "%"),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub serve_bin: Option<PathBuf>,
    pub scratch: PathBuf,
    /// When the process started; set-up time is measured from here.
    pub started: Instant,
}

/// What one workload run produced.
pub struct Outcome {
    /// Every output check passed (failures of the one named fault aside).
    pub correct: bool,
    /// Operations attempted: optimizer results or protocol jobs.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metric values by name; any catalog metric missing here is a bug.
    pub metrics: BTreeMap<&'static str, f64>,
}

fn parse_args() -> Result<Args, String> {
    let started = Instant::now();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut serve_bin = None;
    let mut scratch = PathBuf::from(".bench_build/perfbench-tmp");
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--serve-bin" => serve_bin = Some(PathBuf::from(value()?)),
            "--scratch" => scratch = PathBuf::from(value()?),
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace, serve_bin, scratch, started })
}

fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "suite-es" => suite::run(args, &suite::SUITE_ES),
        "suite-legal-sat" => suite::run(args, &suite::SUITE_LEGAL_SAT),
        "serve-mixed" => serve::run(args),
        other => Err(format!(
            "unknown workload `{other}` (want suite-es, suite-legal-sat or serve-mixed)"
        )),
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    let outcome = run(&args).unwrap_or_else(|e| {
        eprintln!("perfbench: {}: {e}", args.workload);
        std::process::exit(1);
    });
    let catalog = if args.trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::new();
    for &(name, unit) in catalog {
        let value: f64 = *outcome
            .metrics
            .get(name)
            .unwrap_or_else(|| panic!("workload {} did not compute {name}", args.workload));
        assert!(value.is_finite(), "{name} is not finite: {value}");
        println!("{name:<28} {value:>16.6} {unit}");
        fields.push(format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"));
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        fields.join(",")
    );
    if !outcome.correct {
        std::process::exit(1);
    }
}
