//! The two suite workloads: the Table 1 flow driven through
//! `Pipeline::prepare` and one `Pipeline::optimize` per optimizer kind.
//!
//! One pass runs every design of the workload once; a run repeats whole
//! passes until `--seconds` of timed work are done.  Straight after each
//! design, and outside the timed region, its results are checked against
//! oracles the flow does not use to produce it.

use std::collections::BTreeMap;
use std::time::Instant;

use rapids_flow::circuits::benchmark;
use rapids_flow::core::{OptimizationOutcome, OptimizerKind};
use rapids_flow::netlist::Network;
use rapids_flow::sim::check_equivalence_random;
use rapids_flow::timing::Sta;
use rapids_flow::{CircuitSource, Pipeline, PipelineConfig, PipelineReport, PreparedDesign};
use rapids_flow::{SafetyNet, StageTimings};

use crate::layers::{self, SpanTimes};
use crate::stats::{mean, median, peak_rss_mib, quantile};
use crate::{Args, Outcome};

/// The optimizer kinds in Table 1 column order.
const KINDS: [OptimizerKind; 3] =
    [OptimizerKind::Rewiring, OptimizerKind::Sizing, OptimizerKind::Combined];

/// Random vectors the benchmark's own equivalence oracle applies.
const ORACLE_VECTORS: usize = 2048;

/// Set-ups a run repeats before each pass; `setup_s` is their median.
const SETUP_REPEATS: usize = 8;

/// One suite workload.
pub struct SuiteWorkload {
    /// Designs of one pass, in run order.
    pub designs: &'static [&'static str],
    /// ES swaps plus legalization and the SAT safety net; otherwise ES
    /// swaps with the simulation safety net.
    pub legal_sat: bool,
}

/// `suite-es`: the whole Table 1 suite with ES swaps, no legalization.
pub const SUITE_ES: SuiteWorkload = SuiteWorkload {
    designs: &[
        "alu2", "alu4", "c432", "c499", "c1355", "c1908", "c2670", "c3540", "c5315", "c6288",
        "c7552", "i10", "x3", "i8", "k2", "s5378", "s13207", "s15850", "s38417",
    ],
    legal_sat: false,
};

/// `suite-legal-sat`: the ALU, multiplier and control families, with one
/// control design whose proofs take seconds; the error-correcting family
/// is left out because its proofs take half a minute each, and the other
/// seconds-long proofs because a longer pass leaves too few passes in a
/// run to steady the short `GS` calls (README.md).
pub const SUITE_LEGAL_SAT: SuiteWorkload = SuiteWorkload {
    designs: &["alu2", "alu4", "c6288", "c432", "c1908", "k2", "c5315"],
    legal_sat: true,
};

/// The Table 1 configuration as `table1 --es` runs it: the flow's default
/// placement seed and one thread, so the suite inputs do not depend on
/// `--seed` (which picks the oracle's random vectors).
fn pipeline_config(workload: &SuiteWorkload) -> PipelineConfig {
    let mut config = PipelineConfig::default();
    config.optimizer.include_inverting_swaps = true;
    config.threads = 1;
    config.verify_equivalence = true;
    if workload.legal_sat {
        config.legalize.enabled = true;
        config.safety_net = SafetyNet::Sat;
    } else {
        config.safety_net = SafetyNet::Simulation;
    }
    config
}

/// What a pass keeps of one design after its check: the wall time of each
/// public call, the stage timings and the optimizer outcomes.
struct DesignTimes {
    prepare_s: f64,
    optimize_s: [f64; 3],
    timings: StageTimings,
    outcomes: Vec<OptimizationOutcome>,
}

impl DesignTimes {
    fn wall_s(&self) -> f64 {
        self.prepare_s + self.optimize_s.iter().sum::<f64>()
    }
}

/// Measurements of one pass.
struct Pass {
    /// Summed wall time of the public calls (the checks are not timed).
    wall_s: f64,
    designs: Vec<DesignTimes>,
    counters: BTreeMap<&'static str, f64>,
    spans: Option<SpanTimes>,
}

/// What the checks of one pass found.
#[derive(Default)]
struct Verdicts {
    /// Results that failed a check, the named fault's included.
    failed: u64,
    /// Every failed check other than the named fault's.
    problems: Vec<String>,
}

/// Why one optimizer result failed its checks.
enum Failure {
    /// The named fault: an overlapping placement after sizing.
    NamedFault(String),
    /// Any other failed check.
    Problem(String),
}

/// Runs every design of the workload once.  Each design's `prepare` and
/// three `optimize` calls are timed; its results are checked straight
/// after, with the clock stopped, the tracer paused and the registry
/// counters unread, and then dropped, so the process holds one design's
/// flow at a time.
fn run_pass(
    pipeline: &Pipeline,
    workload: &SuiteWorkload,
    seed: u64,
    traced: bool,
    verdicts: &mut Verdicts,
    report_fault: bool,
) -> Result<Pass, String> {
    let mut counters: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut designs = Vec::with_capacity(workload.designs.len());
    for &name in workload.designs {
        if traced {
            rapids_obs::trace::install();
        }
        let before = layers::counters_now();
        let t = Instant::now();
        let design = {
            let _span = rapids_obs::span("bench.prepare");
            pipeline.prepare(CircuitSource::suite(name)).map_err(|e| format!("{name}: {e}"))?
        };
        let prepare_s = t.elapsed().as_secs_f64();
        let mut reports = Vec::with_capacity(3);
        let mut optimize_s = [0.0; 3];
        for (slot, kind) in KINDS.into_iter().enumerate() {
            let t = Instant::now();
            let report = {
                let _span = rapids_obs::span("bench.optimize");
                pipeline.optimize(&design, kind).map_err(|e| format!("{name} {kind}: {e}"))?
            };
            optimize_s[slot] = t.elapsed().as_secs_f64();
            reports.push(report);
        }
        rapids_obs::trace::disable();
        for (counter, delta) in layers::counter_delta(&before, &layers::counters_now()) {
            *counters.entry(counter).or_default() += delta;
        }
        let checks = check_design(name, &design, &reports, &original(name)?, pipeline, seed);
        for failure in checks {
            verdicts.failed += 1;
            match failure {
                Failure::NamedFault(what) if report_fault => {
                    eprintln!("perfbench: named fault: {what}")
                }
                Failure::NamedFault(_) => {}
                Failure::Problem(what) => verdicts.problems.push(what),
            }
        }
        designs.push(DesignTimes {
            prepare_s,
            optimize_s,
            timings: design.timings,
            outcomes: reports.into_iter().map(|r| r.outcome).collect(),
        });
    }
    let wall_s = designs.iter().map(DesignTimes::wall_s).sum();
    let spans = traced.then(|| layers::fold(layers::take_trace()));
    Ok(Pass { wall_s, designs, counters, spans })
}

/// Checks one design's three results against the oracles; returns one
/// failure per result that fails a check.
fn check_design(
    name: &str,
    design: &PreparedDesign,
    reports: &[PipelineReport],
    original: &Network,
    pipeline: &Pipeline,
    seed: u64,
) -> Vec<Failure> {
    let config = pipeline.config();
    let initial =
        Sta::analyze_reference(&design.network, &design.library, &design.placement, &config.timing)
            .critical_delay_ns();
    reports
        .iter()
        .filter_map(|report| {
            check_result(name, design, report, original, initial, config, seed).err()
        })
        .collect()
}

/// Checks one optimizer result; `initial` is the reference STA's delay
/// of the prepared design.
fn check_result(
    name: &str,
    design: &PreparedDesign,
    report: &PipelineReport,
    original: &Network,
    initial: f64,
    config: &PipelineConfig,
    seed: u64,
) -> Result<(), Failure> {
    let kind = report.kind;
    let outcome = &report.outcome;
    let problem = |what: String| Failure::Problem(format!("{name} {kind}: {what}"));
    if design.initial_delay_ns() != initial
        || report.initial_delay_ns != initial
        || outcome.initial_delay_ns != initial
    {
        return Err(problem(format!(
            "initial delay {} ns, reference STA says {initial} ns",
            outcome.initial_delay_ns
        )));
    }
    let grown = report.grown_placement(&design.placement);
    let reference =
        Sta::analyze_reference(&report.network, &design.library, &grown, &config.timing)
            .critical_delay_ns();
    if outcome.final_delay_ns != reference {
        return Err(problem(format!(
            "final delay {} ns, reference STA says {reference} ns",
            outcome.final_delay_ns
        )));
    }
    if outcome.final_delay_ns > initial {
        return Err(problem("delay got worse".into()));
    }
    let vectors_seed = seed ^ fnv1a(name) ^ kind as u64;
    let verdict = check_equivalence_random(original, &report.network, ORACLE_VECTORS, vectors_seed);
    if !verdict.is_equivalent() {
        return Err(problem(format!("result differs from the original: {verdict:?}")));
    }
    if kind == OptimizerKind::Rewiring && outcome.gates_resized != 0 {
        return Err(problem(format!("gsg resized {} gates", outcome.gates_resized)));
    }
    if config.safety_net == SafetyNet::Sat && !report.equivalence_proven {
        return Err(problem("equivalence was not proven".into()));
    }
    if config.legalize.enabled {
        if let Err(overlap) = grown.check_legal(&report.network, &design.library) {
            // The named fault: the flow never re-legalizes after sizing.
            // Anything else overlapping is a new fault.
            if kind == OptimizerKind::Rewiring || outcome.gates_resized == 0 {
                return Err(problem(format!("illegal placement: {overlap}")));
            }
            return Err(Failure::NamedFault(format!("{name} {kind}: {overlap}")));
        }
    }
    Ok(())
}

/// Generates the input network of design `name` apart from the flow: the
/// original the oracle checks each result against.
fn original(name: &str) -> Result<Network, String> {
    benchmark(name).ok_or(format!("unknown design {name}"))
}

/// One set-up: the pipeline, and every input network of the workload
/// generated once.  Each network is dropped at once and the oracle
/// generates it again for its check, so the run never holds more than one
/// design's data and `peak_rss_mib` is one design's flow plus its oracle.
fn set_up(workload: &SuiteWorkload) -> Result<Pipeline, String> {
    let pipeline = Pipeline::new(pipeline_config(workload));
    for &name in workload.designs {
        std::hint::black_box(original(name)?);
    }
    Ok(pipeline)
}

pub fn run(args: &Args, workload: &SuiteWorkload) -> Result<Outcome, String> {
    // Set-up is repeated before every pass so that its median covers the
    // whole run; the first repeat is timed from process start.
    let mut setup_s = Vec::new();
    let mut setup_from = Some(args.started);
    let mut passes: Vec<Pass> = Vec::new();
    let mut verdicts = Verdicts::default();
    let mut measured = 0.0;
    // The traced run of suite-es alternates untraced and traced passes to
    // price the tracing; on suite-legal-sat it traces every pass and leaves
    // tracing unpriced.
    let alternate = args.trace && !workload.legal_sat;
    while measured < args.seconds || (alternate && passes.len() % 2 == 1) {
        let mut pipeline = None;
        for _ in 0..SETUP_REPEATS {
            let from = setup_from.take().unwrap_or_else(Instant::now);
            pipeline = Some(set_up(workload)?);
            setup_s.push(from.elapsed().as_secs_f64());
        }
        let pipeline = pipeline.expect("SETUP_REPEATS is positive");
        let traced = args.trace && (!alternate || passes.len() % 2 == 1);
        let first = passes.is_empty();
        let pass = run_pass(&pipeline, workload, args.seed, traced, &mut verdicts, first)?;
        measured += pass.wall_s;
        passes.push(pass);
    }
    for problem in &verdicts.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    let attempted = (passes.len() * workload.designs.len() * KINDS.len()) as u64;
    let metrics = if args.trace {
        layer_metrics(&passes, workload)
    } else {
        end_to_end_metrics(&passes, median(&setup_s))?
    };
    Ok(Outcome {
        correct: verdicts.problems.is_empty(),
        attempted,
        failed: verdicts.failed,
        metrics,
    })
}

fn end_to_end_metrics(
    passes: &[Pass],
    setup_s: f64,
) -> Result<BTreeMap<&'static str, f64>, String> {
    // Each design's figure is its median over the run's passes, so a slow
    // spell of the machine during one design of one pass does not move it;
    // a pass's time is the sum of those medians.
    let per_design = |time: &dyn Fn(&DesignTimes) -> f64| -> Vec<f64> {
        (0..passes[0].designs.len())
            .map(|d| median(&passes.iter().map(|p| time(&p.designs[d])).collect::<Vec<_>>()))
            .collect()
    };
    let pass_s = |time: &dyn Fn(&DesignTimes) -> f64| per_design(time).iter().sum::<f64>();
    // The first pass's gains equal every later pass's: the flow is
    // deterministic for fixed inputs.
    let gain = |slot: usize| {
        mean(
            &passes[0]
                .designs
                .iter()
                .map(|d| d.outcomes[slot].delay_improvement_percent())
                .collect::<Vec<_>>(),
        )
    };
    // Seen as jobs, every design is one computed job: its latency is its
    // whole flow.  The typical job is the mean over designs: the median
    // design's time jumps whenever two designs of different size swap
    // ranks.  Nothing is answered from a cache here; the stand-in for a
    // hit is the work a job does before any optimizer runs, its `prepare`
    // call (as a mean over designs: the small designs' calls take
    // milliseconds, too short to rank on their own).
    let latency_ms = per_design(&|d| 1e3 * d.wall_s());
    let prepare_ms = per_design(&|d| 1e3 * d.prepare_s);
    let flow_s = pass_s(&|d| d.wall_s());
    Ok(BTreeMap::from([
        ("setup_s", setup_s),
        ("flow_s", flow_s),
        ("gsg_s", pass_s(&|d| d.optimize_s[0])),
        ("gs_s", pass_s(&|d| d.optimize_s[1])),
        ("combined_s", pass_s(&|d| d.optimize_s[2])),
        ("gsg_gain_pct", gain(0)),
        ("gs_gain_pct", gain(1)),
        ("combined_gain_pct", gain(2)),
        ("serve_jobs_per_s", passes[0].designs.len() as f64 / flow_s),
        ("serve_miss_p50_ms", mean(&latency_ms)),
        ("serve_hit_p50_ms", mean(&prepare_ms)),
        ("serve_p90_ms", quantile(&latency_ms, 0.9)),
        ("peak_rss_mib", peak_rss_mib("self")?),
    ]))
}

fn layer_metrics(passes: &[Pass], workload: &SuiteWorkload) -> BTreeMap<&'static str, f64> {
    let untraced: Vec<f64> =
        passes.iter().filter(|p| p.spans.is_none()).map(|p| p.wall_s).collect();
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.spans.is_some()).collect();
    let per = (traced.len() as f64).max(1.0);
    let mut spans = SpanTimes::default();
    for pass in &traced {
        let times = pass.spans.as_ref().expect("traced pass has spans");
        for (name, s) in &times.total_s {
            *spans.total_s.entry(name.clone()).or_default() += s;
        }
        for (name, s) in &times.self_s {
            *spans.self_s.entry(name.clone()).or_default() += s;
        }
    }
    // Counts repeat exactly from pass to pass; report the first pass's.
    let first = &passes[0];
    let outcome_sum = |f: &dyn Fn(&OptimizationOutcome) -> usize| {
        first.designs.iter().flat_map(|d| &d.outcomes).map(f).sum::<usize>() as f64
    };
    let generate_s: f64 =
        traced.iter().flat_map(|p| p.designs.iter().map(|d| d.timings.generate_s)).sum::<f64>()
            / per;
    let traced_flow = median(&traced.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let overhead_pct =
        if untraced.is_empty() { 0.0 } else { 100.0 * (traced_flow / median(&untraced) - 1.0) };
    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::from([
        ("circuits.generate_s", generate_s),
        ("legalize.nudge_fallbacks", outcome_sum(&|o| o.nudge_fallbacks)),
        ("timing.full_refreshes", outcome_sum(&|o| o.sta.full_refreshes)),
        ("timing.incremental_updates", outcome_sum(&|o| o.sta.incremental_updates)),
        ("timing.gates_retimed", outcome_sum(&|o| o.sta.gates_retimed)),
        ("core.swaps", outcome_sum(&|o| o.swaps_applied)),
        ("core.es_swaps", outcome_sum(&|o| o.inverting_swaps_applied)),
        ("sizing.gates_resized", outcome_sum(&|o| o.gates_resized)),
        ("flow.prepare_s", spans.total("bench.prepare") / per),
        ("obs.trace_overhead_pct", overhead_pct),
    ]);
    metrics.extend(layers::span_metrics(&spans, workload.legal_sat, per));
    metrics.extend(layers::counter_metrics(&first.counters, 1.0));
    for name in [
        "serve.resolve_s",
        "serve.run_s",
        "serve.store_s",
        "serve.engine_hit_p50_ms",
        "serve.net_overhead_ms",
        "serve.optimizer_runs",
        "serve.cache_hits",
        "serve.hit_ratio",
    ] {
        // No server runs on the suite workloads.
        metrics.insert(name, 0.0);
    }
    metrics
}

/// FNV-1a of a design name, to give every design its own oracle vectors.
fn fnv1a(text: &str) -> u64 {
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}
