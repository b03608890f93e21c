//! Per-layer accounting: folds recorded spans into per-name total and
//! self times, and takes counter deltas from the process-global registry.
//!
//! Spans come from the program's existing tracer (`rapids_obs::trace`) plus
//! the benchmark's own spans around each public call.  Nesting is
//! recovered per thread from interval containment, the same rule the
//! tracer documents; a span's self time is its duration minus the time its
//! direct children cover.

use std::collections::BTreeMap;

/// One closed span interval, in nanoseconds.
#[derive(Clone, Debug)]
pub struct Interval {
    pub name: String,
    pub tid: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
}

impl Interval {
    fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

/// Per-name sums of span time, seconds, plus the `serve.job` spans that
/// ran no `serve.run` beneath them (the jobs the cache answered).
#[derive(Default, Debug)]
pub struct SpanTimes {
    pub total_s: BTreeMap<String, f64>,
    pub self_s: BTreeMap<String, f64>,
    pub cache_answered_job_ms: Vec<f64>,
}

impl SpanTimes {
    pub fn total(&self, name: &str) -> f64 {
        self.total_s.get(name).copied().unwrap_or(0.0)
    }

    pub fn self_time(&self, name: &str) -> f64 {
        self.self_s.get(name).copied().unwrap_or(0.0)
    }
}

/// Folds intervals into per-name total and self times.
pub fn fold(mut spans: Vec<Interval>) -> SpanTimes {
    // Parents first: by thread, then start, then longest first.
    spans.sort_by(|a, b| {
        (a.tid, a.start_ns, std::cmp::Reverse(a.dur_ns)).cmp(&(
            b.tid,
            b.start_ns,
            std::cmp::Reverse(b.dur_ns),
        ))
    });
    let mut out = SpanTimes::default();
    // Open ancestors of the current span: (index, time covered by direct
    // children, whether a `serve.run` lies beneath).
    let mut stack: Vec<(usize, u64, bool)> = Vec::new();
    let close = |out: &mut SpanTimes, span: &Interval, child_ns: u64, ran: bool| {
        let own = span.dur_ns.saturating_sub(child_ns) as f64 / 1e9;
        *out.self_s.entry(span.name.clone()).or_default() += own;
        *out.total_s.entry(span.name.clone()).or_default() += span.dur_ns as f64 / 1e9;
        if span.name == "serve.job" && !ran {
            out.cache_answered_job_ms.push(span.dur_ns as f64 / 1e6);
        }
    };
    for (i, span) in spans.iter().enumerate() {
        while let Some(&(top, child_ns, ran)) = stack.last() {
            let parent = &spans[top];
            if parent.tid == span.tid && span.end_ns() <= parent.end_ns() {
                break;
            }
            stack.pop();
            close(&mut out, parent, child_ns, ran);
            if let Some(grand) = stack.last_mut() {
                grand.2 |= ran || parent.name == "serve.run";
            }
        }
        if let Some(parent) = stack.last_mut() {
            parent.1 += span.dur_ns;
        }
        stack.push((i, 0, false));
    }
    while let Some((top, child_ns, ran)) = stack.pop() {
        let span = &spans[top];
        close(&mut out, span, child_ns, ran);
        if let Some(grand) = stack.last_mut() {
            grand.2 |= ran || span.name == "serve.run";
        }
    }
    out
}

/// Drains the in-process tracer into intervals.
pub fn take_trace() -> Vec<Interval> {
    rapids_obs::trace::take_events()
        .into_iter()
        .map(|e| Interval {
            name: e.name,
            tid: u64::from(e.tid),
            start_ns: e.ts_ns,
            dur_ns: e.dur_ns,
        })
        .collect()
}

/// Reads a Chrome trace-event file (what `rapids-serve --trace-out`
/// writes) into intervals.
pub fn read_chrome_trace(text: &str) -> Result<Vec<Interval>, String> {
    let root = rapids_obs::json::parse(text)?;
    let events =
        root.get("traceEvents").and_then(|v| v.as_arr()).ok_or("trace has no traceEvents array")?;
    let us_to_ns = |x: f64| (x * 1000.0).round() as u64;
    events
        .iter()
        .map(|e| {
            let num = |key: &str| e.get(key).and_then(|v| v.as_num());
            Ok(Interval {
                name: e.get("name").and_then(|v| v.as_str()).ok_or("event without name")?.into(),
                tid: num("tid").ok_or("event without tid")? as u64,
                start_ns: us_to_ns(num("ts").ok_or("event without ts")?),
                dur_ns: us_to_ns(num("dur").ok_or("event without dur")?),
            })
        })
        .collect()
}

/// The global-registry counters the benchmark reads around its calls.
pub const COUNTERS: &[&str] = &[
    "legalize.nudges",
    "legalize.nudge_fallbacks",
    "optimizer.passes",
    "optimizer.rollbacks",
    "optimizer.swaps_applied",
    "optimizer.swaps_rolled_back",
    "optimizer.es_swaps",
    "sizer.passes",
    "sizer.gates_resized",
    "timing.full_refreshes",
    "timing.incremental_updates",
    "timing.gates_retimed",
    "cec.conflicts",
    "cec.sweep_candidates",
    "cec.sweep_proven",
];

/// Current values of [`COUNTERS`] in this process's global registry.
pub fn counters_now() -> BTreeMap<&'static str, u64> {
    let registry = rapids_obs::global();
    COUNTERS.iter().map(|&name| (name, registry.counter(name).get())).collect()
}

/// `after − before` for every counter.
pub fn counter_delta(
    before: &BTreeMap<&'static str, u64>,
    after: &BTreeMap<&'static str, u64>,
) -> BTreeMap<&'static str, f64> {
    after.iter().map(|(&name, &v)| (name, v.saturating_sub(before[name]) as f64)).collect()
}

/// `numerator / denominator`, or `0.0` when nothing was attempted.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// The layer metrics both suite and serve workloads derive from spans.
/// `per` divides every time into one unit of work (a pass or a round).
pub fn span_metrics(spans: &SpanTimes, sat_net: bool, per: f64) -> Vec<(&'static str, f64)> {
    let net = spans.total("stage.safety_net") / per;
    vec![
        ("placement.place_s", spans.total("stage.place") / per),
        ("legalize.legalize_s", spans.total("stage.legalize") / per),
        ("timing.initial_sta_s", spans.total("stage.sta") / per),
        // Whole span: its children are the timing kernel's own sweeps.
        ("timing.full_s", spans.total("sta.full") / per),
        ("core.pass_s", spans.self_time("optimizer.pass") / per),
        (
            "sizing.pass_s",
            (spans.self_time("sizer.pass") + spans.self_time("optimizer.sizing_pass")) / per,
        ),
        ("sim.safety_net_s", if sat_net { 0.0 } else { net }),
        ("cec.safety_net_s", if sat_net { net } else { 0.0 }),
        ("cec.encode_s", spans.self_time("cec.encode") / per),
        ("cec.sweep_s", spans.self_time("cec.sweep") / per),
        ("cec.solve_s", spans.self_time("cec.solve") / per),
    ]
}

/// The layer metrics derived from registry counter deltas over `per`
/// units of work.
pub fn counter_metrics(delta: &BTreeMap<&'static str, f64>, per: f64) -> Vec<(&'static str, f64)> {
    vec![
        ("legalize.nudges", delta["legalize.nudges"] / per),
        ("core.passes", delta["optimizer.passes"] / per),
        ("core.rollbacks", delta["optimizer.rollbacks"] / per),
        (
            "core.swap_keep_ratio",
            1.0 - ratio(delta["optimizer.swaps_rolled_back"], delta["optimizer.swaps_applied"]),
        ),
        ("sizing.passes", delta["sizer.passes"] / per),
        ("cec.conflicts", delta["cec.conflicts"] / per),
        ("cec.sweep_proven_ratio", ratio(delta["cec.sweep_proven"], delta["cec.sweep_candidates"])),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, tid: u64, start_ns: u64, dur_ns: u64) -> Interval {
        Interval { name: name.into(), tid, start_ns, dur_ns }
    }

    #[test]
    fn self_time_subtracts_direct_children_per_thread() {
        let times = fold(vec![
            span("outer", 1, 0, 100),
            span("inner", 1, 10, 30),
            span("leaf", 1, 15, 5),
            span("inner", 1, 50, 20),
            // Another thread overlapping in time is not a child.
            span("other", 2, 20, 60),
        ]);
        assert!((times.self_time("outer") - 50e-9).abs() < 1e-15);
        assert!((times.self_time("inner") - 45e-9).abs() < 1e-15);
        assert!((times.total("inner") - 50e-9).abs() < 1e-15);
        assert!((times.self_time("other") - 60e-9).abs() < 1e-15);
    }

    #[test]
    fn jobs_without_a_run_beneath_are_cache_answered() {
        let times = fold(vec![
            span("serve.job", 1, 0, 1_000_000),
            span("serve.resolve", 1, 10, 100),
            span("serve.run", 1, 200, 900_000),
            span("stage.place", 1, 300, 1_000),
            span("serve.job", 1, 2_000_000, 30_000),
            span("serve.job", 2, 0, 50_000),
            span("serve.resolve", 2, 10, 40_000),
        ]);
        let mut hits = times.cache_answered_job_ms.clone();
        hits.sort_by(f64::total_cmp);
        assert_eq!(hits, vec![0.03, 0.05]);
    }
}
