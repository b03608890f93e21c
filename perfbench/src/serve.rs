//! `serve-mixed`: a cold `rapids-serve --listen` on 127.0.0.1, driven in a
//! closed loop by two client connections of this process.
//!
//! Every round submits the same mix: five new jobs that run the flow
//! (three suite designs by name, two written out as inline BLIF), then
//! seven resubmissions the result cache answers (an exact repeat of each
//! new job, and a copy of each BLIF job that differs only by a `#` comment
//! line).  The placement seeds are new in every round, so the first phase
//! always misses the cache.  After each round, with its clock stopped,
//! every reply is checked, and every computed reply is compared field for
//! field with a direct `Pipeline::compare_optimizers` run.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rapids_flow::circuits::benchmark;
use rapids_flow::netlist::blif;
use rapids_flow::{CircuitSource, FlowComparison, Pipeline, PipelineConfig};
use rapids_obs::json::Value;

use crate::layers;
use crate::stats::{mean, median, peak_rss_mib, quantile, SplitMix};
use crate::{Args, Outcome};

/// Client connections, one per core of the 2-core reference box.
const CONNECTIONS: usize = 2;
/// The new jobs of a round, longest first so the two connections finish
/// together: `(design, submitted as inline BLIF)`.
const NEW_JOBS: [(&str, bool); 5] =
    [("c7552", false), ("c7552", true), ("k2", false), ("k2", true), ("c1908", false)];
/// Set-ups a run repeats after its checks, besides the two before the
/// timed phase; `setup_s` is the median of all of them.
const LATE_SETUPS: usize = 7;
/// How long the server may take to report its address.
const START_TIMEOUT: Duration = Duration::from_secs(30);
/// How long any one reply may take before the run fails.
const REPLY_TIMEOUT: Duration = Duration::from_secs(120);
/// How long the server may take to exit after `shutdown`.
const EXIT_TIMEOUT: Duration = Duration::from_secs(30);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    /// A new (design, placement seed) pair: the server runs the flow.
    Miss,
    /// A byte-identical repeat, answered through the spec memo.
    Exact,
    /// An earlier BLIF job plus a comment line: parsed, mapped and
    /// fingerprinted before the cache answers.
    ContentEqual,
}

/// One design the job stream submits, generated apart from the server.
struct Design {
    name: &'static str,
    /// Inline BLIF text, for designs submitted that way.
    blif: Option<String>,
    /// Logic gates of the submitted design, counted here.
    gate_count: usize,
}

fn generate_inputs() -> Result<Vec<Design>, String> {
    NEW_JOBS
        .iter()
        .map(|&(name, as_blif)| {
            let network = benchmark(name).ok_or(format!("unknown design {name}"))?;
            Ok(Design {
                name,
                blif: as_blif.then(|| blif::write_string(&network)),
                gate_count: network.logic_gate_count(),
            })
        })
        .collect()
}

/// One submission of a round.
struct Job {
    line: String,
    kind: Kind,
    /// Index into the round's designs (and its new jobs).
    design: usize,
    placement_seed: u64,
}

/// The two phases of round `round`: the new jobs, then the resubmissions
/// in an order drawn from `seed`.
///
/// The placement seeds follow one fixed sequence, distinct for every
/// (round, design), so every run submits the same new jobs and its QoR
/// figures do not depend on `--seed`; the seed picks the resubmission
/// order and the comment lines.
fn plan_round(designs: &[Design], seed: u64, round: u64) -> (Vec<Job>, Vec<Job>) {
    let mut rng = SplitMix::new(seed ^ round.rotate_left(32));
    let spec = |design: &Design, seed: u64, comment: Option<u64>| match &design.blif {
        None => format!("{{\"suite\":\"{}\",\"seed\":{seed}}}", design.name),
        Some(text) => {
            let text = match comment {
                Some(tag) => format!("# resubmitted {tag:016x}\n{text}"),
                None => text.clone(),
            };
            format!("{{\"blif_text\":{},\"seed\":{seed}}}", json_string(&text))
        }
    };
    let mut fresh = Vec::new();
    let mut repeats = Vec::new();
    for (i, design) in designs.iter().enumerate() {
        let placement_seed = 10_000 + round * designs.len() as u64 + i as u64;
        let line = spec(design, placement_seed, None);
        repeats.push(Job { line: line.clone(), kind: Kind::Exact, design: i, placement_seed });
        if design.blif.is_some() {
            repeats.push(Job {
                line: spec(design, placement_seed, Some(rng.next_u64())),
                kind: Kind::ContentEqual,
                design: i,
                placement_seed,
            });
        }
        fresh.push(Job { line, kind: Kind::Miss, design: i, placement_seed });
    }
    rng.shuffle(&mut repeats);
    (fresh, repeats)
}

fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A running `rapids-serve --listen`; dropping it kills and reaps the
/// process (if `shutdown` did not) and removes its store directory.
struct Server {
    child: Child,
    addr: SocketAddr,
    store: PathBuf,
    stderr_drain: Option<JoinHandle<()>>,
}

impl Server {
    fn start(bin: &Path, store: &Path, trace_out: Option<&Path>) -> Result<Server, String> {
        let _ = std::fs::remove_dir_all(store);
        let mut command = Command::new(bin);
        command.args(["--listen", "127.0.0.1:0", "--store"]).arg(store);
        if let Some(path) = trace_out {
            command.arg("--trace-out").arg(path);
        }
        let mut child = command
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        // Reads the server's log: the bound address goes to the channel,
        // anything else is passed on to this process's stderr.
        let stderr_drain = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                match line.strip_prefix("listening on ") {
                    Some(rest) => {
                        let _ = tx.send(rest.split_whitespace().next().unwrap_or("").to_string());
                    }
                    None if line.starts_with("served ") => {}
                    None => eprintln!("rapids-serve: {line}"),
                }
            }
        });
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            store: store.to_path_buf(),
            stderr_drain: Some(stderr_drain),
        };
        let addr = match rx.recv_timeout(START_TIMEOUT) {
            Ok(addr) => addr,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                return Err(format!(
                    "rapids-serve did not report a listening address within {} s",
                    START_TIMEOUT.as_secs()
                ))
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                let status = server.child.wait().map(|s| s.to_string()).unwrap_or_default();
                return Err(format!("rapids-serve exited before listening ({status})"));
            }
        };
        server.addr = addr.parse().map_err(|e| format!("bad listening address `{addr}`: {e}"))?;
        Ok(server)
    }

    /// Sends `shutdown` and waits for the process to exit.
    fn shutdown(&mut self) -> Result<(), String> {
        let reply = Conn::open(self.addr)?.ask("{\"cmd\":\"shutdown\"}")?;
        if reply != "{\"ok\":\"shutdown\"}" {
            return Err(format!("unexpected shutdown reply {reply}"));
        }
        let deadline = Instant::now() + EXIT_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("rapids-serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("rapids-serve did not exit after shutdown".into()),
                Err(e) => return Err(format!("cannot wait for rapids-serve: {e}")),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(drain) = self.stderr_drain.take() {
            let _ = drain.join();
        }
        let _ = std::fs::remove_dir_all(&self.store);
    }
}

/// One client connection: `TCP_NODELAY` set, each request one write.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))
            .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| format!("TCP_NODELAY: {e}"))?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT)).map_err(|e| format!("read timeout: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Conn { stream, reader })
    }

    fn ask(&mut self, line: &str) -> Result<String, String> {
        let mut request = Vec::with_capacity(line.len() + 1);
        request.extend_from_slice(line.as_bytes());
        request.push(b'\n');
        self.stream.write_all(&request).map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(reply.trim_end_matches('\n').to_string()),
            Err(e) => Err(format!("no reply: {e}")),
        }
    }
}

/// One answered job.
struct Answer {
    kind: Kind,
    design: usize,
    placement_seed: u64,
    latency_ms: f64,
    reply: String,
}

/// Runs `jobs` over the connections in a closed loop: each connection
/// sends its next job only after the previous reply arrived.
fn run_phase(conns: &mut [Conn], jobs: &[Job]) -> Result<Vec<Answer>, String> {
    let next = AtomicUsize::new(0);
    let mut answers = std::thread::scope(|scope| {
        let workers: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                let next = &next;
                scope.spawn(move || -> Result<Vec<(usize, Answer)>, String> {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(i) else { return Ok(out) };
                        let start = Instant::now();
                        let reply = conn.ask(&job.line)?;
                        let latency_ms = start.elapsed().as_secs_f64() * 1e3;
                        out.push((
                            i,
                            Answer {
                                kind: job.kind,
                                design: job.design,
                                placement_seed: job.placement_seed,
                                latency_ms,
                                reply,
                            },
                        ));
                    }
                })
            })
            .collect();
        let mut all = Vec::new();
        for worker in workers {
            all.extend(worker.join().expect("client thread panicked")?);
        }
        Ok::<_, String>(all)
    })?;
    answers.sort_by_key(|(i, _)| *i);
    Ok(answers.into_iter().map(|(_, a)| a).collect())
}

/// A server plus its two connected, pinged clients.
fn set_up(bin: &Path, store: &Path, trace: Option<&Path>) -> Result<(Server, Vec<Conn>), String> {
    let server = Server::start(bin, store, trace)?;
    let mut conns = Vec::new();
    for _ in 0..CONNECTIONS {
        let mut conn = Conn::open(server.addr)?;
        let pong = conn.ask("{\"cmd\":\"ping\"}")?;
        if pong != "{\"ok\":\"pong\"}" {
            return Err(format!("unexpected ping reply {pong}"));
        }
        conns.push(conn);
    }
    Ok((server, conns))
}

fn num(value: &Value, key: &str) -> Result<f64, String> {
    value.get(key).and_then(Value::as_num).ok_or(format!("reply has no number `{key}`"))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let bin = args.serve_bin.as_deref().ok_or("serve-mixed needs --serve-bin")?;
    std::fs::create_dir_all(&args.scratch)
        .map_err(|e| format!("cannot create {}: {e}", args.scratch.display()))?;
    let pid = std::process::id();
    let trace_path = args.scratch.join(format!("serve-trace-{pid}.json"));
    let _ = std::fs::remove_file(&trace_path);

    // Set-up: generate the inputs, start a cold server and connect the
    // clients.  It is repeated so that its median covers the whole run:
    // once timed from process start, once for the server the workload
    // drives, and `LATE_SETUPS` times after the timed phase.
    let set_up_inputs = |repeat: usize, trace: Option<&Path>| {
        let designs = generate_inputs()?;
        let store = args.scratch.join(format!("serve-store-{pid}-{repeat}"));
        let (server, conns) = set_up(bin, &store, trace)?;
        Ok::<_, String>((server, conns, designs))
    };
    let (mut server, conns, _) = set_up_inputs(0, None)?;
    let mut setup_s = vec![args.started.elapsed().as_secs_f64()];
    drop(conns);
    server.shutdown()?;
    drop(server);
    let from = Instant::now();
    let (server, conns, designs) = set_up_inputs(1, args.trace.then_some(&*trace_path))?;
    setup_s.push(from.elapsed().as_secs_f64());

    let served = drive(args, server, conns, &designs)?;
    let mut problems = served.checks.problems.clone();
    problems.extend(check_stats(&served));
    for problem in &problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    for repeat in 2..2 + LATE_SETUPS {
        let from = Instant::now();
        let (mut server, conns, _) = set_up_inputs(repeat, None)?;
        setup_s.push(from.elapsed().as_secs_f64());
        drop(conns);
        server.shutdown()?;
    }

    let metrics = if args.trace {
        let text = std::fs::read_to_string(&trace_path)
            .map_err(|e| format!("cannot read {}: {e}", trace_path.display()))?;
        let _ = std::fs::remove_file(&trace_path);
        layer_metrics(&served, &layers::fold(layers::read_chrome_trace(&text)?))?
    } else {
        end_to_end_metrics(&served, median(&setup_s))
    };
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted: served.answers.len() as u64,
        failed: served.checks.failed,
        metrics,
    })
}

/// What the timed phase left: every answer, each round's wall time and
/// server job time, the checks' findings, and the server's own figures
/// read before it was stopped.
struct Served {
    answers: Vec<Answer>,
    round_wall_s: Vec<f64>,
    /// Per round, the summed time the server's engine spent on its jobs
    /// (the `sum` of its `serve.job_us` histogram).
    round_engine_s: Vec<f64>,
    checks: Checks,
    stats: Value,
    /// The server's registry counters (read on traced runs only).
    counters: BTreeMap<&'static str, f64>,
    server_rss_mib: f64,
}

impl Served {
    fn latencies_ms(&self, keep: impl Fn(Kind) -> bool) -> Vec<f64> {
        self.answers.iter().filter(|a| keep(a.kind)).map(|a| a.latency_ms).collect()
    }
}

/// The timed phase: whole rounds until `--seconds` of closed-loop time,
/// then the server's figures and its shutdown.  After each round, with
/// the round clock stopped, its replies are checked and the server's job
/// time is read.
fn drive(
    args: &Args,
    mut server: Server,
    mut conns: Vec<Conn>,
    designs: &[Design],
) -> Result<Served, String> {
    let mut answers: Vec<Answer> = Vec::new();
    let mut round_wall_s = Vec::new();
    let mut round_engine_s = Vec::new();
    let mut checks = Checks { direct_s: vec![Vec::new(); designs.len()], ..Checks::default() };
    let mut engine_s = 0.0;
    while round_wall_s.iter().sum::<f64>() < args.seconds {
        let round = round_wall_s.len();
        let (fresh, repeats) = plan_round(designs, args.seed, round as u64);
        let start = Instant::now();
        let mut answered = run_phase(&mut conns, &fresh)?;
        answered.extend(run_phase(&mut conns, &repeats)?);
        round_wall_s.push(start.elapsed().as_secs_f64());
        let total_s = job_time_s(&mut conns[0])?;
        round_engine_s.push(total_s - engine_s);
        engine_s = total_s;
        check_round(&answered, designs, &mut checks);
        answers.extend(answered);
    }
    let stats = rapids_obs::json::parse(&conns[0].ask("{\"cmd\":\"stats\"}")?)?;
    let counters = if args.trace {
        let metrics = rapids_obs::json::parse(&conns[0].ask("{\"cmd\":\"metrics\"}")?)?;
        layers::COUNTERS
            .iter()
            .map(|&name| {
                let value = metrics.get("counters").and_then(|c| c.get(name));
                (name, value.and_then(Value::as_num).unwrap_or(0.0))
            })
            .collect()
    } else {
        BTreeMap::new()
    };
    let server_rss_mib = peak_rss_mib(&server.child.id().to_string())?;
    drop(conns);
    server.shutdown()?;
    Ok(Served { answers, round_wall_s, round_engine_s, checks, stats, counters, server_rss_mib })
}

/// The server's summed job time so far, seconds, from its `metrics` verb.
fn job_time_s(conn: &mut Conn) -> Result<f64, String> {
    let metrics = rapids_obs::json::parse(&conn.ask("{\"cmd\":\"metrics\"}")?)?;
    metrics
        .get("histograms")
        .and_then(|h| h.get("serve.job_us"))
        .and_then(|h| h.get("sum"))
        .and_then(Value::as_num)
        .map(|us| us / 1e6)
        .ok_or_else(|| "metrics reply has no serve.job_us sum".into())
}

/// What the reply checks found, plus the figures the metrics take from
/// the checked replies.
#[derive(Default)]
struct Checks {
    /// Answers that failed a check.
    failed: u64,
    problems: Vec<String>,
    /// Each computed reply's critical-delay improvement, percent: `gsg`,
    /// `GS`, `gsg+GS`.
    gains: Vec<[f64; 3]>,
    /// Per design, each direct run's `cpu_seconds` per optimizer kind.
    direct_s: Vec<Vec<[f64; 3]>>,
}

/// Checks every reply of one round; the new jobs come first.
fn check_round(answers: &[Answer], designs: &[Design], checks: &mut Checks) {
    let mut first_reply: BTreeMap<usize, &str> = BTreeMap::new();
    for answer in answers {
        let design = &designs[answer.design];
        if let Err(problem) = check_answer(answer, design, &mut first_reply, checks) {
            checks.failed += 1;
            checks.problems.push(format!("{} {:?}: {problem}", design.name, answer.kind));
        }
    }
}

/// Checks one reply: `done`, the gate count, and either byte-identity
/// with the round's first reply for the job (a resubmission) or equality,
/// field for field, with a direct `Pipeline::compare_optimizers` run with
/// the same seed (a computed reply).
fn check_answer<'a>(
    answer: &'a Answer,
    design: &Design,
    first_reply: &mut BTreeMap<usize, &'a str>,
    checks: &mut Checks,
) -> Result<(), String> {
    let reply = rapids_obs::json::parse(&answer.reply)?;
    if reply.get("status").and_then(Value::as_str) != Some("done") {
        return Err(format!("job not done: {}", answer.reply));
    }
    if num(&reply, "gate_count")? != design.gate_count as f64 {
        return Err(format!(
            "reply {} does not give the submitted design's {} logic gates",
            answer.reply, design.gate_count
        ));
    }
    if answer.kind != Kind::Miss {
        if first_reply.get(&answer.design) != Some(&answer.reply.as_str()) {
            return Err(format!("resubmission differs from the first reply: {}", answer.reply));
        }
        return Ok(());
    }
    first_reply.insert(answer.design, &answer.reply);
    let config = PipelineConfig { seed: answer.placement_seed, ..PipelineConfig::default() };
    let source = match &design.blif {
        Some(text) => CircuitSource::Blif { text: text.clone(), max_fanin: config.map_max_fanin },
        None => CircuitSource::suite(design.name),
    };
    let direct = Pipeline::new(config)
        .compare_optimizers(source)
        .map_err(|e| format!("direct flow failed: {e}"))?;
    matches_direct(&reply, &direct)
        .map_err(|field| format!("reply field {field} differs from the direct flow"))?;
    let initial = num(&reply, "initial_delay_ns")?;
    let mut gains = [0.0; 3];
    for (gain, key) in
        gains.iter_mut().zip(["gsg_final_delay_ns", "gs_final_delay_ns", "combined_final_delay_ns"])
    {
        *gain = 100.0 * (initial - num(&reply, key)?) / initial;
    }
    checks.gains.push(gains);
    checks.direct_s[answer.design].push([
        direct.rewiring.outcome.cpu_seconds,
        direct.sizing.outcome.cpu_seconds,
        direct.combined.outcome.cpu_seconds,
    ]);
    Ok(())
}

/// The server's `stats` must show one flow run per new job and one cache
/// hit per resubmission.
fn check_stats(served: &Served) -> Option<String> {
    let misses = served.answers.iter().filter(|a| a.kind == Kind::Miss).count();
    let hits = served.answers.len() - misses;
    let runs = num(&served.stats, "optimizer_runs").unwrap_or(f64::NAN);
    let cache_hits = num(&served.stats, "cache_hits").unwrap_or(f64::NAN);
    (runs != misses as f64 || cache_hits != hits as f64).then(|| {
        format!(
            "server ran the flow {runs} times and answered {cache_hits} from the cache; \
             the stream had {misses} new jobs and {hits} resubmissions"
        )
    })
}

fn end_to_end_metrics(served: &Served, setup_s: f64) -> BTreeMap<&'static str, f64> {
    let checks = &served.checks;
    let gain = |slot: usize| mean(&checks.gains.iter().map(|g| g[slot]).collect::<Vec<_>>());
    // A round's optimizer time: the sum over its new jobs of each job's
    // median over rounds, so a slow spell of the machine during one job
    // does not move it.
    let kind_s = |slot: usize| -> f64 {
        checks
            .direct_s
            .iter()
            .map(|runs| median(&runs.iter().map(|t| t[slot]).collect::<Vec<_>>()))
            .sum()
    };
    let jobs_per_round = served.answers.len() as f64 / served.round_wall_s.len() as f64;
    BTreeMap::from([
        ("setup_s", setup_s),
        ("flow_s", median(&served.round_engine_s)),
        ("gsg_s", kind_s(0)),
        ("gs_s", kind_s(1)),
        ("combined_s", kind_s(2)),
        ("gsg_gain_pct", gain(0)),
        ("gs_gain_pct", gain(1)),
        ("combined_gain_pct", gain(2)),
        ("serve_jobs_per_s", jobs_per_round / median(&served.round_wall_s)),
        ("serve_miss_p50_ms", median(&served.latencies_ms(|k| k == Kind::Miss))),
        ("serve_hit_p50_ms", median(&served.latencies_ms(|k| k != Kind::Miss))),
        ("serve_p90_ms", quantile(&served.latencies_ms(|_| true), 0.9)),
        ("peak_rss_mib", served.server_rss_mib),
    ])
}

fn layer_metrics(
    served: &Served,
    spans: &layers::SpanTimes,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let per = served.round_wall_s.len() as f64;
    let counters = &served.counters;
    let cache_hits = num(&served.stats, "cache_hits")?;
    let engine_hit_p50_ms = median(&spans.cache_answered_job_ms);
    let hit_p50_ms = median(&served.latencies_ms(|k| k != Kind::Miss));
    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::from([
        ("circuits.generate_s", 0.0),
        ("legalize.nudge_fallbacks", counters["legalize.nudge_fallbacks"] / per),
        ("timing.full_refreshes", counters["timing.full_refreshes"] / per),
        ("timing.incremental_updates", counters["timing.incremental_updates"] / per),
        ("timing.gates_retimed", counters["timing.gates_retimed"] / per),
        ("core.swaps", counters["optimizer.swaps_applied"] / per),
        ("core.es_swaps", counters["optimizer.es_swaps"] / per),
        ("sizing.gates_resized", counters["sizer.gates_resized"] / per),
        ("flow.prepare_s", 0.0),
        ("serve.resolve_s", spans.self_time("serve.resolve") / per),
        ("serve.run_s", spans.self_time("serve.run") / per),
        ("serve.store_s", spans.self_time("serve.store") / per),
        ("serve.engine_hit_p50_ms", engine_hit_p50_ms),
        ("serve.net_overhead_ms", hit_p50_ms - engine_hit_p50_ms),
        ("serve.optimizer_runs", num(&served.stats, "optimizer_runs")? / per),
        ("serve.cache_hits", cache_hits / per),
        ("serve.hit_ratio", cache_hits / served.answers.len() as f64),
        // Tracing is priced on the suite workloads, where one process can
        // run traced and untraced passes side by side.
        ("obs.trace_overhead_pct", 0.0),
    ]);
    metrics.extend(layers::span_metrics(spans, false, per));
    metrics.extend(layers::counter_metrics(counters, per));
    Ok(metrics)
}

/// Compares a computed reply with a direct flow run, field for field;
/// `Err` names the first field that differs.
fn matches_direct(reply: &Value, direct: &FlowComparison) -> Result<(), String> {
    let (gsg, gs, both) =
        (&direct.rewiring.outcome, &direct.sizing.outcome, &direct.combined.outcome);
    let expected: [(&str, f64); 13] = [
        ("gate_count", direct.gate_count as f64),
        ("initial_delay_ns", direct.initial_delay_ns),
        ("gsg_final_delay_ns", gsg.final_delay_ns),
        ("gs_final_delay_ns", gs.final_delay_ns),
        ("combined_final_delay_ns", both.final_delay_ns),
        ("gs_final_area_um2", gs.final_area_um2),
        ("combined_final_area_um2", both.final_area_um2),
        ("gsg_swaps", gsg.swaps_applied as f64),
        ("gsg_es_swaps", gsg.inverting_swaps_applied as f64),
        ("combined_es_swaps", both.inverting_swaps_applied as f64),
        ("gs_resized", gs.gates_resized as f64),
        ("hpwl_um", gsg.initial_hpwl_um),
        ("max_displacement_um", 0.0),
    ];
    for (key, want) in expected {
        if reply.get(key).and_then(Value::as_num) != Some(want) {
            return Err(key.to_string());
        }
    }
    if reply.get("name").and_then(Value::as_str) != Some(direct.name.as_str()) {
        return Err("name".into());
    }
    if reply.get("legalized") != Some(&Value::Bool(direct.legalization.is_some())) {
        return Err("legalized".into());
    }
    Ok(())
}
