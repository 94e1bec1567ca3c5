//! Closed-loop CaSync benchmark with one client.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload ring-onebit-proc --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The client thread issues the next `HiPress::sync()` job only after
//! the previous one returns. Gradients come from the seed alone. Every
//! timed job's flows are checked against a reference computed once,
//! outside timing. `--trace 0` prints the end-to-end metrics;
//! `--trace 1` runs the traced pass (benchmark-owned spans around
//! every job and layer-probe call, written to `.bench_out/`) and
//! prints the per-layer metrics. The last stdout line is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. The run
//! exits non-zero when a job returned wrong flows.

mod probes;
mod spans;
mod workload;

use hipress::casync::interp::FlowOutcome;
use hipress::prelude::{HiPress, RuntimeReport};
use hipress::tensor::Tensor;
use hipress::util::stats::quantile;
use spans::Recorder;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::Workload;

/// Worker processes inherit this marker from the process backend; a
/// worker must only ever run the `node` subcommand.
const SPAWN_GUARD_ENV: &str = "HIPRESS_SPAWNED_WORKER";

/// `setup_s` is the median of at least this many fixed-cost jobs...
const SETUP_JOBS: usize = 15;
/// ...run for at least this long, so that cheap set-ups get many samples.
const SETUP_BUDGET: Duration = Duration::from_secs(1);

/// Wall-clock cap on a closed loop, as a multiple of its budget: room
/// for a few failed jobs on top of the measured work.
const LOOP_CAP: f64 = 3.0;

/// Share of a traced run spent on jobs; the rest goes to layer probes.
const TRACED_JOB_SHARE: f64 = 0.7;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    corrupt_reference: bool,
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flags = parse_flags(&argv);
    if argv.first().map(String::as_str) == Some("node") {
        return node(&flags);
    }
    if std::env::var_os(SPAWN_GUARD_ENV).is_some() {
        eprintln!("spawned as a worker but not asked to run `node`; refusing to recurse");
        return ExitCode::from(2);
    }
    let args = match parse_args(&flags) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: hipress-benchmark --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                workload::all()
                    .iter()
                    .map(|w| w.name)
                    .collect::<Vec<_>>()
                    .join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `node --connect ADDR --rank R --nodes N`: one process-backend
/// worker, running this same build.
fn node(flags: &HashMap<String, String>) -> ExitCode {
    let parsed = (|| -> Result<(String, usize, usize), String> {
        let get = |k: &str| flags.get(k).ok_or(format!("node: --{k} is required"));
        let rank = get("rank")?.parse().map_err(|_| "node: bad --rank")?;
        let nodes = get("nodes")?.parse().map_err(|_| "node: bad --nodes")?;
        Ok((get("connect")?.clone(), rank, nodes))
    })();
    let result = parsed.and_then(|(connect, rank, nodes)| {
        hipress::runtime::node_main(&connect, rank, nodes).map_err(|e| e.to_string())
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("node: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse_flags(argv: &[String]) -> HashMap<String, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < argv.len() {
        if let Some(key) = argv[i].strip_prefix("--") {
            match argv.get(i + 1).filter(|v| !v.starts_with("--")) {
                Some(v) => {
                    flags.insert(key.to_string(), v.clone());
                    i += 1;
                }
                None => {
                    flags.insert(key.to_string(), String::new());
                }
            }
        }
        i += 1;
    }
    flags
}

fn parse_args(flags: &HashMap<String, String>) -> Result<Args, String> {
    let get = |k: &str| flags.get(k).ok_or(format!("--{k} is required"));
    let name = get("workload")?;
    let workload = workload::find(name).ok_or(format!("unknown workload {name:?}"))?;
    let seed = get("seed")?
        .parse()
        .map_err(|_| "--seed must be an integer")?;
    let seconds = get("seconds")?
        .parse()
        .ok()
        .filter(|&s| s >= 1)
        .ok_or("--seconds must be a positive integer")?;
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        corrupt_reference: flags.contains_key("corrupt-reference"),
    })
}

fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// How many samples lie strictly above the `q` quantile.
fn beyond(samples: &[f64], q: f64) -> usize {
    quantile(samples, q).map_or(0, |cut| samples.iter().filter(|&&s| s > cut).count())
}

/// One timed `sync()` call and what came back.
struct Job {
    secs: f64,
    report: Option<RuntimeReport>,
    digest: Option<u64>,
    consistent: bool,
    error: Option<String>,
}

fn run_job(job: &HiPress, grads: &[Vec<Tensor>]) -> Job {
    let t = Instant::now();
    let out = job.sync(grads);
    let secs = t.elapsed().as_secs_f64();
    match out {
        Ok(o) => Job {
            secs,
            consistent: o.replicas_consistent(),
            digest: Some(digest(&o.flows)),
            report: o.report,
            error: None,
        },
        Err(e) => Job {
            secs,
            report: None,
            digest: None,
            consistent: false,
            error: Some(e.to_string()),
        },
    }
}

/// FNV-1a over every flow's per-node values, bit for bit, in flow
/// order.
fn digest(flows: &[FlowOutcome]) -> u64 {
    let mut sorted: Vec<&FlowOutcome> = flows.iter().collect();
    sorted.sort_by_key(|f| f.flow);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u32| {
        h ^= u64::from(word);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for f in sorted {
        eat(f.flow);
        for node in &f.per_node {
            eat(node.len() as u32);
            node.iter().for_each(|v| eat(v.to_bits()));
        }
    }
    h
}

/// Where a run's jobs stand against the reference.
struct Verdict {
    attempted: usize,
    /// Jobs that returned an error.
    errored: usize,
    /// Jobs that returned, but with inconsistent replicas or flows
    /// that differ from the reference.
    wrong: usize,
}

impl Verdict {
    fn of(jobs: &[Job], reference: u64) -> Self {
        let errored = jobs.iter().filter(|j| j.error.is_some()).count();
        let good = jobs.iter().filter(|j| ok(j, reference)).count();
        Verdict {
            attempted: jobs.len(),
            errored,
            wrong: jobs.len() - errored - good,
        }
    }

    fn failed(&self) -> usize {
        self.errored + self.wrong
    }
}

fn ok(job: &Job, reference: u64) -> bool {
    job.error.is_none() && job.consistent && job.digest == Some(reference)
}

/// The reference digest: computed once, outside timing.
fn reference(args: &Args, grads: &[Vec<Tensor>]) -> Result<u64, String> {
    let mut out = args
        .workload
        .reference_job(args.seed)
        .sync(grads)
        .map_err(|e| format!("reference run failed: {e}"))?;
    if !out.replicas_consistent() {
        return Err("reference replicas disagree".into());
    }
    if args.corrupt_reference {
        // Self-check of the correctness gate: flip one bit of the
        // reference on every replica.
        for node in &mut out.flows[0].per_node {
            node[0] = f32::from_bits(node[0].to_bits() ^ 1);
        }
    }
    Ok(digest(&out.flows))
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Cumulative (steal, total) CPU ticks of the host, from `/proc/stat`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Issues jobs back to back until the jobs that returned have taken
/// `budget` (at least one job). Time lost to a job that errors — a
/// process job that hangs until its run timeout — is not counted, so
/// every run holds about the same amount of measured work and the
/// failures show in `ok_frac` instead; the wall clock caps the loop at
/// [`LOOP_CAP`] times the budget.
fn closed_loop(budget: Duration, mut next: impl FnMut(usize) -> Job) -> Vec<Job> {
    let cap = Instant::now() + budget.mul_f64(LOOP_CAP);
    let mut measured = 0.0;
    let mut jobs = Vec::new();
    while jobs.is_empty() || (measured < budget.as_secs_f64() && Instant::now() < cap) {
        let j = next(jobs.len());
        match &j.error {
            Some(e) => eprintln!("job {} failed after {:.3} s: {e}", jobs.len(), j.secs),
            None => measured += j.secs,
        }
        jobs.push(j);
    }
    jobs
}

/// Counts that must repeat exactly from job to job.
fn counts(r: &RuntimeReport) -> [u64; 4] {
    [
        r.bytes_wire,
        r.messages,
        r.fabric_frames,
        r.comp_batch_launches,
    ]
}

fn counts_repeat(jobs: &[Job]) -> bool {
    let mut reports = jobs.iter().filter_map(|j| j.report.as_ref());
    let first = reports.next().map(counts);
    reports.all(|r| Some(counts(r)) == first)
}

struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let w = &args.workload;
    let grads = w.gradients(args.seed);
    let job = w.job(args.seed);
    let mut meta = Meta::new(args);
    let ticks = cpu_ticks();

    // Caches fill and lazy set-up finishes before timing.
    let warm = run_job(&job, &grads);
    if let Some(e) = warm.error {
        eprintln!("warm-up job failed: {e}");
    }

    let (jobs, metrics) = if args.trace {
        traced_pass(args, &job, &grads, &mut meta)?
    } else {
        let setup = setup_seconds(args)?;
        let jobs = closed_loop(Duration::from_secs(args.seconds), |_| run_job(&job, &grads));
        let rss = peak_rss_mib()?;
        (
            jobs,
            vec![
                metric("setup_s", "s", setup),
                metric("peak_rss_mib", "MiB", rss),
            ],
        )
    };

    if let (Some((steal0, total0)), Some((steal1, total1))) = (ticks, cpu_ticks()) {
        // Host contention the measurement ran under.
        let share = (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64;
        meta.field("cpu_steal_share", share);
    }
    let reference = reference(args, &grads)?;
    let verdict = Verdict::of(&jobs, reference);
    let good: Vec<&Job> = jobs.iter().filter(|j| ok(j, reference)).collect();
    let iterations = f64::from(w.iterations);
    let samples: Vec<f64> = good.iter().map(|j| j.secs / iterations * 1e3).collect();
    meta.field("jobs", verdict.attempted);
    meta.field("errored_jobs", verdict.errored);
    meta.field("wrong_jobs", verdict.wrong);
    meta.field(
        "fail_frac",
        verdict.failed() as f64 / verdict.attempted as f64,
    );
    meta.field("iter_ms_samples", samples.len());
    meta.field("iter_ms_p90_samples_beyond", beyond(&samples, 0.9));
    meta.field("counts_repeat", counts_repeat(&jobs));

    let mut out = Vec::new();
    if !args.trace {
        let busy: f64 = good.iter().map(|j| j.secs).sum();
        let bytes = (w.grad_bytes() as f64) * iterations * good.len() as f64;
        let wire = good
            .first()
            .and_then(|j| j.report.as_ref())
            .map(|r| r.bytes_wire as f64 / iterations / f64::from(1 << 20));
        if let (Some(p50), Some(p90), Some(wire)) =
            (median(&samples), quantile(&samples, 0.9), wire)
        {
            out.push(metric("grad_gbps", "GB/s", bytes / busy / 1e9));
            out.push(metric("iter_ms_p50", "ms", p50));
            out.push(metric("iter_ms_p90", "ms", p90));
            out.push(metric("wire_mib_per_iter", "MiB", wire));
        } else {
            eprintln!("no job matched the reference; timing metrics are unavailable");
        }
        // Failed jobs move no timing metric; this one shows them.
        out.push(metric(
            "ok_frac",
            "ratio",
            good.len() as f64 / verdict.attempted as f64,
        ));
    }
    out.extend(metrics);

    let correct = verdict.wrong == 0;
    print_table(w, &out);
    println!("{}", meta.finish());
    println!(
        "{}",
        result_line(correct, verdict.attempted, verdict.failed(), &out)
    );
    Ok(correct)
}

/// Median call time of the workload's fixed-cost job.
fn setup_seconds(args: &Args) -> Result<f64, String> {
    let w = &args.workload;
    let grads = w.setup_gradients(args.seed);
    let job = w.setup_job(args.seed);
    let mut secs = Vec::new();
    let deadline = Instant::now() + SETUP_BUDGET;
    while secs.len() < SETUP_JOBS || Instant::now() < deadline {
        let j = run_job(&job, &grads);
        if let Some(e) = j.error {
            return Err(format!("set-up job failed: {e}"));
        }
        secs.push(j.secs);
    }
    Ok(median(&secs).expect("set-up jobs ran"))
}

/// The traced pass: jobs alternate between untraced and traced (a
/// span around the call, with its counts), then the layer probes run
/// under spans, which are written to `.bench_out/` at the end.
/// Returns the jobs and the per-layer metrics.
fn traced_pass(
    args: &Args,
    job: &HiPress,
    grads: &[Vec<Tensor>],
    meta: &mut Meta,
) -> Result<(Vec<Job>, Vec<Metric>), String> {
    let w = &args.workload;
    let total = Duration::from_secs(args.seconds);
    let mut rec = Recorder::new();
    let mut traced = Vec::new();
    let jobs = closed_loop(total.mul_f64(TRACED_JOB_SHARE), |n| {
        let on = n % 2 == 1;
        traced.push(on);
        if !on {
            return run_job(job, grads);
        }
        let id = rec.enter("runtime", "sync", Some(n as u64));
        let j = run_job(job, grads);
        // A failed job counts no iterations, so its time (a hang until
        // the run timeout) stays out of the runtime's time per iteration.
        let counts = j.report.as_ref().map_or(Vec::new(), |r| {
            vec![
                ("iterations", u64::from(w.iterations)),
                ("bytes_wire", r.bytes_wire),
                ("messages", r.messages),
                ("frames", r.fabric_frames),
                ("retransmits", r.fabric_retransmits),
            ]
        });
        rec.exit(id, counts);
        j
    });

    let budget = total.mul_f64(1.0 - TRACED_JOB_SHARE);
    let graph = w
        .strategy
        .build(&w.cluster(), &w.iteration_spec())
        .map_err(|e| e.to_string())?;
    let id = rec.enter("bench", "probe_compress", None);
    let codec = probes::compress(w, &graph, &grads[0], &mut rec, budget.mul_f64(0.4));
    rec.exit(id, Vec::new());
    let id = rec.enter("bench", "probe_fabric", None);
    let fabric = probes::fabric(&graph, &grads[0], &mut rec, budget.mul_f64(0.4));
    rec.exit(id, Vec::new());
    let id = rec.enter("bench", "probe_core", None);
    let core = probes::core(w, &mut rec, budget.mul_f64(0.2));
    rec.exit(id, Vec::new());

    let mut m = Vec::new();
    // Metrics of work this workload does not do: printed as 0.
    let mut not_applicable = Vec::new();
    match codec {
        Some(c) => {
            m.push(metric("compress.encode_gbps", "GB/s", c.encode_gbps));
            m.push(metric("compress.decode_gbps", "GB/s", c.decode_gbps));
            m.push(metric("compress.ratio", "x", c.ratio));
        }
        None => {
            // No codec: nothing to time, and the wire carries raw bytes.
            not_applicable
                .extend(["compress.encode_gbps", "compress.decode_gbps"].map(String::from));
            m.push(metric("compress.encode_gbps", "GB/s", 0.0));
            m.push(metric("compress.decode_gbps", "GB/s", 0.0));
            m.push(metric("compress.ratio", "x", 1.0));
        }
    }
    let fabric = fabric?;
    m.push(metric(
        "fabric.msg_encode_gbps",
        "GB/s",
        fabric.msg_encode_gbps,
    ));
    m.push(metric(
        "fabric.msg_decode_gbps",
        "GB/s",
        fabric.msg_decode_gbps,
    ));
    m.push(metric("fabric.link_gbps", "GB/s", fabric.link_gbps));
    m.push(metric(
        "fabric.link_rtt_us_p50",
        "us",
        fabric.link_rtt_us_p50,
    ));
    m.extend(report_metrics(w, &jobs)?);
    let core = core?;
    m.push(metric("core.graph_build_ms", "ms", core.graph_build_ms));
    m.push(metric("core.tasks", "count", core.tasks as f64));

    // Self time per unit of work in each layer's spans.
    for (layer, unit, per, ns_per_value, what) in [
        ("runtime", "iterations", "ms_per_iter", 1e6, "ms"),
        ("compress", "bytes", "ns_per_byte", 1.0, "ns/B"),
        ("fabric", "bytes", "ns_per_byte", 1.0, "ns/B"),
        ("core", "builds", "us_per_build", 1e3, "us"),
    ] {
        let name = format!("trace.self_{per}.{layer}");
        let value = match rec.self_ns_per(layer, unit) {
            Some(ns) => ns / ns_per_value,
            None => {
                not_applicable.push(name.clone());
                0.0
            }
        };
        m.push(metric(name, what, value));
    }
    // Throughput of traced against untraced jobs: the tracing overhead.
    let jobs_per_sec = |want: bool| {
        let secs: Vec<f64> = jobs
            .iter()
            .zip(&traced)
            .filter(|(j, &on)| on == want && j.error.is_none())
            .map(|(j, _)| j.secs)
            .collect();
        (!secs.is_empty()).then(|| secs.len() as f64 / secs.iter().sum::<f64>())
    };
    let overhead = match (jobs_per_sec(true), jobs_per_sec(false)) {
        (Some(on), Some(off)) => 1.0 - on / off,
        _ => {
            meta.field_str(
                "overhead_unmeasured",
                "no traced or no untraced job returned",
            );
            0.0
        }
    };
    m.push(metric("trace.overhead_share", "ratio", overhead));
    if !not_applicable.is_empty() {
        meta.field_str("not_applicable", &not_applicable.join(" "));
    }

    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{}-seed{}.jsonl", w.name, args.seed));
    std::fs::write(&path, rec.to_jsonl()).map_err(|e| format!("{}: {e}", path.display()))?;
    meta.field_str("spans_file", &path.display().to_string());
    Ok((jobs, m))
}

/// The `fabric` counters and `runtime` busy times of every job's
/// report, per iteration.
fn report_metrics(w: &Workload, jobs: &[Job]) -> Result<Vec<Metric>, String> {
    let mut r = RuntimeReport::default();
    let mut reports = 0u64;
    for one in jobs.iter().filter_map(|j| j.report.as_ref()) {
        r.absorb(one);
        r.wall_ns += one.wall_ns;
        r.nodes = one.nodes;
        reports += 1;
    }
    if reports == 0 {
        return Err("every job failed; no runtime report to read".into());
    }
    let iters = (reports * u64::from(w.iterations)) as f64;
    let per_iter = |n: u64| n as f64 / iters;
    let per_iter_ms = |ns: u64| per_iter(ns) / 1e6;
    // The channel fabric moves messages by value: nothing is framed.
    let payload_share = match r.fabric_bytes_framed {
        0 => 1.0,
        framed => r.fabric_bytes_payload as f64 / framed as f64,
    };
    let mut m = vec![
        metric(
            "fabric.retransmits_per_iter",
            "count",
            per_iter(r.fabric_retransmits),
        ),
        metric("fabric.frames_per_iter", "count", per_iter(r.fabric_frames)),
        metric("fabric.payload_share", "ratio", payload_share),
    ];
    for (name, stat) in [
        ("source", r.source),
        ("encode", r.encode),
        ("decode", r.decode),
        ("merge", r.merge),
        ("send", r.send),
        ("recv", r.recv),
        ("update", r.update),
    ] {
        m.push(metric(
            format!("runtime.{name}_ms"),
            "ms",
            per_iter_ms(stat.busy_ns),
        ));
    }
    let node_wall = r.nodes as f64 * r.wall_ns as f64;
    m.extend([
        metric(
            "runtime.barrier_wait_ms",
            "ms",
            per_iter_ms(r.barrier.busy_ns),
        ),
        metric(
            "runtime.idle_share",
            "ratio",
            1.0 - r.total_busy_ns() as f64 / node_wall,
        ),
        metric("runtime.messages_per_iter", "count", per_iter(r.messages)),
        metric(
            "runtime.batch_launches_per_iter",
            "count",
            per_iter(r.comp_batch_launches),
        ),
        metric("runtime.pipeline_overlap", "ratio", r.pipeline_overlap()),
    ]);
    Ok(m)
}

/// Run context printed beside the result.
struct Meta(String);

impl Meta {
    fn new(args: &Args) -> Self {
        let w = &args.workload;
        let nproc = std::thread::available_parallelism().map_or(0, usize::from);
        let mut m = Meta(String::from("{\"meta\":{"));
        m.field_str("workload", w.name);
        m.field_str("why", w.why);
        m.field("seed", args.seed);
        m.field("seconds", args.seconds);
        m.field("trace", u8::from(args.trace));
        m.field("nproc", nproc);
        m.field_str("git_rev", &git_rev());
        m.field("ranks", workload::RANKS);
        m.field_str("backend", w.backend_label());
        m.field_str("strategy", w.strategy.label());
        m.field_str("algorithm", &w.algorithm.label());
        m.field("partitions", w.partitions);
        m.field("tensors_per_rank", w.tensor_elems.len());
        m.field("bytes_per_rank", w.grad_bytes());
        m.field("iterations_per_job", w.iterations);
        m.field("window", w.window);
        m.field("setup_job_elems_per_tensor", workload::SETUP_ELEMS);
        m
    }

    fn field(&mut self, key: &str, value: impl std::fmt::Display) {
        let sep = if self.0.ends_with('{') { "" } else { "," };
        let _ = write!(self.0, "{sep}\"{key}\":{value}");
    }

    fn field_str(&mut self, key: &str, value: &str) {
        self.field(key, format_args!("\"{}\"", value.replace('"', "'")));
    }

    fn finish(mut self) -> String {
        self.0.push_str("}}");
        self.0
    }
}

/// The source revision, when the benchmark runs at the root of a git
/// checkout.
fn git_rev() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn print_table(w: &Workload, metrics: &[Metric]) {
    println!("workload {} — {}", w.name, w.why);
    for m in metrics {
        println!("  {:<34} {:>14.6} {}", m.name, m.value, m.unit);
    }
}

fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        assert!(m.value.is_finite(), "metric {} is not finite", m.name);
        let _ = write!(
            s,
            "{sep}\"{}\":{{\"value\":{:?},\"unit\":\"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    s
}
