//! The relviz benchmark: three closed-loop workloads driven through the
//! library's public API from one client thread, with every answer
//! checked. See README.md for the workloads, the metrics and the
//! layer → end-to-end map.

pub mod check;
pub mod context;
pub mod rng;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod viz;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use check::{guarded, Tally};
use stats::Sample;
use trace::Tracer;

/// How many set-ups an untraced run times, each in a fresh process as a
/// server start is, spread evenly through the timed loop so that they
/// sample the machine's speed across the run as the requests do.
/// `setup_s` is their median.
pub const SETUP_REPEATS: usize = 24;

/// Requests after each set-up that are sent and checked but not timed:
/// the set-up process has just evicted the caches, and the first of them
/// measured about 1.5 times its class's median, the next few 5-15% above.
pub const SETTLE_REQUESTS: u32 = 4;

/// One workload. Its inputs are made from the seed untimed: generating
/// data is the benchmark's work, not the system's. Its set-up is
/// [`Workload::new`] (catalog load and the like) plus
/// [`Workload::warm_up`], timed together.
pub trait Workload: Sized {
    type Inputs;
    type Answer;

    /// Makes the inputs from `seed`.
    fn inputs(seed: u64) -> Self::Inputs;
    /// Sets the system up on `inputs`; `traced` also builds what the
    /// traced request path needs.
    fn new(inputs: Self::Inputs, traced: bool) -> Result<Self, String>;
    /// Sends every request class once, so caches fill before timing.
    fn warm_up(&mut self) -> Result<(), String>;
    /// Request class names, indexed by [`Workload::class_of`].
    fn classes(&self) -> Vec<String>;
    /// The class of the `i`-th request of the closed loop.
    fn class_of(&self, i: u64) -> usize;
    /// The tail percentile this workload reports as `tail_ms`.
    fn tail_percentile(&self) -> f64;
    /// Data sizes, for the run context.
    fn sizes(&self) -> Vec<(&'static str, usize)>;
    /// Request `i` through the public API — the timed part.
    fn run(&mut self, i: u64) -> Result<Self::Answer, String>;
    /// Request `i` through the same layers called one by one, with a
    /// span around each call.
    fn run_traced(&mut self, i: u64, tr: &mut Tracer) -> Result<Self::Answer, String>;
    /// Checks request `i`'s answer, untimed.
    fn check(&mut self, i: u64, answer: Self::Answer) -> Result<(), String>;
    /// Checks against the reference evaluators at a small size; one
    /// reason per wrong answer.
    fn reference_check(seed: u64) -> Vec<String>;
    /// Compares the recorded answers with the oracle after the timed
    /// region; one reason per wrong answer.
    fn verify(&mut self) -> Vec<String>;
    /// Per-layer counts only the workload knows (trace runs).
    fn layer_counts(&mut self) -> BTreeMap<&'static str, f64> {
        BTreeMap::new()
    }
    /// The class of write requests, for `serve.write_ms`.
    fn write_class(&self) -> Option<usize> {
        None
    }
}

/// The command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Only time one set-up and print it: what [`child_setup`] runs.
    pub setup_child: bool,
}

/// What one run prints last.
pub struct Report {
    pub tally: Tally,
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.correct(),
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with all its digits.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The repository root the benchmark was built from.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// Runs one workload for `args.seconds` and returns the line to print
/// last: its report, or with `args.setup_child` one set-up's time.
pub fn run<W: Workload>(name: &str, args: &Args) -> Result<String, String> {
    if args.setup_child {
        let (seconds, _) = timed_setup::<W>(args)?;
        return Ok(format!("{{\"setup_s\": {seconds}}}"));
    }
    let mut tally = Tally::default();
    for why in W::reference_check(args.seed) {
        tally.fail(format!("reference check: {why}"));
    }

    let (_, mut w) = timed_setup::<W>(args)?;
    let classes = w.classes();
    print_context(name, args, &w);

    let budget = Duration::from_secs(args.seconds);
    let setup_every = budget / SETUP_REPEATS as u32;
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut samples: Vec<Sample> = Vec::new();
    let mut tracer = Tracer::default();
    let start = Instant::now();
    // The loop's clock stops while a set-up runs.
    let mut paused = Duration::ZERO;
    let mut settle = 0;
    let mut i = 0u64;
    loop {
        let busy = start.elapsed() - paused;
        if busy >= budget {
            break;
        }
        if !args.trace && setups.len() < SETUP_REPEATS && busy >= setup_every * setups.len() as u32
        {
            let t0 = Instant::now();
            setups.push(child_setup(name, args)?);
            paused += t0.elapsed();
            settle = SETTLE_REQUESTS;
            continue;
        }
        // A traced run sends each request both ways, alternating which
        // goes first so neither always finds the other's warm caches.
        let traced_first = args.trace && i % 2 == 1;
        if traced_first {
            let answer = guarded(|| w.run_traced(i, &mut tracer));
            tally.record(answer.and_then(|a| guarded(|| w.check(i, a))));
        }
        let class = w.class_of(i);
        let t0 = Instant::now();
        let answer = guarded(|| w.run(i));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if settle > 0 {
            settle -= 1;
        } else {
            samples.push(Sample { class, ms });
        }
        tally.record(answer.and_then(|a| guarded(|| w.check(i, a))));
        if args.trace && !traced_first {
            let answer = guarded(|| w.run_traced(i, &mut tracer));
            tally.record(answer.and_then(|a| guarded(|| w.check(i, a))));
        }
        i += 1;
    }
    let peak_rss = context::peak_rss_mb()?;
    for why in guarded(|| Ok(w.verify())).unwrap_or_else(|e| vec![e]) {
        tally.fail(why);
    }
    let tail_p = w.tail_percentile();
    print_classes(name, &classes, &samples, tail_p);
    let layers = if args.trace {
        Some(layer_metrics(name, &mut w, &tracer, &samples)?)
    } else {
        None
    };
    drop(w);
    if !args.trace {
        // Requests slower than a set-up slot can end the loop early.
        while setups.len() < SETUP_REPEATS {
            setups.push(child_setup(name, args)?);
        }
        println!("{{\"setups_s\": {setups:?}}}");
    }
    for why in &tally.reasons {
        eprintln!("perfbench: failed: {why}");
    }
    let metrics = match layers {
        Some(layers) => layers,
        None => end_to_end(tail_p, &setups, &samples, peak_rss)?,
    };
    Ok(Report { tally, metrics }.json())
}

fn print_context<W: Workload>(name: &str, args: &Args, w: &W) {
    let root = repo_root();
    let sizes: Vec<String> = w
        .sizes()
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!(
        "{{\"context\": {{\"workload\": \"{name}\", \"seed\": {}, \"seconds\": {}, \
         \"trace\": {}, \"nproc\": {}, \"commit\": \"{}\", \"source_digest\": \"{}\", \
         \"tail_percentile\": {}, \"setup_repeats\": {}, \"sizes\": {{{}}}}}}}",
        args.seed,
        args.seconds,
        args.trace,
        context::nproc(),
        context::commit(&root),
        context::source_digest(&root),
        w.tail_percentile(),
        if args.trace { 0 } else { SETUP_REPEATS },
        sizes.join(", ")
    );
}

/// One line per request class with its p50, then where the workload's
/// p50 and tail ranks landed among the classes.
fn print_classes(name: &str, classes: &[String], samples: &[Sample], tail_p: f64) {
    for (c, class) in classes.iter().enumerate() {
        let ms: Vec<f64> = samples
            .iter()
            .filter(|s| s.class == c)
            .map(|s| s.ms)
            .collect();
        if let Some(p50) = stats::median(&ms) {
            println!(
                "{{\"class\": \"{name}.{class}.p50_ms\", \"value\": {p50}, \"n\": {}}}",
                ms.len()
            );
        }
    }
    if samples.is_empty() {
        return;
    }
    let tail = stats::tail_percentile(samples.len(), tail_p).unwrap_or(stats::TAIL_LADDER[6]);
    for (label, p) in [("p50", 50.0), ("tail", tail)] {
        let site = stats::rank_site(samples, p);
        println!(
            "{{\"rank_site\": \"{name}.{label}\", \"percentile\": {p}, \"class\": \"{}\", \
             \"same_class_share\": {:.3}, \"window_spread\": {:.4}}}",
            classes[site.class], site.same_class_share, site.window_spread
        );
    }
}

/// Makes the inputs from the seed, untimed, then times one set-up:
/// [`Workload::new`] plus [`Workload::warm_up`].
fn timed_setup<W: Workload>(args: &Args) -> Result<(f64, W), String> {
    let inputs = W::inputs(args.seed);
    let t0 = Instant::now();
    let mut w = W::new(inputs, args.trace)?;
    w.warm_up()?;
    Ok((t0.elapsed().as_secs_f64(), w))
}

/// Times one set-up in a fresh process: this program again, with
/// `--setup-child 1`. Waits for it to end.
fn child_setup(name: &str, args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", name, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string(), "--trace", "0"])
        .args(["--setup-child", "1"])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("set-up process: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let value = text
        .trim()
        .strip_prefix("{\"setup_s\": ")
        .and_then(|v| v.strip_suffix('}'))
        .and_then(|v| v.parse::<f64>().ok());
    match value {
        Some(v) if out.status.success() => Ok(v),
        _ => Err(format!("set-up process failed ({}): {text}", out.status)),
    }
}

fn end_to_end(
    tail_percentile: f64,
    setups: &[f64],
    samples: &[Sample],
    peak_rss: f64,
) -> Result<Vec<(String, f64, &'static str)>, String> {
    let mut ms: Vec<f64> = samples.iter().map(|s| s.ms).collect();
    ms.sort_by(f64::total_cmp);
    let tail_p = stats::tail_percentile(ms.len(), tail_percentile)
        .ok_or_else(|| format!("only {} requests: too few for a tail percentile", ms.len()))?;
    let busy_s: f64 = ms.iter().sum::<f64>() / 1e3;
    Ok(vec![
        (
            "setup_s".into(),
            stats::median(setups).expect("set-ups ran"),
            "s",
        ),
        ("req_per_s".into(), ms.len() as f64 / busy_s, "1/s"),
        ("p50_ms".into(), stats::percentile(&ms, 50.0), "ms"),
        ("tail_ms".into(), stats::percentile(&ms, tail_p), "ms"),
        ("peak_rss_mb".into(), peak_rss, "MiB"),
    ])
}

/// Every per-layer metric, in the order `BENCHMARK.json` lists them,
/// with its unit. Span self times are reported as mean milliseconds per
/// traced request; layers a workload never calls read 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("exec.materialize_ms", "ms"),
    ("exec.materialized_rows", "count"),
    ("opt.stats_ms", "ms"),
    ("exec.execute_ms", "ms"),
    ("exec.operators_ms", "ms"),
    ("exec.fixpoint_ms", "ms"),
    ("exec.parallel_ms", "ms"),
    ("exec.parallel_speedup", "ratio"),
    ("exec.plan_ms", "ms"),
    ("opt.magic_ms", "ms"),
    ("opt.max_q_error", "ratio"),
    ("serve.wire_parse_ms", "ms"),
    ("serve.catalog_get_ms", "ms"),
    ("serve.cache_get_ms", "ms"),
    ("serve.cache_put_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.frame_ms", "ms"),
    ("serve.catalog_insert_ms", "ms"),
    ("serve.cache_purge_ms", "ms"),
    ("serve.cache_purged", "count"),
    ("serve.write_ms", "ms"),
    ("model.parse_ms", "ms"),
    ("rc.from_sql_ms", "ms"),
    ("rc.trc_parse_ms", "ms"),
    ("rc.to_ra_ms", "ms"),
    ("rc.to_drc_ms", "ms"),
    ("rc.print_ms", "ms"),
    ("ra.rewrite_ms", "ms"),
    ("datalog.parse_ms", "ms"),
    ("datalog.translate_ms", "ms"),
    ("sql.parse_ms", "ms"),
    ("sql.print_ms", "ms"),
    ("core.visualize_ms", "ms"),
    ("diagrams.build_ms", "ms"),
    ("diagrams.build.queryvis_ms", "ms"),
    ("diagrams.build.reldiag_ms", "ms"),
    ("diagrams.build.dfql_ms", "ms"),
    ("diagrams.build.qbe_ms", "ms"),
    ("diagrams.build.strings_ms", "ms"),
    ("diagrams.build.visualsql_ms", "ms"),
    ("diagrams.build.sqlvis_ms", "ms"),
    ("diagrams.build.tabletalk_ms", "ms"),
    ("diagrams.build.dataplay_ms", "ms"),
    ("diagrams.build.sieuferd_ms", "ms"),
    ("diagrams.build.qbd_ms", "ms"),
    ("diagrams.rejected", "count"),
    ("render.svg_ms", "ms"),
    ("render.ascii_ms", "ms"),
    ("render.items", "count"),
    ("render.svg_bytes", "bytes"),
    ("render.ascii_bytes", "bytes"),
    ("trace.request_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Spans whose self time is the serial engine running a plan on the
/// request path.
const EXEC_RUN_SPANS: [&str; 2] = ["exec.plan_run", "exec.fixpoint_run"];

fn layer_metrics<W: Workload>(
    name: &str,
    w: &mut W,
    tracer: &Tracer,
    untraced: &[Sample],
) -> Result<Vec<(String, f64, &'static str)>, String> {
    let spans = tracer.spans();
    let path = repo_root()
        .join(".perfbench_out")
        .join(format!("spans-{name}.jsonl"));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;

    let attr = trace::attribute(spans);
    if attr.coverage.is_empty() {
        return Err("no traced requests".to_string());
    }
    let n = attr.coverage.len() as f64;
    let ms_of = |span: &str| attr.self_ns.get(span).copied().unwrap_or(0) as f64 / 1e6 / n;
    let mut v: BTreeMap<&str, f64> = BTreeMap::new();
    for (metric, unit) in LAYER_METRICS {
        if *unit == "ms" {
            v.insert(metric, ms_of(metric.trim_end_matches("_ms")));
        }
    }
    let exec: f64 = EXEC_RUN_SPANS.iter().map(|s| ms_of(s)).sum();
    v.insert("exec.execute_ms", exec);
    v.insert("exec.fixpoint_ms", ms_of("exec.fixpoint_run"));
    // The parallel probe runs the plan each traced read just ran on the
    // serial engine, so the two totals cover the same plans.
    let parallel = ms_of("exec.parallel_run");
    v.insert("exec.parallel_ms", parallel);
    v.insert(
        "exec.parallel_speedup",
        if parallel > 0.0 { exec / parallel } else { 0.0 },
    );
    v.insert(
        "exec.operators_ms",
        (exec - v["exec.materialize_ms"]).max(0.0),
    );
    let builds = attr
        .self_ns
        .iter()
        .filter(|(k, _)| k.starts_with("diagrams.build."))
        .fold(0.0, |acc, (_, &t)| acc + t as f64 / 1e6 / n);
    v.insert("diagrams.build_ms", builds);
    // Traced request time is the request root span alone: the probes
    // that follow a request are not part of its path.
    let traced_ms: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == trace::REQUEST && s.parent.is_none())
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect();
    let untraced_ms: Vec<f64> = untraced.iter().map(|s| s.ms).collect();
    let (t50, u50) = (
        stats::median(&traced_ms).unwrap_or(0.0),
        stats::median(&untraced_ms).unwrap_or(0.0),
    );
    v.insert("trace.request_ms", t50);
    v.insert(
        "trace.overhead",
        if u50 > 0.0 { t50 / u50 - 1.0 } else { 0.0 },
    );
    v.insert(
        "trace.coverage",
        stats::median(&attr.coverage).unwrap_or(0.0),
    );
    if let Some(wc) = w.write_class() {
        let writes: Vec<f64> = untraced
            .iter()
            .filter(|s| s.class == wc)
            .map(|s| s.ms)
            .collect();
        v.insert("serve.write_ms", stats::median(&writes).unwrap_or(0.0));
    }
    for (k, x) in w.layer_counts() {
        v.insert(k, x);
    }
    Ok(LAYER_METRICS
        .iter()
        .map(|(metric, unit)| {
            (
                metric.to_string(),
                v.get(metric).copied().unwrap_or(0.0),
                *unit,
            )
        })
        .collect())
}
