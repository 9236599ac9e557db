//! Wall-clock benchmark of the reduction pipeline: detection
//! (`detect-suites`), detection as a service (`serve-corpus`) and
//! exploitation (`exploit-kernels`).
//!
//! ```text
//! cargo run --release --offline --manifest-path wallbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --offline --manifest-path wallbench/Cargo.toml -- --self-test
//! cargo run --release --offline --manifest-path wallbench/Cargo.toml -- --print-expected
//! ```
//!
//! Every workload is a closed loop with one client on one process. An
//! operation is one program compiled and detected (`detect-suites`), one
//! request served (`serve-corpus`) or one pass over every kernel through
//! the parallel runtime (`exploit-kernels`). With `--trace 0` the run
//! reports the end-to-end metrics; with `--trace 1` it measures the same
//! loop untraced for half the time and traced for the other half, and
//! reports per-layer metrics from the spans it records around each call
//! into a layer, next to the counters of one `gr-trace` session. Every
//! output is checked; a mismatch makes `correct` false and the exit code 1.
//! The last line of standard output is the JSON result.

mod calib;
mod exploit;
mod serve;
mod spans;
mod stats;
mod stepwise;
mod suites;

use gr_benchsuite::rng::StdRng;
use spans::{Phase, Recorder};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use stepwise::Work;

/// A run sets up at least this many times, and for at least
/// [`SETUP_SECONDS`]; `setup_s` is the median set-up time.
const SETUPS: usize = 5;
/// Shortest total set-up time of a run, in seconds.
const SETUP_SECONDS: f64 = 3.0;

/// One workload of the benchmark.
pub trait Workload: Sized {
    /// Name given to `--workload`.
    const NAME: &'static str;
    /// Quantile reported as `latency_tail`: the highest one that keeps at
    /// least ten samples above it in a run of the configured length.
    const TAIL: f64;
    /// Threads an operation keeps busy.
    const THREADS: usize;
    /// Builds everything the loop needs from the seed.
    fn setup(seed: u64, rec: &mut Recorder) -> Result<Self, String>;
    /// Runs and checks one operation.
    fn step(&mut self, rec: &mut Recorder, tally: &mut Tally);
    /// Checks that must run after the `gr-trace` session has closed.
    fn after_trace(&mut self, _rec: &mut Recorder, _tally: &mut Tally) {}
    /// Work stepwise detection counted.
    fn work(&self) -> Work;
    /// Workload-specific per-layer metrics.
    fn layer_extras(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
    /// Workload-specific lines for the untraced run's report.
    fn notes(&self) -> Vec<String> {
        Vec::new()
    }
}

/// What a measured phase produced.
#[derive(Default)]
pub struct Tally {
    /// Wall time of each operation, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Programs, functions or kernel runs completed.
    pub items: u64,
    /// IR instructions compiled.
    pub ir_insts: u64,
    /// Outputs checked.
    pub attempted: u64,
    /// Outputs that failed their check.
    pub failed: u64,
    /// The first failure messages.
    pub failures: Vec<String>,
    /// Hash of every output, in order.
    pub digest: u64,
    /// Calibration probe time around each operation, seconds.
    pub probe_s: Vec<f64>,
}

impl Tally {
    /// Records one operation.
    pub fn op(&mut self, elapsed: Duration, items: u64, ir_insts: u64) {
        self.latencies_ms.push(elapsed.as_secs_f64() * 1e3);
        self.items += items;
        self.ir_insts += ir_insts;
    }

    /// Records one output check.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 5 {
                self.failures.push(msg());
            }
        }
    }

    /// Folds one output into the run's digest.
    pub fn output(&mut self, value: &impl std::hash::Hash) {
        use std::hash::{DefaultHasher, Hasher};
        let mut h = DefaultHasher::new();
        h.write_u64(self.digest);
        value.hash(&mut h);
        self.digest = h.finish();
    }

    /// Each operation's time at the reference speed, in reference ms.
    pub fn calibrated_ms(&self) -> Vec<f64> {
        self.latencies_ms
            .iter()
            .zip(&self.probe_s)
            .map(|(l, p)| l * calib::REF_PROBE_S / p)
            .collect()
    }

    /// Records one output check given as a result.
    pub fn verdict(&mut self, r: Result<(), String>) {
        match r {
            Ok(()) => self.check(true, String::new),
            Err(e) => self.check(false, || e),
        }
    }

    fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < 5 {
                self.failures.push(f);
            }
        }
    }
}

/// Fisher–Yates shuffle driven by the run's seeded generator.
pub fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..(i as i64 + 1)) as usize;
        v.swap(i, j);
    }
}

/// Instructions in a compiled module.
pub fn ir_insts(m: &gr_ir::Module) -> u64 {
    m.functions.iter().flat_map(|f| &f.blocks).map(|b| b.insts.len() as u64).sum()
}

/// Parent of the benchmark's temporary directories, in the working
/// directory.
const TMP_ROOT: &str = ".wallbench-tmp";

/// Where a traced run writes its spans, in the working directory.
const SPANS_DIR: &str = ".wallbench-spans";

/// A fresh directory under [`TMP_ROOT`], removed with its contents on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> Result<TempDir, String> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = PathBuf::from(TMP_ROOT).join(format!("{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(TempDir(dir))
    }

    pub fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Succeeds only once no other run's directory is left.
        let _ = std::fs::remove_dir(TMP_ROOT);
    }
}

/// A metric as `BENCHMARK.json` declares it.
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
}

fn def(name: impl Into<String>, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name: name.into(), unit, better }
}

/// The end-to-end metrics every workload reports with `--trace 0`.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        def("setup_s", "s", "lower"),
        def("peak_rss_mb", "MB", "lower"),
        def("latency_p50", "ref_ms", "lower"),
        def("latency_tail", "ref_ms", "lower"),
        def("throughput", "1/ref_s", "higher"),
    ]
}

fn idioms() -> Vec<&'static str> {
    gr_core::IdiomRegistry::with_default_idioms().names()
}

fn kernel_names() -> Vec<&'static str> {
    exploit::kernels().into_iter().map(|k| k.0).collect()
}

/// The per-layer metrics every workload reports with `--trace 1`.
pub fn per_layer() -> Vec<MetricDef> {
    let (lo, hi) = ("lower", "higher");
    let mut v = vec![
        def("frontend.compile_ms", "ms", lo),
        def("frontend.ir_insts", "count", lo),
        def("analysis.analyses_ms", "ms", lo),
        def("core.matchctx_ms", "ms", lo),
        def("core.registry_ms", "ms", lo),
        def("core.registry_builds", "count", lo),
        def("core.prefix_ms", "ms", lo),
        def("core.prefix_solves", "count", lo),
        def("core.extend_ms", "ms", lo),
    ];
    v.extend(idioms().into_iter().map(|i| def(format!("core.extend_ms.{i}"), "ms", lo)));
    v.extend([
        def("core.postcheck_ms", "ms", lo),
        def("core.fingerprint_ms", "ms", lo),
        def("core.solver_steps", "count", lo),
        def("core.solver_candidates", "count", lo),
        def("core.trie_shared_gen", "count", hi),
        def("core.prefix_cache_hits", "count", hi),
        def("core.extend_us_per_candidate", "us", lo),
        def("core.report_ratio", "ratio", hi),
        def("server.run_batch_ms", "ms", lo),
        def("server.persist_ms", "ms", lo),
        def("server.load_ms", "ms", lo),
        def("server.cold_solves", "count", lo),
        def("server.warm_hits", "count", hi),
        def("server.hit_ratio", "ratio", hi),
        def("server.cache_bytes", "bytes", lo),
        def("parallel.outline_ms", "ms", lo),
        def("parallel.runtime_ms", "ms", lo),
    ]);
    let kernels = kernel_names();
    v.extend(kernels.iter().map(|k| def(format!("parallel.runtime_ms.{k}"), "ms", lo)));
    v.extend([
        def("parallel.chunks_dispatched", "count", lo),
        def("parallel.chunks_cancelled", "count", hi),
        def("parallel.merge_commits", "count", lo),
        def("parallel.useful_chunk_ratio", "ratio", hi),
        def("parallel.speedup_geomean", "x", hi),
        def("interp.seq_ms", "ms", lo),
    ]);
    v.extend(kernels.iter().map(|k| def(format!("interp.seq_ms.{k}"), "ms", lo)));
    v.extend([
        def("interp.insts", "count", lo),
        def("interp.ns_per_inst", "ns", lo),
        def("trace.overhead_pct", "%", lo),
        def("trace.layer_coverage", "ratio", hi),
    ]);
    v
}

/// Command-line options of a measured run.
struct Config {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// How long a measured phase runs.
#[derive(Clone, Copy)]
enum Budget {
    Seconds(f64),
    Ops(usize),
}

fn measure<W: Workload>(w: &mut W, rec: &mut Recorder, budget: Budget) -> Tally {
    let mut tally = Tally::default();
    let mut cal = calib::Calibrator::new(W::THREADS);
    let t0 = Instant::now();
    loop {
        let done = match budget {
            Budget::Seconds(s) => !tally.latencies_ms.is_empty() && t0.elapsed().as_secs_f64() >= s,
            Budget::Ops(n) => tally.latencies_ms.len() >= n,
        };
        if done {
            return tally;
        }
        let probe = cal.tick();
        let before = tally.latencies_ms.len();
        w.step(rec, &mut tally);
        for _ in before..tally.latencies_ms.len() {
            tally.probe_s.push(probe);
        }
    }
}

/// The result of one run.
struct Outcome {
    metrics: Vec<(String, &'static str, f64)>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// Human-readable lines printed before the JSON result.
    notes: Vec<String>,
    /// The traced run's `gr-trace` counters and spans (self-test only).
    counters: BTreeMap<String, i64>,
    spans: Vec<spans::Span>,
    digest: u64,
}

/// How many times a run sets up: at least `count` times and for at least
/// `seconds` in total.
#[derive(Clone, Copy)]
struct Setups {
    count: usize,
    seconds: f64,
}

fn run<W: Workload>(
    seed: u64,
    setups: Setups,
    trace: bool,
    budget: Budget,
) -> Result<Outcome, String> {
    let mut rec = Recorder::new(trace);
    let mut setup_s = Vec::new();
    let mut state: Option<W> = None;
    let t_setup = Instant::now();
    while setup_s.len() < setups.count || t_setup.elapsed().as_secs_f64() < setups.seconds {
        drop(state.take());
        let t0 = Instant::now();
        state = Some(W::setup(seed, &mut rec)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut w = state.ok_or("no set-up ran")?;
    let setup_med = stats::median(&setup_s).ok_or("no set-up ran")?;
    let mut notes = vec![format!(
        "{}: seed {seed}, {} set-ups, available parallelism {}",
        W::NAME,
        setup_s.len(),
        std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get)
    )];
    rec.set_phase(Phase::Measure);
    if !trace {
        let tally = measure(&mut w, &mut rec, budget);
        let cal = Latency::of(&tally.calibrated_ms(), W::TAIL)?;
        let wall = Latency::of(&tally.latencies_ms, W::TAIL)?;
        let ops = tally.latencies_ms.len();
        let items_per_op = tally.items as f64 / ops as f64;
        let tail = W::TAIL * 100.0;
        notes.push(format!(
            "{ops} operations, {} items; {} samples above p{tail}; calibration probe {:.4} ms",
            tally.items,
            cal.beyond,
            stats::median(&tally.probe_s).unwrap_or(0.0) * 1e3
        ));
        notes.push(format!(
            "wall clock: p50 {:.4} ms, p{tail} {:.4} ms, {:.2} items/s",
            wall.p50,
            wall.tail,
            items_per_op * 1e3 / wall.mean
        ));
        notes.extend(w.notes());
        let metrics = vec![
            ("setup_s".to_string(), "s", setup_med),
            ("peak_rss_mb".to_string(), "MB", stats::peak_rss_mb()?),
            ("latency_p50".to_string(), "ref_ms", cal.p50),
            ("latency_tail".to_string(), "ref_ms", cal.tail),
            ("throughput".to_string(), "1/ref_s", items_per_op * 1e3 / cal.mean),
        ];
        return Ok(Outcome {
            metrics,
            attempted: tally.attempted,
            failed: tally.failed,
            failures: tally.failures,
            notes,
            counters: BTreeMap::new(),
            spans: Vec::new(),
            digest: tally.digest,
        });
    }

    // Traced run: the same loop untraced, then traced, so the difference
    // is the tracing overhead.
    let half = match budget {
        Budget::Seconds(s) => Budget::Seconds(s / 2.0),
        ops => ops,
    };
    rec.set_on(false);
    let mut total = measure(&mut w, &mut rec, half);
    let untraced = Latency::of(&total.calibrated_ms(), W::TAIL)?;
    rec.set_on(true);
    let session = gr_trace::start();
    let mut traced = measure(&mut w, &mut rec, half);
    let trace = session.finish();
    w.after_trace(&mut rec, &mut traced);
    let traced_lat = Latency::of(&traced.calibrated_ms(), W::TAIL)?;
    let ops = traced.latencies_ms.len() as f64;
    spans::check_nesting(rec.spans())?;

    let all = rec.spans();
    let totals = spans::totals(all);
    let setup_count = setup_s.len() as f64;
    // A layer's time per operation of the traced phase; a layer that ran
    // only during set-up reports its time per set-up instead.
    let ms = |name: &'static str, attr: Option<&'static str>| -> f64 {
        if let Some(t) = totals.get(&(1, name, attr)) {
            t.self_ns as f64 / 1e6 / ops
        } else if let Some(t) = totals.get(&(0, name, attr)) {
            t.self_ns as f64 / 1e6 / setup_count
        } else {
            0.0
        }
    };
    let calls = |name: &'static str| -> f64 {
        if let Some(t) = totals.get(&(1, name, None)) {
            t.calls as f64 / ops
        } else {
            totals.get(&(0, name, None)).map_or(0.0, |t| t.calls as f64 / setup_count)
        }
    };
    // A layer's self time per call, traced phase first.
    let ms_per_call = |name: &'static str| -> f64 {
        [1, 0]
            .iter()
            .find_map(|&phase| totals.get(&(phase, name, None)))
            .map_or(0.0, |t| t.self_ns as f64 / 1e6 / t.calls.max(1) as f64)
    };
    let counter = |name: &str| trace.counter(name) as f64;
    let keyed = |name: &str| {
        trace
            .counters_with_prefix(&format!("{name}{{"))
            .fold(0.0, |acc, (_, v)| acc + v as f64)
    };
    let work = w.work();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };
    put("frontend.compile_ms", ms("frontend.compile", None));
    put("frontend.ir_insts", traced.ir_insts as f64 / ops);
    put("analysis.analyses_ms", ms("analysis.analyses", None));
    put("core.matchctx_ms", ms("core.matchctx", None));
    put("core.registry_ms", ms("core.registry", None));
    put("core.registry_builds", calls("core.registry"));
    put("core.prefix_ms", ms("core.prefix", None));
    put("core.prefix_solves", calls("core.prefix"));
    put("core.extend_ms", ms("core.extend", None));
    for i in idioms() {
        put(&format!("core.extend_ms.{i}"), ms("core.extend", Some(i)));
    }
    put("core.postcheck_ms", ms("core.postcheck", None));
    put("core.fingerprint_ms", ms("core.fingerprint", None));
    put("core.solver_steps", counter("solver.steps") / ops);
    put("core.solver_candidates", counter("solver.candidates") / ops);
    put("core.trie_shared_gen", counter("solver.trie.shared_gen") / ops);
    // Stepwise detection solves each prefix through `PrefixCache::lookup` before
    // the extension looks it up again; that second lookup is a hit the
    // real path does not make.
    put(
        "core.prefix_cache_hits",
        (keyed("prefix_cache.hits") - work.session_prefix_solves as f64) / ops,
    );
    let extend_total_ms =
        totals.get(&(1, "core.extend", None)).map_or(0.0, |t| t.self_ns as f64 / 1e6);
    put("core.extend_us_per_candidate", ratio(extend_total_ms * 1e3, counter("solver.candidates")));
    put("core.report_ratio", ratio(work.kept as f64, work.postchecked as f64));
    put("server.run_batch_ms", ms("server.run_batch", None));
    put("server.persist_ms", ms("server.persist", None));
    put("server.load_ms", ms_per_call("server.load"));
    put("server.cold_solves", counter("server.jobs") / ops);
    put("server.warm_hits", counter("cache.persistent.hits") / ops);
    put("server.hit_ratio", ratio(counter("cache.persistent.hits"), counter("server.functions")));
    put("parallel.outline_ms", ms("parallel.outline", None));
    put("parallel.runtime_ms", ms("parallel.runtime", None));
    put("interp.seq_ms", ms("interp.seq", None));
    let mut speedups = Vec::new();
    for k in kernel_names() {
        let (seq, par) = (ms("interp.seq", Some(k)), ms("parallel.runtime", Some(k)));
        put(&format!("parallel.runtime_ms.{k}"), par);
        put(&format!("interp.seq_ms.{k}"), seq);
        if seq > 0.0 && par > 0.0 {
            speedups.push(seq / par);
        }
    }
    let dispatched = counter("runtime.chunk_dispatch");
    let commits = counter("runtime.merge_commits");
    put("parallel.chunks_dispatched", dispatched / ops);
    put("parallel.chunks_cancelled", counter("runtime.token_cancelled") / ops);
    put("parallel.merge_commits", commits / ops);
    put("parallel.useful_chunk_ratio", ratio(used_chunks(&trace), dispatched));
    put("parallel.speedup_geomean", stats::geomean(&speedups).unwrap_or(0.0));
    put("trace.overhead_pct", (traced_lat.p50 / untraced.p50 - 1.0) * 100.0);
    // Share of each traced operation that the layer spans under its root
    // account for.
    let mut covered: Vec<f64> = Vec::new();
    let self_times = spans::self_times(all);
    for (i, s) in all.iter().enumerate() {
        if s.phase == Phase::Measure && s.parent.is_none() && s.name.starts_with("bench.") {
            let dur = (s.end - s.start) as f64;
            covered.push(ratio(dur - self_times[i] as f64, dur));
        }
    }
    put("trace.layer_coverage", stats::median(&covered).unwrap_or(0.0));
    for (k, v) in w.layer_extras() {
        put(k, v);
    }
    let insts = m.get("interp.insts").copied().unwrap_or(0.0);
    m.insert("interp.ns_per_inst".into(), ratio(ms("interp.seq", None) * 1e6, insts));

    let (u, t) = (untraced.p50, traced_lat.p50);
    notes.push(format!(
        "{} untraced and {} traced operations; latency p50 {u:.4} ref_ms untraced, {t:.4} \
         ref_ms traced",
        total.latencies_ms.len(),
        traced.latencies_ms.len()
    ));
    if W::NAME == suites::DetectSuites::NAME && matches!(budget, Budget::Seconds(_)) {
        // The layer self-times under each program, at the reference speed,
        // must account for the untraced median within the tracing overhead,
        // give or take 5 % for the loop's own code between spans. Too few
        // operations for a stable median run at a fixed size, so only
        // timed runs check this.
        let summed: Vec<f64> = all
            .iter()
            .enumerate()
            .filter(|(_, s)| s.phase == Phase::Measure && s.name == "bench.program")
            .zip(&traced.probe_s)
            .map(|((i, s), p)| {
                ((s.end - s.start) as f64 - self_times[i] as f64) / 1e6 * calib::REF_PROBE_S / p
            })
            .collect();
        let summed_p50 = stats::median(&summed).unwrap_or(0.0);
        let slack = (t - u).abs() + 0.05 * u;
        notes.push(format!(
            "summed layer self-time p50 {summed_p50:.4} ref_ms vs untraced p50 {u:.4} ref_ms \
             (allowed difference {slack:.4})"
        ));
        traced.check((summed_p50 - u).abs() <= slack, || {
            format!(
                "layer self-times ({summed_p50:.4}) do not account for the untraced p50 ({u:.4})"
            )
        });
    }
    notes.extend(counter_notes(&trace, ops));
    if matches!(budget, Budget::Seconds(_)) {
        let path = PathBuf::from(SPANS_DIR).join(format!("{}-seed{seed}.jsonl", W::NAME));
        spans::write_jsonl(all, &path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        notes.push(format!("{} spans written to {}", all.len(), path.display()));
    }
    let digest = traced.digest;
    total.absorb(traced);

    let metrics = per_layer()
        .into_iter()
        .map(|d| {
            let v = m.get(&d.name).copied().unwrap_or(0.0);
            (d.name, d.unit, v)
        })
        .collect();
    Ok(Outcome {
        metrics,
        attempted: total.attempted,
        failed: total.failed,
        failures: total.failures,
        notes,
        counters: trace.counters,
        spans: rec.into_spans(),
        digest,
    })
}

/// Chunks whose results the runtime's merges used. A fold, scan or
/// histogram merge uses every chunk it dispatched. A speculative search
/// uses the chunks up to and including the one holding the first hit, or
/// every planned chunk when nothing hit; chunks dispatched past the hit are
/// wasted. Each kernel runs on the same inputs in every pass, so a call
/// site either hits on every call or on none.
fn used_chunks(trace: &gr_trace::Trace) -> f64 {
    let counter = |name: &str| trace.counter(name) as f64;
    // Only speculative searches poll the token; every poll they do not
    // cancel dispatches a chunk.
    let search_dispatched = counter("runtime.token_polls") - counter("runtime.token_cancelled");
    let mut used = counter("runtime.chunk_dispatch") - search_dispatched;
    for (key, planned) in &trace.histograms {
        let Some(site) = key.strip_prefix("runtime.chunk_len") else { continue };
        used += match trace.histogram(&format!("runtime.hit_chunk{site}")) {
            // Chunk indices start at 0.
            Some(hits) => (hits.sum + hits.count as i64) as f64,
            None => planned.count as f64,
        };
    }
    used
}

/// Summary of per-operation times.
struct Latency {
    p50: f64,
    tail: f64,
    /// Mean time per operation.
    mean: f64,
    /// Samples above the tail quantile.
    beyond: usize,
}

impl Latency {
    fn of(samples: &[f64], tail: f64) -> Result<Latency, String> {
        let (t, beyond) = stats::quantile(samples, tail).ok_or("no operation completed")?;
        let p50 = stats::median(samples).ok_or("no operation completed")?;
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        Ok(Latency { p50, tail: t, mean, beyond })
    }
}

/// The session's counters grouped by layer, per traced operation.
fn counter_notes(trace: &gr_trace::Trace, ops: f64) -> Vec<String> {
    let layers = [
        ("core", &["solver.", "prefix_cache.", "detect."][..]),
        ("server", &["server.", "cache.persistent."][..]),
        ("parallel", &["runtime.", "outline."][..]),
    ];
    let mut out = Vec::new();
    for (layer, prefixes) in layers {
        let mut line = format!("gr-trace counters per operation, {layer}:");
        let mut any = false;
        for (k, v) in &trace.counters {
            if prefixes.iter().any(|p| k.starts_with(p)) && !k.contains('{') {
                let _ = write!(line, " {k}={:.3}", *v as f64 / ops);
                any = true;
            }
        }
        if any {
            out.push(line);
        }
    }
    out
}

fn render_json(o: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.failed == 0,
        o.attempted.max(1),
        o.failed
    );
    for (i, (name, unit, v)) in o.metrics.iter().enumerate() {
        let v = if v.is_finite() { *v } else { 0.0 };
        let _ = write!(
            s,
            "{}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    s.push_str("}}");
    s
}

fn run_named(
    name: &str,
    seed: u64,
    setups: Setups,
    trace: bool,
    budget: Budget,
) -> Result<Outcome, String> {
    match name {
        suites::DetectSuites::NAME => run::<suites::DetectSuites>(seed, setups, trace, budget),
        serve::ServeCorpus::NAME => run::<serve::ServeCorpus>(seed, setups, trace, budget),
        exploit::ExploitKernels::NAME => {
            run::<exploit::ExploitKernels>(seed, setups, trace, budget)
        }
        other => Err(format!("unknown workload `{other}`")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--self-test") => return self_test(),
        Some("--print-expected") => {
            for p in suites::programs() {
                let m = p.compile();
                let rs = gr_core::detect_reductions(&m);
                print!("{}", suites::expected_block(&suites::label(&p), &rs));
            }
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let cfg = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("wallbench: {e}");
            return ExitCode::from(2);
        }
    };
    let setups = Setups { count: SETUPS, seconds: SETUP_SECONDS };
    match run_named(&cfg.workload, cfg.seed, setups, cfg.trace, Budget::Seconds(cfg.seconds)) {
        Ok(o) => {
            for n in &o.notes {
                println!("# {n}");
            }
            for (name, unit, v) in &o.metrics {
                println!("# {name} = {v} {unit}");
            }
            println!(
                "# fail_rate = {} ({} of {} outputs failed their check)",
                o.failed as f64 / o.attempted.max(1) as f64,
                o.failed,
                o.attempted
            );
            for f in &o.failures {
                eprintln!("wallbench: check failed: {f}");
            }
            println!("{}", render_json(&o));
            if o.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("wallbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs each workload at a small fixed size and checks the benchmark
/// itself: metric names and units against `BENCHMARK.json`, span nesting,
/// and that two runs with the same seed agree on outputs and counters.
fn self_test() -> ExitCode {
    let mut problems: Vec<String> = Vec::new();
    match std::fs::read_to_string("BENCHMARK.json") {
        Ok(text) => problems.extend(check_declared(&text)),
        Err(e) => problems.push(format!("cannot read BENCHMARK.json: {e}")),
    }
    let one = Setups { count: 1, seconds: 0.0 };
    let sizes = [
        (suites::DetectSuites::NAME, suites::programs().len()),
        (serve::ServeCorpus::NAME, 12),
        (exploit::ExploitKernels::NAME, 1),
    ];
    for (name, ops) in sizes {
        for trace in [false, true] {
            let runs: Vec<Result<Outcome, String>> =
                (0..2).map(|_| run_named(name, 7, one, trace, Budget::Ops(ops))).collect();
            let [a, b] = &runs[..] else { unreachable!() };
            let (a, b) = match (a, b) {
                (Ok(a), Ok(b)) => (a, b),
                (Err(e), _) | (_, Err(e)) => {
                    problems.push(format!("{name} (trace {trace}): {e}"));
                    continue;
                }
            };
            let declared = if trace { per_layer() } else { end_to_end() };
            let names: Vec<(&str, &str)> =
                a.metrics.iter().map(|(n, u, _)| (n.as_str(), *u)).collect();
            let want: Vec<(&str, &str)> =
                declared.iter().map(|d| (d.name.as_str(), d.unit)).collect();
            if names != want {
                problems
                    .push(format!("{name} (trace {trace}): emitted metrics differ from the table"));
            }
            for o in [a, b] {
                if o.failed > 0 {
                    problems.push(format!("{name} (trace {trace}): {:?}", o.failures));
                }
            }
            if trace {
                if let Err(e) = spans::check_nesting(&a.spans) {
                    problems.push(format!("{name}: {e}"));
                }
                if a.spans.iter().all(|s| s.phase != Phase::Measure) {
                    problems.push(format!("{name}: the traced run recorded no spans"));
                }
                let (ca, cb) = (deterministic(&a.counters), deterministic(&b.counters));
                if ca != cb {
                    problems.push(format!("{name}: two runs with one seed differ in counters"));
                }
            }
            if a.digest != b.digest {
                problems.push(format!(
                    "{name} (trace {trace}): two runs with one seed differ in outputs"
                ));
            }
            if (a.attempted, a.failed) != (b.attempted, b.failed) {
                problems
                    .push(format!("{name} (trace {trace}): two runs checked different outputs"));
            }
            println!("self-test {name} trace={}: {} outputs checked", u8::from(trace), a.attempted);
        }
    }
    for p in &problems {
        eprintln!("self-test: {p}");
    }
    if problems.is_empty() {
        println!("self-test: ok");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Counters that must repeat exactly for one seed. The speculative
/// runtime's scheduling counters depend on how its two threads race, so
/// they are left out.
fn deterministic(counters: &BTreeMap<String, i64>) -> BTreeMap<String, i64> {
    const RACY: [&str; 5] = [
        "runtime.chunk_dispatch",
        "runtime.chunk_complete",
        "runtime.chunk_hits",
        "runtime.token_polls",
        "runtime.token_cancelled",
    ];
    counters
        .iter()
        .filter(|(k, _)| !RACY.contains(&k.as_str()))
        .map(|(k, v)| (k.clone(), *v))
        .collect()
}

/// Checks that `BENCHMARK.json` declares exactly the metrics this program
/// emits, with the same units and directions.
fn check_declared(text: &str) -> Vec<String> {
    let mut problems = Vec::new();
    let section = |key: &str| -> &str {
        let start = text.find(&format!("\"{key}\"")).unwrap_or(text.len());
        let rest = &text[start..];
        let end = rest.find(']').unwrap_or(rest.len());
        &rest[..end]
    };
    for (key, defs) in [("end_to_end", end_to_end()), ("per_layer", per_layer())] {
        let body = section(key);
        let declared = body.matches("\"name\"").count();
        if declared != defs.len() {
            problems.push(format!(
                "BENCHMARK.json {key} declares {declared} metrics, the program emits {}",
                defs.len()
            ));
        }
        for d in defs {
            let needle = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                d.name, d.unit, d.better
            );
            if body.matches(&needle).count() != 1 {
                problems.push(format!(
                    "BENCHMARK.json {key} does not declare `{}` once as {needle}",
                    d.name
                ));
            }
        }
    }
    problems
}
