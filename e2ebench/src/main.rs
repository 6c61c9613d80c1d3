//! End-to-end benchmark of the SpArch workspace with per-layer
//! attribution.
//!
//! Four closed-loop workloads, one per public entry point: one caller
//! makes each call and waits for its result, and nothing runs on more
//! than two worker threads.
//!
//! ```text
//! sparch-e2ebench --workload <sim-suite|stream-oocore|dist-shards|serve-mix>
//!                 [--seed N] [--seconds S] [--trace 0|1] [--scale X]
//! ```
//!
//! A run sets the workload up [`SETUPS`] times (reporting the median as
//! `setup_s`), warms it up in-process, then repeats its fixed amount of
//! work until `--seconds` have passed and at least [`MIN_REPS`]
//! repetitions are in. End-to-end metrics are medians over untraced
//! repetitions. With `--trace 1`, traced and untraced repetitions
//! alternate and the per-layer metrics come from the traced repetition
//! with the median wall time. The last line of standard output is one
//! JSON object; a table of every metric goes to standard error.
//!
//! Run from the repository root: outputs (Chrome traces, the same-work
//! record, spill files and dist sockets) go under `e2ebench/out/`.
//! See `e2ebench/README.md` for the metric glossary.

mod alloc;
mod dist;
mod serve;
mod sim;
mod stream;

use sparch::obs::{chrome_trace_json, Recorder, Trace};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Fewest timed repetitions of each kind (untraced, and traced under
/// `--trace 1`), whatever `--seconds` says.
const MIN_REPS: usize = 3;

/// The benchmark's own directory, relative to the repository root.
const BENCH_DIR: &str = "e2ebench";

const WORKLOADS: [&str; 4] = ["sim-suite", "stream-oocore", "dist-shards", "serve-mix"];

/// Every per-layer metric and its unit, in output order. Layers a
/// workload leaves idle report 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("trace.wall_s", "s"),
    ("obs.overhead_pct", "%"),
    ("host.mem_probe_s", "s"),
    ("work.mismatched_reps", "count"),
    ("work.differs_from_first_run", "count"),
    ("core.plan_s", "s"),
    ("core.prefetch_s", "s"),
    ("core.execute_s", "s"),
    ("core.writeback_s", "s"),
    ("core.unattributed_s", "s"),
    ("core.host_ns_per_cycle", "ns"),
    ("core.sim_cycles", "count"),
    ("core.dram_mb", "MB"),
    ("tune.mem.plan_s", "s"),
    ("tune.mem.panels", "count"),
    ("tune.mem.merge_ways", "count"),
    ("tune.spill.plan_s", "s"),
    ("tune.spill.panels", "count"),
    ("tune.spill.merge_ways", "count"),
    ("stream.mem.reader_s", "s"),
    ("stream.mem.multiply_kernel_s", "s"),
    ("stream.mem.publish_wait_s", "s"),
    ("stream.mem.merge_kernel_s", "s"),
    ("stream.mem.orchestrate_s", "s"),
    ("stream.mem.spill_write_s", "s"),
    ("stream.mem.partials", "count"),
    ("stream.mem.merge_rounds", "count"),
    ("stream.mem.merge_triples", "count"),
    ("stream.mem.spill_bytes_written", "bytes"),
    ("stream.mem.peak_live_bytes", "bytes"),
    ("stream.spill.reader_s", "s"),
    ("stream.spill.multiply_kernel_s", "s"),
    ("stream.spill.publish_wait_s", "s"),
    ("stream.spill.merge_kernel_s", "s"),
    ("stream.spill.orchestrate_s", "s"),
    ("stream.spill.spill_write_s", "s"),
    ("stream.spill.partials", "count"),
    ("stream.spill.merge_rounds", "count"),
    ("stream.spill.merge_triples", "count"),
    ("stream.spill.spill_bytes_written", "bytes"),
    ("stream.spill.peak_live_bytes", "bytes"),
    ("dist.dispatch_s", "s"),
    ("dist.compute_s", "s"),
    ("dist.wire_s", "s"),
    ("dist.wire_mb_sent", "MB"),
    ("dist.wire_mb_received", "MB"),
    ("dist.dispatches", "count"),
    ("dist.retries", "count"),
    ("dist.respawns", "count"),
    ("dist.heartbeat_timeouts", "count"),
    ("serve.calibrate_s", "s"),
    ("serve.kernel_s", "s"),
    ("serve.step_overhead_s", "s"),
    ("serve.worker_idle_s", "s"),
    ("serve.steps.gustavson", "count"),
    ("serve.steps.hash_spgemm", "count"),
    ("serve.steps.heap_spgemm", "count"),
    ("serve.steps.sort_merge", "count"),
    ("serve.steps.inner_product", "count"),
    ("serve.steps.outer_product", "count"),
    ("serve.steps.streaming", "count"),
    ("serve.steps.distributed", "count"),
    ("serve.cache_hit_rate", "ratio"),
];

/// What one repetition of a workload measured.
#[derive(Default)]
pub struct Rep {
    /// Wall time of the repetition's timed calls, in seconds.
    pub wall_s: f64,
    /// Wall time of each public call (each request, for serve-mix).
    pub call_walls: Vec<f64>,
    /// Per-layer values; only traced repetitions' values are reported.
    pub layers: BTreeMap<String, f64>,
    /// Counts that must repeat exactly while the program is unchanged.
    pub exact: BTreeMap<String, f64>,
    /// Operations attempted and failed (an `Err` or a failed check).
    pub attempted: u64,
    pub failed: u64,
    /// Heap high-water mark during the repetition, above the live heap
    /// at its start.
    pub peak_bytes: u64,
}

impl Rep {
    /// Counts one checked operation, logging a failed check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    pub fn layer(&mut self, name: impl Into<String>, value: f64) {
        self.layers.insert(name.into(), value);
    }

    /// Records an exact count; it is reported as a layer metric too.
    pub fn exact(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        self.layers.insert(name.clone(), value);
        self.exact.insert(name, value);
    }
}

/// One workload, set up and ready to repeat its fixed amount of work.
pub trait Workload {
    /// Multiply-adds of one repetition's products, counted from the
    /// inputs.
    fn multiply_adds(&self) -> u64;
    /// Public calls in one repetition.
    fn calls(&self) -> usize;
    /// Runs once before timing; by default an untraced repetition.
    fn warm_up(&mut self) -> Rep {
        self.rep(None)
    }
    /// One repetition. `recorder` is set on traced repetitions.
    fn rep(&mut self, recorder: Option<&Recorder>) -> Rep;
    /// Per-layer values that come from a traced repetition's spans.
    fn trace_layers(&self, _trace: &Trace, _rep: &mut Rep) {}
}

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
}

const USAGE: &str =
    "usage: sparch-e2ebench --workload <sim-suite|stream-oocore|dist-shards|serve-mix> \
[--seed N (default 1)] [--seconds S (default 10)] [--trace 0|1 (default 0)] \
[--scale X (sim-suite surrogate scale, default 0.001)]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "",
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: sim::DEFAULT_SCALE,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => {
                args.workload = WORKLOADS
                    .into_iter()
                    .find(|w| *w == value)
                    .ok_or_else(|| format!("unknown workload {value:?}"))?;
            }
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--scale" => args.scale = value.parse().map_err(|e| bad(&e))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if !(args.seconds >= 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in [0, 60]".into());
    }
    if !(args.scale > 0.0 && args.scale <= 0.1) {
        return Err("--scale must be in (0, 0.1]".into());
    }
    Ok(args)
}

fn setup(args: &Args, tmp: &Path) -> Result<Box<dyn Workload>, String> {
    Ok(match args.workload {
        "sim-suite" => Box::new(sim::SimSuite::new(args.scale)),
        "stream-oocore" => Box::new(stream::StreamOocore::new(args.seed, tmp)),
        "dist-shards" => Box::new(dist::DistShards::new(args.seed, tmp)),
        "serve-mix" => Box::new(serve::ServeMix::new(args.seed)?),
        other => unreachable!("parse_args admits only known workloads, got {other}"),
    })
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linearly interpolated quantile (`q` in [0, 1]) of a non-empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let h = (v.len() - 1) as f64 * q;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (h - lo as f64)
}

/// A fixed memory-bound loop that is not part of the program: a pointer
/// chase through a 64 MiB single-cycle permutation. Diagnostic only — it
/// lets a reader tell host phases apart from program changes.
struct MemProbe {
    next: Vec<u32>,
}

impl MemProbe {
    const LEN: usize = 16 << 20;
    const STEPS: usize = 1 << 19;

    fn new() -> Self {
        // Sattolo's algorithm over a fixed LCG: one cycle through every
        // slot, the same on every run.
        let mut next: Vec<u32> = (0..Self::LEN as u32).collect();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for i in (1..Self::LEN).rev() {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let j = ((state >> 33) % i as u64) as usize;
            next.swap(i, j);
        }
        MemProbe { next }
    }

    fn run(&self) -> f64 {
        let start = Instant::now();
        let mut at = 0u32;
        for _ in 0..Self::STEPS {
            at = self.next[at as usize];
        }
        std::hint::black_box(at);
        start.elapsed().as_secs_f64()
    }
}

/// Compares this run's exact counts with the first run's for the same
/// workload and inputs (recorded under `out`). Returns whether they
/// differ.
fn differs_from_first_run(out: &Path, args: &Args, exact: &BTreeMap<String, f64>) -> bool {
    let text: String = exact.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
    let path = out.join(format!("work-seed{}-scale{}.txt", args.seed, args.scale));
    match std::fs::read_to_string(&path) {
        Ok(first) => {
            if first != text {
                eprintln!(
                    "work differs from the first run recorded in {}:\n--- first\n{first}--- now\n{text}",
                    path.display()
                );
            }
            first != text
        }
        Err(_) => {
            if let Err(e) = std::fs::write(&path, &text) {
                eprintln!(
                    "warning: cannot record work counts in {}: {e}",
                    path.display()
                );
            }
            false
        }
    }
}

fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v}")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if !Path::new(BENCH_DIR).join("Cargo.toml").is_file() {
        eprintln!("run from the repository root (no {BENCH_DIR}/Cargo.toml here)");
        return ExitCode::from(2);
    }
    // Relative paths keep the dist sockets' path short, and workers
    // inherit the working directory.
    let out = PathBuf::from(BENCH_DIR).join("out").join(args.workload);
    let tmp = PathBuf::from(BENCH_DIR).join("out").join("tmp");
    if let Err(e) = std::fs::create_dir_all(&out).and_then(|()| std::fs::create_dir_all(&tmp)) {
        eprintln!("cannot create {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    // Dist sockets and worker spill files go under the temp directory;
    // no other thread is running yet.
    std::env::set_var("TMPDIR", &tmp);

    let probe = MemProbe::new();
    let mut setup_walls = Vec::with_capacity(SETUPS);
    let mut workload = None;
    for _ in 0..SETUPS {
        drop(workload.take());
        let start = Instant::now();
        match setup(&args, &tmp) {
            Ok(w) => workload = Some(w),
            Err(e) => {
                eprintln!("setup failed: {e}");
                return ExitCode::FAILURE;
            }
        }
        setup_walls.push(start.elapsed().as_secs_f64());
    }
    let mut w = workload.expect("SETUPS > 0");

    let warm = w.warm_up();
    let (mut attempted, mut failed) = (warm.attempted, warm.failed);

    let mut untraced: Vec<Rep> = Vec::new();
    let mut traced: Vec<(Rep, Trace)> = Vec::new();
    let mut probes = Vec::new();
    let start = Instant::now();
    loop {
        let recorder = (args.trace && untraced.len() > traced.len()).then(Recorder::enabled);
        let live = alloc::reset_peak();
        let mut rep = w.rep(recorder.as_ref());
        rep.peak_bytes = alloc::peak() - live;
        attempted += rep.attempted;
        failed += rep.failed;
        match recorder {
            Some(r) => {
                let trace = r.drain(args.workload);
                w.trace_layers(&trace, &mut rep);
                traced.push((rep, trace));
            }
            None => untraced.push(rep),
        }
        probes.push(probe.run());
        let enough = untraced.len() >= MIN_REPS && (!args.trace || traced.len() >= MIN_REPS);
        if enough && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }

    let first = &untraced[0].exact;
    let mismatched = untraced
        .iter()
        .map(|r| &r.exact)
        .chain(traced.iter().map(|(r, _)| &r.exact))
        .filter(|e| *e != first)
        .count();
    let changed = differs_from_first_run(&out, &args, first);

    let walls: Vec<f64> = untraced.iter().map(|r| r.wall_s).collect();
    let wall_s = median(&walls);
    let traced_walls: Vec<f64> = traced.iter().map(|(r, _)| r.wall_s).collect();
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        // The traced repetition with the median wall time supplies every
        // layer value, so additive layers still sum to its wall time.
        traced.sort_by(|a, b| a.0.wall_s.total_cmp(&b.0.wall_s));
        let (rep, trace) = &traced[(traced.len() - 1) / 2];
        let trace_path = out.join("trace.json");
        if let Err(e) = std::fs::write(&trace_path, chrome_trace_json(trace)) {
            eprintln!("warning: cannot write {}: {e}", trace_path.display());
        }
        for &(name, unit) in PER_LAYER {
            let value = match name {
                "trace.wall_s" => rep.wall_s,
                "obs.overhead_pct" => (median(&traced_walls) / wall_s - 1.0) * 100.0,
                "host.mem_probe_s" => median(&probes),
                "work.mismatched_reps" => mismatched as f64,
                "work.differs_from_first_run" => f64::from(u8::from(changed)),
                _ => rep.layers.get(name).copied().unwrap_or(0.0),
            };
            metrics.push((name, value, unit));
        }
        for name in rep.layers.keys() {
            assert!(
                PER_LAYER.iter().any(|(n, _)| n == name),
                "layer metric {name} missing from PER_LAYER"
            );
        }
    } else {
        let p95s: Vec<f64> = untraced
            .iter()
            .map(|r| quantile(&r.call_walls, 0.95))
            .collect();
        let peaks: Vec<f64> = untraced.iter().map(|r| r.peak_bytes as f64 / 1e6).collect();
        metrics.extend([
            ("setup_s", median(&setup_walls), "s"),
            ("wall_s", wall_s, "s"),
            // Two flops per multiply-add, as the simulator counts them.
            (
                "flops_per_s",
                2.0 * w.multiply_adds() as f64 / wall_s,
                "flop/s",
            ),
            ("requests_per_s", w.calls() as f64 / wall_s, "1/s"),
            ("request_p95_s", median(&p95s), "s"),
            ("peak_heap_mb", median(&peaks), "MB"),
        ]);
    }

    eprintln!(
        "{}: seed {}, {} cores, {} untraced + {} traced repetitions, {} operations attempted, \
         {} failed; host.mem_probe_s {:.4}; work mismatches {} (this run), changed since first \
         run: {}",
        args.workload,
        args.seed,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        untraced.len(),
        traced.len(),
        attempted,
        failed,
        median(&probes),
        mismatched,
        changed
    );
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    eprintln!("  untraced walls: {}", list(&walls));
    eprintln!("  traced walls:   {}", list(&traced_walls));
    eprintln!("  memory probes:  {}", list(&probes));
    for (name, value, unit) in &metrics {
        eprintln!("  {name:<34} {value:>16.6} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
