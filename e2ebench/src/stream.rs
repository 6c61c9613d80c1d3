//! `stream-oocore`: the out-of-core streaming executor on a large R-MAT
//! square, planned by the knob planner, called twice per repetition.
//!
//! The big panels put the work in the multiply and merge kernels, the
//! spill I/O and the planner. The first call has an unbounded budget, so
//! the in-memory multiply and merge do the work; the second has a fixed
//! budget below the projected partial total, so it takes the spill path.

use crate::{Rep, Workload};
use sparch::obs::Recorder;
use sparch::sparse::{algo, gen, Csr};
use sparch::stream::{MemoryBudget, StreamConfig, StreamReport, StreamingExecutor};
use sparch::tune::{row_nnz_histogram, BRows, KnobPlanner, OperandStats};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// R-MAT order and average degree: 120k input nnz, 8.9M output nnz at
/// the default seed.
const ORDER: usize = 16384;
const DEGREE: usize = 8;

/// Worker threads the planner targets and the pipeline runs.
const THREADS: usize = 2;

pub struct StreamOocore {
    a: Csr,
    reference: Csr,
    stats: OperandStats,
    b_rows: Vec<usize>,
    /// `(label, budget)` of each call in a repetition.
    calls: [(&'static str, MemoryBudget); 2],
    spill_dir: PathBuf,
    multiply_adds: u64,
}

impl StreamOocore {
    pub fn new(seed: u64, tmp: &Path) -> Self {
        let a = gen::rmat_graph500(ORDER, DEGREE, seed);
        let reference = algo::gustavson(&a, &a);
        let stats = OperandStats::from_csr(&a);
        let b_rows = row_nnz_histogram(&a);
        // A quarter of the projected partial footprint: well below the
        // total, so the second call must spill.
        let projected = KnobPlanner::new(MemoryBudget::unbounded())
            .with_threads(THREADS)
            .plan(&stats, &BRows::Histogram(&b_rows))
            .projected_total_partial_bytes;
        let multiply_adds = 2 * algo::multiply_flops(&a, &a);
        StreamOocore {
            a,
            reference,
            stats,
            b_rows,
            calls: [
                ("mem", MemoryBudget::unbounded()),
                ("spill", MemoryBudget::from_bytes(projected / 4)),
            ],
            spill_dir: tmp.to_path_buf(),
            multiply_adds,
        }
    }
}

/// Records one call's stage report under `stream.<label>.*`.
fn stage_layers(rep: &mut Rep, label: &str, r: &StreamReport) {
    let s = &r.stages;
    let key = |m: &str| format!("stream.{label}.{m}");
    rep.layer(key("reader_s"), s.reader_busy_seconds);
    rep.layer(key("multiply_kernel_s"), s.multiply_kernel_seconds);
    rep.layer(
        key("publish_wait_s"),
        s.multiply_busy_seconds - s.multiply_kernel_seconds,
    );
    rep.layer(key("merge_kernel_s"), s.merge_kernel_seconds);
    rep.layer(
        key("orchestrate_s"),
        s.merge_busy_seconds - s.merge_kernel_seconds,
    );
    rep.layer(key("spill_write_s"), s.spill_write_seconds);
    rep.layer(key("spill_bytes_written"), r.spill_bytes_written as f64);
    rep.layer(key("peak_live_bytes"), r.peak_live_bytes as f64);
    rep.exact(key("partials"), r.partials as f64);
    rep.exact(key("merge_rounds"), r.merge_rounds as f64);
    rep.exact(key("merge_triples"), s.merge_triples as f64);
}

impl Workload for StreamOocore {
    fn multiply_adds(&self) -> u64 {
        self.multiply_adds
    }

    fn calls(&self) -> usize {
        self.calls.len()
    }

    fn rep(&mut self, recorder: Option<&Recorder>) -> Rep {
        let mut rep = Rep::default();
        for (label, budget) in self.calls {
            let start = Instant::now();
            let plan = KnobPlanner::new(budget)
                .with_threads(THREADS)
                .plan(&self.stats, &BRows::Histogram(&self.b_rows));
            let plan_s = start.elapsed().as_secs_f64();
            let config = StreamConfig {
                threads: Some(THREADS),
                spill_dir: Some(self.spill_dir.clone()),
                ..plan.config
            };
            let executor =
                StreamingExecutor::new(config).with_recorder(recorder.cloned().unwrap_or_default());
            let result = executor.multiply(&self.a, &self.a);
            let wall = start.elapsed().as_secs_f64();
            rep.wall_s += wall;
            rep.call_walls.push(wall);
            rep.layer(format!("tune.{label}.plan_s"), plan_s);
            rep.exact(format!("tune.{label}.panels"), plan.config.panels as f64);
            rep.exact(
                format!("tune.{label}.merge_ways"),
                plan.config.merge_ways as f64,
            );
            match result {
                Ok((c, report)) => {
                    let spilled = label != "spill" || report.spill_writes > 0;
                    rep.check(c == self.reference && spilled, || {
                        format!("stream {label}: result differs from gustavson or did not spill")
                    });
                    stage_layers(&mut rep, label, &report);
                }
                Err(e) => rep.check(false, || format!("stream {label}: {e}")),
            }
        }
        rep
    }
}
