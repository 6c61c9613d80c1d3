//! `sim-suite`: the cycle-level simulator over the 20-matrix suite.
//!
//! The only workload where the simulator (`core`, `engine`, `mem`) does
//! the work and the software stack stays idle. Each matrix goes through
//! the four public stages in the order `SpArchSim::run_with_scratch`
//! calls them, with a timer around each stage call.

use crate::{Rep, Workload};
use sparch::core::{SimScratch, SpArchConfig, SpArchSim};
use sparch::obs::Recorder;
use sparch::sparse::{algo, Csr};
use sparch_bench::suite;
use std::time::Instant;

/// Surrogate scale of the suite. The surrogates are seeded by matrix
/// name, so a held-out input is a second scale, not a second seed.
///
/// At this scale each matrix's simulation stays in the host's caches. At
/// 0.01 the repetition wall followed the shared host's memory contention,
/// drifting between 1.76 s and 2.64 s over nine minutes of one process,
/// which no run length within the benchmark's budget could average out.
pub const DEFAULT_SCALE: f64 = 0.001;

pub struct SimSuite {
    sim: SpArchSim,
    scratch: SimScratch,
    matrices: Vec<(&'static str, Csr)>,
    multiply_adds: u64,
    /// `SpArchSim::run`'s cycles and output nnz per matrix, from the
    /// warm-up.
    reference: Vec<(u64, usize)>,
}

impl SimSuite {
    pub fn new(scale: f64) -> Self {
        let matrices: Vec<(&'static str, Csr)> = suite::catalog()
            .iter()
            .map(|e| (e.name, e.build(scale)))
            .collect();
        let multiply_adds = matrices
            .iter()
            .map(|(_, m)| algo::multiply_flops(m, m))
            .sum();
        SimSuite {
            sim: SpArchSim::new(SpArchConfig::default()),
            scratch: SimScratch::new(),
            matrices,
            multiply_adds,
            reference: Vec::new(),
        }
    }
}

impl Workload for SimSuite {
    fn multiply_adds(&self) -> u64 {
        self.multiply_adds
    }

    fn calls(&self) -> usize {
        self.matrices.len()
    }

    /// Runs `SpArchSim::run` on every matrix, which pins the cycle counts
    /// the staged sequence must reproduce, then one staged repetition,
    /// which grows the shared scratch to its working size.
    fn warm_up(&mut self) -> Rep {
        self.reference = self
            .matrices
            .iter()
            .map(|(_, m)| {
                let report = self.sim.run(m, m);
                (report.perf.cycles, report.result().nnz())
            })
            .collect();
        let mut rep = self.rep(None);
        rep.attempted += self.matrices.len() as u64;
        rep
    }

    fn rep(&mut self, recorder: Option<&Recorder>) -> Rep {
        let mut lane = recorder.cloned().unwrap_or_default().thread("sim");
        let mut rep = Rep::default();
        let mut stage_s = [0.0f64; 4];
        let (mut cycles, mut dram_mb) = (0u64, 0.0f64);
        let start = Instant::now();
        for ((name, m), &(ref_cycles, ref_nnz)) in self.matrices.iter().zip(&self.reference) {
            let t0 = Instant::now();
            let span = lane.begin("core", "plan");
            let plan = self.sim.plan_stage(m, m);
            lane.end(span);
            let t1 = Instant::now();
            let span = lane.begin("core", "prefetch");
            let prefetch = self.sim.prefetch_stage(&plan, m, &mut self.scratch);
            lane.end(span);
            let t2 = Instant::now();
            let span = lane.begin("core", "execute");
            let totals = self.sim.execute_stage(&plan, m, &mut self.scratch);
            lane.end(span);
            let t3 = Instant::now();
            let span = lane.begin("core", "writeback");
            let report = self
                .sim
                .writeback_stage(m, m, &plan, prefetch, totals, &self.scratch);
            lane.end(span);
            let t4 = Instant::now();
            for (s, (a, b)) in stage_s
                .iter_mut()
                .zip([(t0, t1), (t1, t2), (t2, t3), (t3, t4)])
            {
                *s += (b - a).as_secs_f64();
            }
            rep.call_walls.push((t4 - t0).as_secs_f64());
            cycles += report.perf.cycles;
            dram_mb += report.dram_mb();
            rep.check(
                report.perf.cycles == ref_cycles && report.result().nnz() == ref_nnz,
                || {
                    format!(
                        "{name}: staged run gave {} cycles / {} nnz, SpArchSim::run {ref_cycles} / {ref_nnz}",
                        report.perf.cycles,
                        report.result().nnz()
                    )
                },
            );
        }
        rep.wall_s = start.elapsed().as_secs_f64();
        for (name, s) in [
            "core.plan_s",
            "core.prefetch_s",
            "core.execute_s",
            "core.writeback_s",
        ]
        .into_iter()
        .zip(stage_s)
        {
            rep.layer(name, s);
        }
        rep.layer(
            "core.unattributed_s",
            rep.wall_s - stage_s.iter().sum::<f64>(),
        );
        rep.layer("core.host_ns_per_cycle", rep.wall_s * 1e9 / cycles as f64);
        rep.exact("core.sim_cycles", cycles as f64);
        rep.exact("core.dram_mb", dram_mb);
        rep
    }
}
