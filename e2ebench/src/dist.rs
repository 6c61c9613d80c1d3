//! `dist-shards`: the distributed coordinator with two pinned shard
//! worker processes on an R-MAT square.
//!
//! The only workload where the wire, the coordinator and the workers do
//! the work. Panels are fixed (`DistConfig::pinned`), with no planner, so
//! it is the workload that bypasses `tune`.

use crate::{Rep, Workload};
use sparch::dist::{DistConfig, DistCoordinator};
use sparch::obs::{Recorder, Trace};
use sparch::sparse::{algo, gen, Csr};
use std::path::Path;
use std::time::Instant;

/// R-MAT order and average degree, sized so one call takes 1–3 s on a
/// two-core host.
const ORDER: usize = 12288;
const DEGREE: usize = 8;

const SHARDS: usize = 2;

pub struct DistShards {
    a: Csr,
    reference: Csr,
    config: DistConfig,
    multiply_adds: u64,
}

impl DistShards {
    pub fn new(seed: u64, tmp: &Path) -> Self {
        let a = gen::rmat_graph500(ORDER, DEGREE, seed);
        let reference = algo::gustavson(&a, &a);
        let multiply_adds = algo::multiply_flops(&a, &a);
        let mut config = DistConfig::pinned(SHARDS);
        config.stream.spill_dir = Some(tmp.to_path_buf());
        DistShards {
            a,
            reference,
            config,
            multiply_adds,
        }
    }
}

impl Workload for DistShards {
    fn multiply_adds(&self) -> u64 {
        self.multiply_adds
    }

    fn calls(&self) -> usize {
        1
    }

    fn rep(&mut self, recorder: Option<&Recorder>) -> Rep {
        let mut rep = Rep::default();
        let coordinator = DistCoordinator::new(self.config.clone())
            .with_recorder(recorder.cloned().unwrap_or_default());
        let start = Instant::now();
        let result = coordinator.multiply(&self.a, &self.a);
        rep.wall_s = start.elapsed().as_secs_f64();
        rep.call_walls.push(rep.wall_s);
        match result {
            Ok((c, report)) => {
                // A retry or respawn means a worker failed mid-call.
                rep.check(
                    c == self.reference && report.retries == 0 && report.respawns == 0,
                    || {
                        format!(
                            "dist: result equals gustavson: {}, {} retries, {} respawns",
                            c == self.reference,
                            report.retries,
                            report.respawns
                        )
                    },
                );
                rep.layer("dist.wire_mb_sent", report.wire_bytes_sent as f64 / 1e6);
                rep.layer(
                    "dist.wire_mb_received",
                    report.wire_bytes_received as f64 / 1e6,
                );
                rep.layer("dist.dispatches", report.dispatches as f64);
                rep.layer("dist.respawns", report.respawns as f64);
                rep.layer("dist.heartbeat_timeouts", report.heartbeat_timeouts as f64);
                rep.exact("dist.retries", report.retries as f64);
            }
            Err(e) => rep.check(false, || format!("dist: {e}")),
        }
        rep
    }

    /// Dispatch, job and worker compute spans. A job span runs from
    /// dispatch to reply and the compute span nests inside it, so the
    /// difference is wire and queueing time.
    fn trace_layers(&self, trace: &Trace, rep: &mut Rep) {
        let compute =
            trace.seconds_named("compute-multiply") + trace.seconds_named("compute-merge");
        rep.layer("dist.dispatch_s", trace.seconds_named("dispatch"));
        rep.layer("dist.compute_s", compute);
        rep.layer("dist.wire_s", trace.seconds_named("job") - compute);
    }
}
