//! `serve-mix`: one batch of 240 small single/chain/power/masked
//! requests through the serving layer, built like `serve_snapshot`'s.
//!
//! Many small products put the work in dispatch, the operand cache, the
//! `exec` pool and the in-memory kernels, while `stream`, `dist` and
//! `core` stay idle. The service runs as `sparch-cli batch` does:
//! adaptive dispatch with a calibration measured at start, no memory
//! budget, two worker threads.

use crate::{Rep, Workload};
use sparch::obs::Recorder;
use sparch::serve::{
    Backend, Batch, OperandDef, OperandSpec, Request, ServiceConfig, SpgemmService,
};
use sparch::sparse::gen::Recipe;
use sparch::sparse::{algo, linalg, Csr};
use std::collections::HashMap;
use std::time::Instant;

/// Order of every operand.
const ORDER: usize = 640;

const REQUESTS: usize = 240;

const THREADS: usize = 2;

pub struct ServeMix {
    /// `None` only while a repetition swaps its recorder in.
    service: Option<SpgemmService>,
    batch: Batch,
    /// Output `(rows, cols, nnz)` of each request, from `gustavson`.
    expected: Vec<(usize, usize, usize)>,
    multiply_adds: u64,
    calibrate_s: f64,
}

/// Seven structurally distinct square operands of one order, so every
/// request kind composes.
fn operands(seed: u64) -> Vec<OperandDef> {
    let n = ORDER;
    let recipes = [
        ("rmat_a", Recipe::Rmat { n, avg_degree: 4 }),
        ("rmat_b", Recipe::Rmat { n, avg_degree: 8 }),
        (
            "uniform",
            Recipe::Uniform {
                rows: n,
                cols: n,
                nnz: n * 5,
            },
        ),
        (
            "banded",
            Recipe::Banded {
                n,
                half_bandwidth: 3,
                extra_nnz: n,
            },
        ),
        (
            "powerlaw",
            Recipe::PowerlawRows {
                n,
                nnz: n * 6,
                alpha: 1.8,
            },
        ),
        (
            "blocks",
            Recipe::BlockSparse {
                rows: n,
                cols: n,
                block: 4,
                block_density: 0.15,
            },
        ),
        (
            "dense_sq",
            Recipe::Uniform {
                rows: n,
                cols: n,
                nnz: n * 10,
            },
        ),
    ];
    recipes
        .into_iter()
        .zip(0u64..)
        .map(|((name, recipe), k)| OperandDef {
            name: name.into(),
            spec: OperandSpec::Gen {
                recipe,
                seed: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(k),
            },
        })
        .collect()
}

/// The four request kinds in turn, cycling through the operands.
fn requests(names: &[&str]) -> Vec<Request> {
    let pick = |i: usize| names[i % names.len()].to_string();
    (0..REQUESTS)
        .map(|i| match i % 4 {
            0 => Request::Single {
                a: pick(i),
                b: pick(i + 1),
            },
            1 => Request::Chain {
                operands: vec![pick(i), pick(i + 2), pick(i + 3)],
            },
            2 => Request::Power {
                a: pick(i),
                k: 2,
                threshold: 0.0,
            },
            _ => Request::Masked {
                a: pick(i),
                b: pick(i + 1),
                mask: pick(i + 2),
            },
        })
        .collect()
}

/// The request's result by `gustavson`, and the multiply-adds of its
/// products.
fn reference(request: &Request, ops: &HashMap<&str, Csr>) -> (Csr, u64) {
    let mut multiply_adds = 0;
    let mut mul = |a: &Csr, b: &Csr| {
        multiply_adds += algo::multiply_flops(a, b);
        algo::gustavson(a, b)
    };
    let result = match request {
        Request::Single { a, b } => mul(&ops[a.as_str()], &ops[b.as_str()]),
        Request::Chain { operands } => {
            let mut cur = mul(&ops[operands[0].as_str()], &ops[operands[1].as_str()]);
            for next in &operands[2..] {
                cur = mul(&cur, &ops[next.as_str()]);
            }
            cur
        }
        Request::Power { a, k, threshold } => {
            let a = &ops[a.as_str()];
            let mut cur = a.clone();
            for _ in 1..*k {
                cur = mul(&cur, a);
                if *threshold > 0.0 {
                    cur = linalg::prune(&cur, *threshold);
                }
            }
            cur
        }
        Request::Masked { a, b, mask } => linalg::hadamard(
            &mul(&ops[a.as_str()], &ops[b.as_str()]),
            &ops[mask.as_str()],
        ),
    };
    (result, multiply_adds)
}

impl ServeMix {
    pub fn new(seed: u64) -> Result<Self, String> {
        let defs = operands(seed);
        let mut ops = HashMap::new();
        for def in &defs {
            let m = def.spec.build().map_err(|e| e.to_string())?;
            ops.insert(def.name.as_str(), m);
        }
        let names: Vec<&str> = defs.iter().map(|d| d.name.as_str()).collect();
        let reqs = requests(&names);
        let mut expected = Vec::with_capacity(reqs.len());
        let mut multiply_adds = 0;
        for r in &reqs {
            let (c, f) = reference(r, &ops);
            expected.push((c.rows(), c.cols(), c.nnz()));
            multiply_adds += f;
        }
        drop(ops);
        let start = Instant::now();
        let service = SpgemmService::new(ServiceConfig {
            threads: Some(THREADS),
            ..ServiceConfig::default()
        });
        let calibrate_s = start.elapsed().as_secs_f64();
        Ok(ServeMix {
            service: Some(service),
            batch: Batch {
                operands: defs,
                requests: reqs,
            },
            expected,
            multiply_adds,
            calibrate_s,
        })
    }
}

impl Workload for ServeMix {
    fn multiply_adds(&self) -> u64 {
        self.multiply_adds
    }

    fn calls(&self) -> usize {
        self.batch.requests.len()
    }

    fn rep(&mut self, recorder: Option<&Recorder>) -> Rep {
        let mut rep = Rep::default();
        let mut service = self
            .service
            .take()
            .expect("service is put back after every repetition")
            .with_recorder(recorder.cloned().unwrap_or_default());
        let start = Instant::now();
        let result = service.serve(&self.batch);
        rep.wall_s = start.elapsed().as_secs_f64();
        self.service = Some(service);
        rep.layer("serve.calibrate_s", self.calibrate_s);
        let report = match result {
            Ok(report) => report,
            Err(e) => {
                rep.attempted = self.expected.len() as u64;
                rep.failed = rep.attempted;
                eprintln!("serve: batch failed: {e}");
                return rep;
            }
        };
        let mut kernel_s = 0.0;
        for (i, &(rows, cols, nnz)) in self.expected.iter().enumerate() {
            let Some(r) = report.requests.iter().find(|r| r.index == i) else {
                rep.check(false, || format!("serve request {i}: no report"));
                continue;
            };
            rep.check((r.output_rows, r.output_cols, r.output_nnz) == (rows, cols, nnz), || {
                format!(
                    "serve request {i}: output {}x{} with {} nnz, expected {rows}x{cols} with {nnz}",
                    r.output_rows, r.output_cols, r.output_nnz
                )
            });
            rep.call_walls.push(r.wall_seconds);
            kernel_s += r.step_actual_seconds.iter().sum::<f64>();
        }
        let busy_s: f64 = rep.call_walls.iter().sum();
        rep.layer("serve.kernel_s", kernel_s);
        rep.layer("serve.step_overhead_s", busy_s - kernel_s);
        rep.layer(
            "serve.worker_idle_s",
            report.threads as f64 * rep.wall_s - busy_s,
        );
        for b in Backend::ALL {
            let steps = report
                .backend_steps
                .iter()
                .find(|s| s.backend == b.name())
                .map_or(0, |s| s.steps);
            rep.exact(format!("serve.steps.{}", b.name()), steps as f64);
        }
        rep.exact("serve.cache_hit_rate", report.cache_hit_rate);
        rep
    }
}
