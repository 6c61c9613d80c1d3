//! The SpArch accelerator model — the primary contribution of
//! *SpArch: Efficient Architecture for Sparse Matrix Multiplication*
//! (HPCA 2020).
//!
//! SpArch computes `C = A × B` for sparse matrices with an outer-product
//! dataflow whose partial products are merged **on chip** by a streaming
//! comparator-array merge tree. Four techniques make that viable:
//!
//! 1. **Pipelined multiply and merge** ([`pipeline`]) — partial matrices
//!    stream from the multipliers straight into the merge tree,
//! 2. **Matrix condensing** ([`condense`]) — the left operand's non-zeros
//!    are packed left, collapsing ~100 k original columns into a few
//!    hundred condensed columns = partial matrices,
//! 3. **Huffman-tree scheduling** ([`sched`]) — when the condensed columns
//!    still exceed the 64-way tree, merge order is chosen by a k-ary
//!    Huffman tree to minimize DRAM round-trips of partial results,
//! 4. **Row prefetching** ([`prefetch`]) — the right operand's rows are
//!    buffered with a near-Bélády replacement policy driven by a
//!    look-ahead FIFO, recovering the input reuse condensing destroyed.
//!
//! [`SpArchSim`] assembles these into a whole-task simulator that produces
//! the *exact* result matrix (validated against software SpGEMM), exact
//! per-category DRAM traffic, a cycle estimate from per-round
//! compute/memory bounds, and energy/area breakdowns.
//!
//! # Example
//!
//! ```
//! use sparch_core::{SpArchConfig, SpArchSim};
//! use sparch_sparse::{algo, gen};
//!
//! let a = gen::uniform_random(200, 200, 1200, 1);
//! let report = SpArchSim::new(SpArchConfig::default()).run(&a, &a);
//! assert!(report.result().approx_eq(&algo::gustavson(&a, &a), 1e-9));
//! assert!(report.perf.gflops > 0.0);
//! ```

pub mod condense;
pub mod config;
pub mod cycle;
pub mod fetch;
pub mod pipeline;
pub mod prefetch;
pub mod report;
pub mod roofline;
pub mod sched;
pub mod scratch;
pub mod simulator;

pub use condense::{CondensedElement, CondensedView};
pub use config::{SchedulerKind, SpArchConfig};
pub use cycle::{simulate_round, CycleRoundReport};
pub use fetch::{ColumnFetcher, DistanceListBuilder, FetchPipeline};
pub use pipeline::{kway_merge_fold, kway_merge_fold_into, CostParams, RoundCost, RowAccumulator};
pub use prefetch::{PrefetchConfig, PrefetchStats, ReplacementPolicy, RowPrefetcher};
pub use report::{PerfSummary, SimReport};
pub use roofline::{Roofline, RooflinePoint};
pub use sched::{MergePlan, PlanNode, PlanRound};
pub use scratch::SimScratch;
pub use simulator::{ExecTotals, SimPlan, SpArchSim};
