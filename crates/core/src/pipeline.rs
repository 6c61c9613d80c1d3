//! Round execution: the multiply → merge-tree → adder/zero-eliminator →
//! writer pipeline (paper §II-E, Figure 10), and its per-round cost model.
//!
//! The functional half produces bit-exact merged streams in two
//! equivalent ways. [`kway_merge_fold`] is the reference: a `BinaryHeap`
//! merge in `(coordinate, stream index, position)` order, validated
//! against the cycle-level `sparch_engine::MergeTree` in integration
//! tests. [`RowAccumulator`] is the simulator's fold: it walks the
//! streams one output row at a time and performs the same additions in
//! the same order, so its output, bit for bit, and its add count equal
//! the heap's. The timing half ([`RoundCost`]) reproduces the
//! simulator's per-round cycle estimate: a round is bound either by DRAM
//! bandwidth or by the merge tree's root throughput, plus startup
//! latencies (DRAM access, tree pipeline fill, look-ahead FIFO fill).

use serde::{Deserialize, Serialize};
use sparch_engine::MergeItem;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Merges `k` sorted streams into one, folding duplicate coordinates
/// (adder slice) and dropping nothing else. Returns the stream and the
/// number of additions performed.
///
/// This is the functional model of one merge-tree round; the engine
/// crate's `MergeTree` is the cycle-level model of the same computation,
/// and both enforce the same input contract — streams sorted by packed
/// coordinate (`sparch_engine::item::is_sorted`) — so they are
/// interchangeable and cross-validated (see `tests/merge_contract.rs`).
///
/// # Panics
///
/// Panics in debug builds if an input stream is not sorted by coordinate.
pub fn kway_merge_fold(streams: &[&[MergeItem]]) -> (Vec<MergeItem>, u64) {
    let mut out = Vec::new();
    let adds = kway_merge_fold_into(streams, &mut out);
    (out, adds)
}

/// Like [`kway_merge_fold`], but appends into a caller-provided buffer
/// (cleared first), so repeated merges can reuse one allocation. Returns
/// the number of additions performed.
///
/// Entries pop in `(coordinate, stream index, position)` order, so ties
/// resolve by stream index then position — the same order a
/// left-to-right merge tree folds duplicates in.
///
/// # Panics
///
/// Panics in debug builds if an input stream is not sorted by coordinate.
pub fn kway_merge_fold_into(streams: &[&[MergeItem]], out: &mut Vec<MergeItem>) -> u64 {
    out.clear();
    let mut heap = BinaryHeap::with_capacity(streams.len());
    for (k, s) in streams.iter().enumerate() {
        debug_assert!(
            sparch_engine::item::is_sorted(s),
            "input {k} is not sorted by coordinate"
        );
        if let Some(first) = s.first() {
            heap.push(Reverse((first.coord, k, 0usize)));
        }
    }
    out.reserve(streams.iter().map(|s| s.len()).sum());
    let mut adds = 0u64;
    while let Some(Reverse((coord, k, pos))) = heap.pop() {
        let s = streams[k];
        let item = s[pos];
        match out.last_mut() {
            Some(last) if last.coord == coord => {
                last.value += item.value;
                adds += 1;
            }
            _ => out.push(item),
        }
        if let Some(next) = s.get(pos + 1) {
            heap.push(Reverse((next.coord, k, pos + 1)));
        }
    }
    adds
}

/// The row-wise merge fold: a dense, generation-stamped accumulator over
/// one output row at a time.
///
/// For each output row, in increasing order, the fold walks the streams
/// in index order and folds each stream's segment of that row into the
/// accumulator: the first touch of a column *sets* its value, later
/// touches *add*. The touched columns are then sorted and emitted. A
/// coordinate's contributions are therefore summed in `(stream index,
/// position)` order — exactly the order [`kway_merge_fold`] pops them
/// in — so the output is bit-identical to the heap's (including `-0.0`
/// first values and exact-zero cancellations, which stay explicit) and
/// the add count is equal. The fold costs one stamp check per element
/// and a sort of each row's distinct columns, not a heap pop and push
/// per element.
///
/// All buffers are kept across calls, and the stamp is a `u64` that only
/// grows, so slots dirtied by one row never alias a later row and reuse
/// needs no clearing. Once warm for a given fan-in, column bound and row
/// width, a fold performs no heap allocation.
///
/// ```
/// use sparch_core::{kway_merge_fold, RowAccumulator};
/// use sparch_engine::MergeItem;
///
/// let s1 = [MergeItem::new(0, 3, 1.0), MergeItem::new(1, 0, 2.0)];
/// let s2 = [MergeItem::new(0, 1, 4.0), MergeItem::new(0, 3, 0.5)];
/// let mut acc = RowAccumulator::new();
/// let mut out = Vec::new();
/// let adds = acc.fold_into(&[&s1, &s2], 4, &mut out);
/// assert_eq!((out, adds), kway_merge_fold(&[&s1, &s2]));
/// ```
#[derive(Debug, Default)]
pub struct RowAccumulator {
    /// Dense value per column of the row in flight.
    values: Vec<f64>,
    /// Generation of the row that last touched each column; `0` is never
    /// a live generation, so fresh slots are always stale.
    stamps: Vec<u64>,
    /// Monotone per-row generation counter.
    generation: u64,
    /// Columns touched by the row in flight (unsorted until emit).
    touched: Vec<u32>,
    /// Read position of each stream.
    cursors: Vec<usize>,
}

impl RowAccumulator {
    /// Creates an empty accumulator; buffers grow on first use.
    pub fn new() -> Self {
        RowAccumulator::default()
    }

    /// Folds `streams` into `out` (cleared first) and returns the number
    /// of additions performed. Every column index must be below `cols`.
    ///
    /// # Panics
    ///
    /// Panics if an element's column is `>= cols`, and in debug builds if
    /// an input stream is not sorted by coordinate.
    pub fn fold_into(
        &mut self,
        streams: &[&[MergeItem]],
        cols: usize,
        out: &mut Vec<MergeItem>,
    ) -> u64 {
        self.fold_with(streams.len(), |k| streams[k], cols, out)
    }

    /// [`RowAccumulator::fold_into`] over streams looked up by index
    /// through `stream`, so the simulator can fold straight out of its
    /// scratch storage without building a slice of references.
    pub(crate) fn fold_with<'s, L>(
        &mut self,
        num_streams: usize,
        stream: L,
        cols: usize,
        out: &mut Vec<MergeItem>,
    ) -> u64
    where
        L: Fn(usize) -> &'s [MergeItem],
    {
        if self.values.len() < cols {
            self.values.resize(cols, 0.0);
            self.stamps.resize(cols, 0);
        }
        out.clear();
        self.cursors.clear();
        self.cursors.resize(num_streams, 0);

        // `u64::MAX` is above every packed row (`coord >> 32 < 2^32`).
        const NO_ROW: u64 = u64::MAX;
        let mut row = NO_ROW;
        let mut total = 0usize;
        for k in 0..num_streams {
            let s = stream(k);
            debug_assert!(
                sparch_engine::item::is_sorted(s),
                "input {k} is not sorted by coordinate"
            );
            total += s.len();
            if let Some(first) = s.first() {
                row = row.min(first.coord >> 32);
            }
        }
        out.reserve(total);

        let RowAccumulator {
            values,
            stamps,
            generation,
            touched,
            cursors,
        } = self;
        let mut adds = 0u64;
        while row != NO_ROW {
            *generation += 1;
            let g = *generation;
            let mut next = NO_ROW;
            for (k, cursor) in cursors.iter_mut().enumerate() {
                let s = stream(k);
                let mut pos = *cursor;
                while let Some(item) = s.get(pos) {
                    let r = item.coord >> 32;
                    if r != row {
                        next = next.min(r);
                        break;
                    }
                    let c = item.coord as u32 as usize;
                    if stamps[c] == g {
                        values[c] += item.value;
                        adds += 1;
                    } else {
                        stamps[c] = g;
                        values[c] = item.value;
                        touched.push(c as u32);
                    }
                    pos += 1;
                }
                *cursor = pos;
            }
            touched.sort_unstable();
            let base = row << 32;
            out.extend(touched.iter().map(|&c| MergeItem {
                coord: base | c as u64,
                value: values[c as usize],
            }));
            touched.clear();
            row = next;
        }
        adds
    }
}

/// Inputs to the per-round cycle model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RoundCost {
    /// Scalar multiplications performed by the multiplier array.
    pub multiplies: u64,
    /// Elements entering the merge tree (leaf + partial streams).
    pub input_elements: u64,
    /// Elements leaving the root after folding.
    pub output_elements: u64,
    /// DRAM bytes moved (all categories).
    pub dram_bytes: u64,
    /// Left-matrix elements streamed this round (fills the look-ahead
    /// FIFO).
    pub mat_a_elements: u64,
    /// Prefetch-buffer line misses this round (replacement-logic
    /// occupancy).
    pub line_misses: u64,
    /// Row fetches that pay unhidden DRAM latency (prefetcher disabled).
    pub unhidden_fetches: u64,
}

/// Architectural constants the cost model needs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostParams {
    /// DRAM bytes per cycle (128 for Table I's HBM).
    pub bytes_per_cycle: f64,
    /// DRAM access latency in cycles.
    pub dram_latency: u64,
    /// Merge-tree layers (pipeline depth).
    pub tree_layers: usize,
    /// Merger throughput in elements per cycle.
    pub merger_width: usize,
    /// Parallel multipliers.
    pub multipliers: usize,
    /// Look-ahead FIFO depth in elements.
    pub lookahead: usize,
    /// Buffer lines (replacement-logic depth grows with `log2(lines)`).
    pub buffer_lines: usize,
    /// Independent DRAM-channel fetchers (latency overlap factor).
    pub fetchers: usize,
}

impl CostParams {
    /// Cycles for one round: `max(memory-bound, compute-bound) + startup`.
    pub fn round_cycles(&self, cost: &RoundCost) -> u64 {
        let mem = (cost.dram_bytes as f64 / self.bytes_per_cycle).ceil() as u64;
        let compute = (cost.multiplies.div_ceil(self.multipliers as u64))
            .max(cost.input_elements.div_ceil(self.merger_width as u64))
            .max(cost.output_elements.div_ceil(self.merger_width as u64));
        mem.max(compute) + self.startup_cycles(cost) + self.overheads(cost)
    }

    /// Per-round startup: first DRAM access latency, merge-tree pipeline
    /// fill, and filling the look-ahead FIFO before multiply can start
    /// ("we need more time to fill the larger FIFO at the start of each
    /// round", §III-D).
    pub fn startup_cycles(&self, cost: &RoundCost) -> u64 {
        let tree_fill = (self.tree_layers as u64) * 4;
        let elements_per_cycle = self.bytes_per_cycle / 12.0;
        let fill_elements = (self.lookahead as u64).min(cost.mat_a_elements);
        let fifo_fill = (fill_elements as f64 / elements_per_cycle).ceil() as u64;
        self.dram_latency + tree_fill + fifo_fill
    }

    /// Serialized overheads: replacement logic occupancy beyond the
    /// 1024-line design point (a reduction tree over line metadata grows
    /// by one level per doubling), and unhidden DRAM latency when the
    /// prefetcher is absent (row fetches stall the multipliers, overlapped
    /// only across the independent channel fetchers).
    pub fn overheads(&self, cost: &RoundCost) -> u64 {
        let extra_levels = (self.buffer_lines.max(1) as f64).log2() - 10.0;
        let replacement = (cost.line_misses as f64 * extra_levels.max(0.0) * 0.6).round() as u64;
        let unhidden =
            cost.unhidden_fetches * self.dram_latency / (self.fetchers as u64).max(1) / 4;
        replacement + unhidden
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparch_engine::item::{is_sorted_unique, stream_of};

    #[test]
    fn kway_merge_matches_oracle() {
        let s1 = stream_of(&[(0, 0, 1.0), (0, 5, 2.0), (3, 3, 3.0)]);
        let s2 = stream_of(&[(0, 0, 10.0), (1, 1, 4.0)]);
        let s3 = stream_of(&[(0, 5, -2.0), (9, 9, 1.0)]);
        let (out, adds) = kway_merge_fold(&[&s1, &s2, &s3]);
        assert!(is_sorted_unique(&out));
        assert_eq!(adds, 2);
        assert_eq!(out.len(), 5);
        assert_eq!(out[0].value, 11.0); // (0,0): 1 + 10
        assert_eq!(out[1].value, 0.0); // (0,5): 2 - 2 (kept as explicit zero)
    }

    #[test]
    fn kway_merge_empty_and_single() {
        let (out, adds) = kway_merge_fold(&[]);
        assert!(out.is_empty());
        assert_eq!(adds, 0);
        let s = stream_of(&[(1, 1, 1.0)]);
        let (out, _) = kway_merge_fold(&[&s]);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn into_variant_matches_and_reuses_buffer() {
        let s1 = stream_of(&[(0, 0, 1.0), (2, 2, 2.0)]);
        let s2 = stream_of(&[(0, 0, 3.0), (1, 1, 4.0)]);
        let (expected, expected_adds) = kway_merge_fold(&[&s1, &s2]);
        let mut out = Vec::new();
        let adds = kway_merge_fold_into(&[&s1, &s2], &mut out);
        assert_eq!(out, expected);
        assert_eq!(adds, expected_adds);
        // A second merge into the same buffer replaces the contents.
        let adds2 = kway_merge_fold_into(&[&s2], &mut out);
        assert_eq!(adds2, 0);
        assert_eq!(out, s2);
    }

    #[test]
    fn kway_merge_matches_engine_tree() {
        use sparch_engine::{MergeTree, MergeTreeConfig};
        let streams: Vec<Vec<MergeItem>> = (0..8)
            .map(|k| {
                (0..40u32)
                    .map(|i| MergeItem::new(i, k, 1.0 + k as f64))
                    .collect()
            })
            .collect();
        let refs: Vec<&[MergeItem]> = streams.iter().map(|s| s.as_slice()).collect();
        let (fast, _) = kway_merge_fold(&refs);
        let tree = MergeTree::new(MergeTreeConfig {
            layers: 3,
            ..Default::default()
        });
        let (slow, _) = tree.merge(streams.clone());
        assert_eq!(fast, slow, "functional and cycle models must agree");
    }

    fn params() -> CostParams {
        CostParams {
            bytes_per_cycle: 128.0,
            dram_latency: 64,
            tree_layers: 6,
            merger_width: 16,
            multipliers: 16,
            lookahead: 8192,
            buffer_lines: 1024,
            fetchers: 16,
        }
    }

    #[test]
    fn memory_bound_round() {
        let cost = RoundCost {
            multiplies: 100,
            input_elements: 100,
            output_elements: 80,
            dram_bytes: 128_000,
            mat_a_elements: 0,
            ..Default::default()
        };
        let cycles = params().round_cycles(&cost);
        // 1000 memory cycles dominate the ~7 compute cycles.
        assert!(cycles >= 1000 + 64);
        assert!(cycles < 1200);
    }

    #[test]
    fn compute_bound_round() {
        let cost = RoundCost {
            multiplies: 160_000,
            input_elements: 160_000,
            output_elements: 100_000,
            dram_bytes: 1280,
            ..Default::default()
        };
        let cycles = params().round_cycles(&cost);
        assert!(cycles >= 10_000, "16e4 multiplies / 16 per cycle");
    }

    #[test]
    fn lookahead_fill_charged_once_per_round() {
        let mut p = params();
        let cost = RoundCost {
            mat_a_elements: 100_000,
            ..Default::default()
        };
        let small = p.startup_cycles(&cost);
        p.lookahead = 16384;
        let large = p.startup_cycles(&cost);
        assert!(large > small, "bigger look-ahead FIFO fills longer");
    }

    #[test]
    fn unhidden_latency_penalizes_missing_prefetcher() {
        let p = params();
        let cost = RoundCost {
            unhidden_fetches: 10_000,
            ..Default::default()
        };
        assert!(p.overheads(&cost) > 0);
        let cost_hidden = RoundCost::default();
        assert_eq!(p.overheads(&cost_hidden), 0);
    }

    #[test]
    fn replacement_overhead_only_beyond_design_point() {
        let mut p = params();
        let cost = RoundCost {
            line_misses: 100_000,
            ..Default::default()
        };
        assert_eq!(p.overheads(&cost), 0, "1024 lines is the design point");
        p.buffer_lines = 4096;
        assert!(p.overheads(&cost) > 0);
    }
}
