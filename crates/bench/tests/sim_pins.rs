//! Pins the simulator's modelled numbers on a slice of the suite.
//!
//! Five suite surrogates (one per structural class) at scale 0.002 run
//! under four configurations that drive the execute stage differently:
//! the default 64-way single-round tree, the condensing ablation (many
//! more leaves), and 2- and 8-layer trees (deep multi-round schedules and
//! a 256-way fan-in). For each run the test pins the cycle estimate, DRAM
//! bytes per traffic category, the adder count and the result matrix's
//! fingerprint. Any change to the simulator's functional fold or cost
//! accounting that moves one of these numbers fails here, so a speed-up
//! of the execute stage must leave every value bit-identical.

use sparch_bench::catalog;
use sparch_core::{SpArchConfig, SpArchSim};
use sparch_mem::TrafficCategory;

const SCALE: f64 = 0.002;

const MATRICES: [&str; 5] = [
    "2cubes_sphere",
    "ca-CondMat",
    "cage12",
    "roadNet-CA",
    "scircuit",
];

fn configs() -> [(&'static str, SpArchConfig); 4] {
    [
        ("default", SpArchConfig::default()),
        ("no-condense", SpArchConfig::default().without_condensing()),
        ("layers-2", SpArchConfig::default().with_tree_layers(2)),
        ("layers-8", SpArchConfig::default().with_tree_layers(8)),
    ]
}

/// One pinned run: `(matrix, config, cycles, traffic bytes in
/// `TrafficCategory::ALL` order, adds, result fingerprint)`.
type Pin = (&'static str, &'static str, u64, [u64; 5], u64, u64);

/// Values recorded with the seed `BinaryHeap` fold, before the row-wise
/// fold replaced it.
#[rustfmt::skip]
const PINS: &[Pin] = &[
    ("2cubes_sphere", "default", 11421, [98928, 98928, 0, 0, 1154352], 37229, 3810826008947749846),
    ("2cubes_sphere", "no-condense", 38545, [98928, 98928, 1690176, 1690176, 1154352], 37229, 2079509829831231929),
    ("2cubes_sphere", "layers-2", 47425, [98928, 98928, 2262976, 2262976, 1154352], 37229, 4885010644647814774),
    ("2cubes_sphere", "layers-8", 11429, [98928, 98928, 0, 0, 1154352], 37229, 3810826008947749846),
    ("ca-CondMat", "default", 7346, [38544, 37464, 12768, 12768, 591672], 56644, 6221725755200076253),
    ("ca-CondMat", "no-condense", 8347, [38544, 37464, 98608, 98608, 591672], 56644, 6221725755200076253),
    ("ca-CondMat", "layers-2", 29510, [38544, 37464, 1287952, 1287952, 591672], 56644, 6221725755200076253),
    ("ca-CondMat", "layers-8", 6999, [38544, 37464, 0, 0, 591672], 56644, 6221725755200076253),
    ("cage12", "default", 11701, [95892, 95892, 0, 0, 1198584], 25556, 10355323101357844276),
    ("cage12", "no-condense", 37073, [95892, 95892, 1578272, 1578272, 1198584], 25556, 5614544597181893561),
    ("cage12", "layers-2", 47275, [95892, 95892, 2235792, 2235792, 1198584], 25556, 1529926441858165005),
    ("cage12", "layers-8", 11709, [95892, 95892, 0, 0, 1198584], 25556, 10355323101357844276),
    ("roadNet-CA", "default", 5975, [155160, 162024, 0, 0, 338024], 16872, 11236547177174863917),
    ("roadNet-CA", "no-condense", 20542, [155160, 155160, 555456, 555456, 338024], 16872, 11616267672073970582),
    ("roadNet-CA", "layers-2", 7109, [155160, 171648, 57440, 57440, 338024], 16872, 11236547177174863917),
    ("roadNet-CA", "layers-8", 5983, [155160, 162024, 0, 0, 338024], 16872, 11236547177174863917),
    ("scircuit", "default", 2081, [34308, 34308, 0, 0, 151956], 3602, 14863614864320427251),
    ("scircuit", "no-condense", 5871, [34308, 34308, 197072, 197072, 151956], 3602, 11524868485051386551),
    ("scircuit", "layers-2", 4326, [34308, 34308, 130736, 130736, 151956], 3602, 4324751696780357574),
    ("scircuit", "layers-8", 2089, [34308, 34308, 0, 0, 151956], 3602, 14863614864320427251),
];

#[test]
fn simulator_reports_match_pinned_values() {
    let entries = catalog();
    let mut actual: Vec<String> = Vec::new();
    let mut mismatches = 0usize;
    for name in MATRICES {
        let entry = entries
            .iter()
            .find(|e| e.name == name)
            .expect("suite entry");
        let a = entry.build(SCALE);
        for (label, config) in configs() {
            let report = SpArchSim::new(config).run(&a, &a);
            let traffic = TrafficCategory::ALL.map(|c| report.traffic.bytes(c));
            let got: Pin = (
                name,
                label,
                report.perf.cycles,
                traffic,
                report.activity.adds,
                report.result().fingerprint(),
            );
            actual.push(format!("    {got:?},"));
            let pinned = PINS.iter().find(|p| p.0 == name && p.1 == label);
            if pinned != Some(&got) {
                mismatches += 1;
            }
        }
    }
    assert_eq!(
        mismatches,
        0,
        "{mismatches} simulator runs moved from their pinned values; actual:\n{}",
        actual.join("\n")
    );
}
