//! Shard worker process for the dist-shards workload: the same entry
//! point as the repository's `sparch-dist-worker`, built into this
//! package so the coordinator finds it beside the benchmark executable.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = sparch::dist::worker::run_from_args(&args) {
        eprintln!("sparch-dist-worker: {e}");
        std::process::exit(1);
    }
}
