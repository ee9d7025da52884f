//! End-to-end MIND benchmark.
//!
//! One command measures MIND through its public APIs only: `mind-node`
//! processes over `mind_runtime::ControlClient` (workloads `ingest` and
//! `query_mixed`) and `mind_core::MindCluster` over the simulator `World`
//! (workload `sim_paper`). Every input is generated from `--seed`, every
//! answer is checked, and the last stdout line is one JSON object with the
//! run's metrics. `--trace 1` adds a traced pass that records a span around
//! every call into a layer, replays the layers that live inside `mind-node`
//! on the same rows and rectangles, and reports the per-layer metrics.

pub mod cluster;
pub mod inputs;
pub mod layers;
pub mod report;
pub mod sim;
pub mod stats;
pub mod tcp;
pub mod trace;

use report::Report;
use std::io;
use std::path::Path;
use trace::Tracer;

/// Writes the traced run's spans beside the run's scratch directory `work`
/// and records how many there were.
pub fn finish_trace(
    r: &mut Report,
    tr: &Tracer,
    work: &Path,
    workload: &str,
    seed: u64,
) -> io::Result<()> {
    let dir = work.parent().unwrap_or(work);
    std::fs::create_dir_all(dir)?;
    tr.write_tsv(&dir.join(format!("spans-{workload}-seed{seed}.tsv")))?;
    r.layers.insert("trace.spans", tr.spans().len() as f64);
    Ok(())
}
