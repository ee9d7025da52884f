//! The benchmark's inputs are a pure function of `--seed`, and the
//! simulated workload replays exactly.
//!
//! Run with `cargo test --release --manifest-path e2ebench/Cargo.toml`.

use mind_e2ebench::inputs::{self, Stream, BATCH};
use mind_e2ebench::report::{END_TO_END, PER_LAYER_TCP};
use mind_e2ebench::sim;
use mind_e2ebench::trace::Tracer;
use std::time::Instant;

fn tcp_inputs(seed: u64) -> impl PartialEq + std::fmt::Debug {
    let ingest = inputs::batches(seed, Stream::Ingest, 8, BATCH);
    (
        inputs::batches(seed, Stream::Preload, 8, BATCH),
        inputs::batches(seed, Stream::Trickle, 8, 8),
        (0..16)
            .map(|k| inputs::mixed_query(seed, k))
            .collect::<Vec<_>>(),
        (0..16)
            .map(|k| inputs::spot_query(seed, k))
            .collect::<Vec<_>>(),
        ingest,
    )
}

#[test]
fn tcp_inputs_are_a_pure_function_of_the_seed() {
    assert_eq!(tcp_inputs(7), tcp_inputs(7));
}

#[test]
fn another_seed_changes_every_tcp_input() {
    let (a, b) = (
        inputs::batches(7, Stream::Ingest, 4, BATCH),
        inputs::batches(8, Stream::Ingest, 4, BATCH),
    );
    assert_ne!(a, b);
    assert_ne!(
        inputs::batches(7, Stream::Preload, 4, BATCH),
        inputs::batches(8, Stream::Preload, 4, BATCH)
    );
    assert_ne!(
        inputs::batches(7, Stream::Trickle, 4, 8),
        inputs::batches(8, Stream::Trickle, 4, 8)
    );
    let qa: Vec<_> = (0..8).map(|k| inputs::mixed_query(7, k)).collect();
    let qb: Vec<_> = (0..8).map(|k| inputs::mixed_query(8, k)).collect();
    assert_ne!(qa, qb);
    let sa: Vec<_> = (0..8).map(|k| inputs::spot_query(7, k)).collect();
    let sb: Vec<_> = (0..8).map(|k| inputs::spot_query(8, k)).collect();
    assert_ne!(sa, sb);
    // Streams of one seed are independent of each other.
    assert_ne!(a, inputs::batches(7, Stream::Preload, 4, BATCH));
}

fn sim_run(seed: u64) -> sim::SimOutcome {
    let mut world = sim::setup(seed, sim::span_for(0.0));
    sim::run(&mut world, &mut Tracer::new(false, Instant::now(), 0)).sim_part()
}

#[test]
fn sim_paper_replays_identically_and_depends_on_the_seed() {
    let a = sim_run(3);
    assert!(a.inserted > 0 && a.queries > 0, "the run must do work");
    assert_eq!(
        a,
        sim_run(3),
        "same seed, same sim-time metrics and counters"
    );
    let (fa, qa) = sim::inputs(3, 600);
    let (fb, qb) = sim::inputs(4, 600);
    assert_ne!(fa, fb, "another seed changes the traffic feed");
    assert_ne!(
        qa.iter().map(|q| q.rect.clone()).collect::<Vec<_>>(),
        qb.iter().map(|q| q.rect.clone()).collect::<Vec<_>>(),
        "another seed changes the queries"
    );
}

#[test]
fn benchmark_json_names_every_reported_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER_TCP) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let listed = json.matches("\"name\": ").count();
    assert_eq!(
        listed,
        END_TO_END.len() + PER_LAYER_TCP.len() + 2,
        "two workloads plus every metric"
    );
}
