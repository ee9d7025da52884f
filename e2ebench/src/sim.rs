//! `sim_paper`: the paper's 34-node Abilene + GÉANT baseline at paper
//! calibration, driven through `MindCluster` over the simulator `World`.
//!
//! The deployment (sites, PlanetLab load factors, simulator RNG) is fixed
//! at [`WORLD_SEED`]; `--seed` drives the traffic feed, the link outages and
//! the queries. Queries are random five-minute monitoring queries issued
//! during the feed from random origins, each checked against the
//! centralized oracle. Their window ends [`LAG_S`] trace seconds before the
//! query is issued, so every row it covers was inserted before the query.

use crate::layers;
use crate::report::Report;
use crate::stats::{median, percentile, ratio, sorted};
use crate::trace::Tracer;
use mind_bench::harness::{
    answers_match, balanced_cuts, baseline_cluster, inject_random_outages, install_index,
    oracle_answer, paper_dac_costs, random_query, ExperimentScale, IndexKind, TrafficDriver,
    WINDOW,
};
use mind_core::audit::snapshot_node;
use mind_core::{MindCluster, Replication};
use mind_histogram::CutTree;
use mind_types::node::SECONDS;
use mind_types::{HyperRect, NodeId, Record};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Seed of the simulated deployment (Figure 10's).
pub const WORLD_SEED: u64 = 10;
/// Trace second the feed starts at (11:00, as in Figure 10).
pub const T0: u64 = 11 * 3600;
/// Timestamp bound of the index schema: one day.
pub const TS_BOUND: u64 = 86_400;
/// How far a query's window ends before the trace time it is issued at.
pub const LAG_S: u64 = 120;
/// Cut-tree depth of the Octets index.
pub const CUT_DEPTH: u8 = 10;
/// Trace seconds between queries.
pub const QUERY_EVERY_S: u64 = 2;
/// Simulated time allowed after the feed for inserts and queries to finish.
pub const DRAIN_S: u64 = 90;
/// Simulated feed seconds per second of `--seconds`.
pub const SIM_S_PER_WALL_S: u64 = 60;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Traffic volume multiplier on the synthetic Abilene + GÉANT feed.
pub const SIM_VOLUME: f64 = 5.0;
const KIND: IndexKind = IndexKind::Octets;

/// One query of the plan.
#[derive(Debug, Clone)]
pub struct PlannedQuery {
    /// Trace second it is issued at.
    pub at: u64,
    /// Issuing node.
    pub origin: NodeId,
    /// The monitoring rectangle.
    pub rect: HyperRect,
}

/// Feed rows per 30-second window: `(window start, [(router, row)])`.
pub type Feed = Vec<(u64, Vec<(u16, Record)>)>;

/// A built world plus its generated inputs.
pub struct SimWorld {
    cluster: MindCluster,
    /// The traffic feed.
    pub feed: Feed,
    /// Queries in issue order.
    pub queries: Vec<PlannedQuery>,
    cuts: CutTree,
    /// Wall seconds spent generating the feed.
    pub gen_s: f64,
    span_s: u64,
}

/// Feed seconds of a run of `seconds`.
pub fn span_for(seconds: f64) -> u64 {
    ((seconds * SIM_S_PER_WALL_S as f64) as u64).max(LAG_S + 360)
}

/// The traffic feed and query plan of `seed` over `span_s` trace seconds.
pub fn inputs(seed: u64, span_s: u64) -> (Feed, Vec<PlannedQuery>) {
    let driver = TrafficDriver::abilene_geant(
        seed,
        ExperimentScale {
            volume: SIM_VOLUME,
            hours: 1,
        },
    );
    let mut feed = Vec::new();
    let mut w = T0;
    while w < T0 + span_s {
        let mut rows = Vec::new();
        for r in 0..driver.routers() as u16 {
            for agg in driver.window_aggregates(0, w, r) {
                if let Some(rec) = KIND.record(&agg) {
                    rows.push((r, rec));
                }
            }
        }
        feed.push((w, rows));
        w += WINDOW;
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5117_0E55);
    let n = span_s / QUERY_EVERY_S;
    let mut at: Vec<u64> = (0..n)
        .map(|_| rng.random_range(T0 + 300 + LAG_S..T0 + span_s))
        .collect();
    at.sort_unstable();
    let queries = at
        .into_iter()
        .map(|at| PlannedQuery {
            at,
            origin: NodeId(rng.random_range(0..driver.routers() as u32)),
            rect: random_query(KIND, &mut rng, at - LAG_S),
        })
        .collect();
    (feed, queries)
}

/// Builds the world, generates the inputs and installs the index.
pub fn setup(seed: u64, span_s: u64) -> SimWorld {
    let g = Instant::now();
    let (feed, queries) = inputs(seed, span_s);
    let gen_s = g.elapsed().as_secs_f64();
    let driver = TrafficDriver::abilene_geant(
        seed,
        ExperimentScale {
            volume: SIM_VOLUME,
            hours: 1,
        },
    );
    let mut cluster = baseline_cluster(WORLD_SEED);
    let cuts = balanced_cuts(KIND, &driver, TS_BOUND, CUT_DEPTH, T0 - 3_600, T0 + span_s);
    install_index(
        &mut cluster,
        KIND,
        cuts.clone(),
        TS_BOUND,
        Replication::Level(1),
    );
    inject_random_outages(&mut cluster, seed, (span_s / 75) as usize, span_s * SECONDS);
    SimWorld {
        cluster,
        feed,
        queries,
        cuts,
        gen_s,
        span_s,
    }
}

/// What one feed run produced. Everything but the wall times is a pure
/// function of the seed.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// Simulated insert latencies, origin to durably stored, µs.
    pub insert_lat_us: Vec<u64>,
    /// Simulated latencies of the complete queries, µs.
    pub query_lat_us: Vec<u64>,
    /// Overlay hops of every stored insert.
    pub hops: Vec<u32>,
    /// Rows inserted.
    pub inserted: u64,
    /// Rows stored as primaries after the drain.
    pub stored: u64,
    /// Queries issued.
    pub queries: u64,
    /// Queries incomplete or not matching the oracle.
    pub wrong_answers: u64,
    /// Of those: complete answers with fewer rows than the oracle, and
    /// complete answers with more (duplicated) rows.
    pub short_answers: u64,
    /// See `short_answers`.
    pub long_answers: u64,
    /// Σ `cost_nodes` over the complete queries.
    pub cost_nodes: u64,
    /// Summed node counters: inserts originated, retries sent, acks
    /// received, query retries, duplicate ops ignored, undeliverable.
    pub core: [u64; 6],
    /// World counters: delivered, timers fired, requeued busy, pending
    /// peak, Σ link data messages, Σ link queue delay (µs).
    pub netsim: [u64; 6],
    /// Modelled DAC busy time of the busiest node, µs of simulated time.
    pub dac_busiest_us: u64,
    /// Simulated time the feed and drain covered, µs.
    pub sim_elapsed_us: u64,
    /// Wall seconds of the feed and drain.
    pub wall_s: f64,
}

impl SimOutcome {
    /// The seed-determined part, for replay comparisons.
    pub fn sim_part(&self) -> SimOutcome {
        SimOutcome {
            wall_s: 0.0,
            ..self.clone()
        }
    }
}

/// Streams the feed, issues the queries, drains, and checks every answer.
pub fn run(world: &mut SimWorld, tr: &mut Tracer) -> SimOutcome {
    let tag = KIND.tag();
    let schema = KIND.schema(TS_BOUND);
    let c = &mut world.cluster;
    let base = c.now();
    let at = |s: u64| base + (s - T0) * SECONDS;
    let mut oracle: Vec<(IndexKind, Record)> = Vec::new();
    let mut issued = Vec::with_capacity(world.queries.len());
    let mut next_q = 0;
    let wall = Instant::now();
    let mut issue_until = |c: &mut MindCluster, tr: &mut Tracer, upto: u64, issued: &mut Vec<_>| {
        while let Some(q) = world.queries.get(next_q).filter(|q| q.at <= upto) {
            tr.span("netsim.run_until", next_q as u64, |_| c.run_until(at(q.at)));
            let qid = tr
                .span("core.query", next_q as u64, |_| {
                    c.query(q.origin, tag, q.rect.clone(), vec![])
                })
                .expect("the index exists on every node");
            issued.push((q.origin, qid, q.rect.clone()));
            next_q += 1;
        }
    };
    for (w, rows) in &world.feed {
        issue_until(c, tr, *w, &mut issued);
        tr.span("netsim.run_until", *w, |_| c.run_until(at(*w)));
        for (r, rec) in rows {
            oracle.push((
                KIND,
                rec.clone().conform(&schema).expect("feed rows conform"),
            ));
            tr.span("core.insert", *w, |_| {
                c.insert(NodeId(u32::from(*r)), tag, rec.clone())
            })
            .expect("the index exists on every node");
        }
    }
    issue_until(c, tr, u64::MAX, &mut issued);
    let end = at(T0 + world.span_s);
    tr.span("netsim.run_until", 0, |_| c.run_until(end));
    tr.span("netsim.run_for", 0, |_| c.run_for(DRAIN_S * SECONDS));
    let wall_s = wall.elapsed().as_secs_f64();

    let mut query_lat_us = Vec::new();
    let (mut wrong_answers, mut short_answers, mut long_answers, mut cost_nodes) = (0, 0, 0, 0);
    for (origin, qid, rect) in &issued {
        match c.query_outcome(*origin, *qid) {
            Some(o) if o.complete => {
                let want = oracle_answer(&oracle, KIND, rect);
                let (got, wanted) = (o.records.len(), want.len());
                if !answers_match(o.records.clone(), want) {
                    wrong_answers += 1;
                    short_answers += u64::from(got < wanted);
                    long_answers += u64::from(got > wanted);
                }
                query_lat_us.extend(o.latency);
                cost_nodes += o.cost_nodes as u64;
            }
            _ => wrong_answers += 1,
        }
    }
    let costs = paper_dac_costs();
    let mut core = [0u64; 6];
    let mut dac_busiest_us = 0;
    for k in 0..c.len() {
        let id = NodeId(k as u32);
        let tag = tag.to_string();
        let (m, busy) = c.read_node(id, move |n| {
            let m = &n.metrics;
            let snap = snapshot_node(id, true, n);
            let rows: u64 = snap.indexes.get(&tag).map_or(0, |i| {
                i.versions
                    .iter()
                    .map(|v| v.primary_rows + v.replica_rows)
                    .sum()
            });
            let busy = rows * costs.per_insert
                + m.subqueries_answered * costs.per_query
                + m.records_served * costs.per_result;
            (
                [
                    m.inserts_originated,
                    m.retries_sent,
                    m.acks_received,
                    m.query_retries,
                    m.dup_ops_ignored,
                    m.undeliverable,
                ],
                busy,
            )
        });
        for (acc, v) in core.iter_mut().zip(m) {
            *acc += v;
        }
        dac_busiest_us = dac_busiest_us.max(busy);
    }
    let st = &c.world().stats;
    let (data, delay) = st.per_link.values().fold((0, 0), |(d, q), l| {
        (d + l.data_messages, q + l.total_queue_delay)
    });
    SimOutcome {
        insert_lat_us: c.insert_latency_samples(),
        query_lat_us,
        hops: c.insert_hops(),
        inserted: oracle.len() as u64,
        stored: c.total_primary_rows(tag),
        queries: issued.len() as u64,
        wrong_answers,
        short_answers,
        long_answers,
        cost_nodes,
        core,
        netsim: [
            st.delivered,
            st.timers_fired,
            st.requeued_busy,
            st.pending_events_peak,
            data,
            delay,
        ],
        dac_busiest_us,
        sim_elapsed_us: c.now() - base,
        wall_s,
    }
}

/// Runs the `sim_paper` workload.
pub fn sim_paper(
    seed: u64,
    seconds: f64,
    trace: bool,
    work: &std::path::Path,
    r: &mut Report,
) -> std::io::Result<()> {
    let span_s = span_for(seconds);
    // Every set-up builds an identical world; each one also runs the feed,
    // so the wall-clock figures are medians and the simulated ones must
    // replay exactly.
    let (mut setup_s, mut gen_s, mut feed_s) = (vec![], vec![], vec![]);
    let mut first: Option<SimOutcome> = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let mut world = setup(seed, span_s);
        setup_s.push(t.elapsed().as_secs_f64());
        gen_s.push(world.gen_s);
        let o = run(&mut world, &mut Tracer::new(false, Instant::now(), 0));
        feed_s.push(o.wall_s);
        match &first {
            None => first = Some(o),
            Some(f) if f.sim_part() != o.sim_part() => {
                r.check_failures
                    .push("same-seed worlds did not replay identically".into());
            }
            Some(_) => {}
        }
    }
    let o = first.expect("at least one set-up ran");
    let wall_s = median(&feed_s);
    r.attempted = o.inserted + o.queries;
    r.failed = o.wrong_answers + o.inserted.saturating_sub(o.stored);
    let rss = crate::stats::peak_rss_mb("self").unwrap_or(0.0);

    let ins = sorted(o.insert_lat_us.iter().map(|&v| v as f64 / 1e3).collect());
    let q = sorted(o.query_lat_us.iter().map(|&v| v as f64 / 1e3).collect());
    r.e2e.insert("setup_s", median(&setup_s));
    r.e2e.insert("peak_rss_mb", rss);
    r.e2e
        .insert("ingest_rows_per_s", ratio(o.stored as f64, wall_s));
    r.e2e.insert("query_p50_ms", percentile(&q, 50.0));
    r.e2e.insert("query_p90_ms", percentile(&q, 90.0));
    let sim_hours = o.sim_elapsed_us as f64 / 3.6e9;
    r.detail("sim_insert_p50_s", percentile(&ins, 50.0) / 1e3, "sim-s");
    r.detail("sim_insert_p99_s", percentile(&ins, 99.0) / 1e3, "sim-s");
    r.detail("sim_query_p50_s", percentile(&q, 50.0) / 1e3, "sim-s");
    r.detail("sim_query_p99_s", percentile(&q, 99.0) / 1e3, "sim-s");
    r.detail("sim_wall_per_simhour_s", ratio(wall_s, sim_hours), "s");
    r.detail("insert_samples", ins.len() as f64, "count");
    r.detail("query_samples", q.len() as f64, "count");
    r.detail("feed_span", span_s as f64, "sim-s");
    r.detail(
        "wrong_or_incomplete_answers",
        o.wrong_answers as f64,
        "count",
    );
    r.detail(
        "complete_answers_missing_rows",
        o.short_answers as f64,
        "count",
    );
    r.detail(
        "complete_answers_with_extra_rows",
        o.long_answers as f64,
        "count",
    );
    r.detail(
        "rows_not_stored",
        o.inserted.saturating_sub(o.stored) as f64,
        "count",
    );
    r.detail("feed_wall_s", wall_s, "s");

    if trace {
        let mut world = setup(seed, span_s);
        let mut tr = Tracer::new(true, Instant::now(), 0);
        let t0 = tr.now_ns();
        let t = run(&mut world, &mut tr);
        let t1 = tr.now_ns();
        r.attempted += t.inserted + t.queries;
        r.failed += t.wrong_answers + t.inserted.saturating_sub(t.stored);
        let totals = tr.totals();
        let self_ns = |name: &str| totals.get(name).map_or(0, |s| s.self_ns) as f64;
        let count = |name: &str| totals.get(name).map_or(0, |s| s.count) as f64;
        let run_ns = self_ns("netsim.run_until") + self_ns("netsim.run_for");
        let [delivered, timers, requeued, pending_peak, data, delay] = t.netsim.map(|v| v as f64);
        let events = delivered + timers;
        let [originated, retries, acks, qretries, dups, undeliverable] = t.core.map(|v| v as f64);
        r.layers
            .insert("netsim.run_share", ratio(run_ns, (t1 - t0) as f64));
        r.layers
            .insert("netsim.ns_per_event", ratio(run_ns, events));
        r.layers.insert(
            "netsim.events_per_op",
            ratio(events, (t.inserted + t.queries) as f64),
        );
        r.layers
            .insert("netsim.queue_delay_mean_ms", ratio(delay, data) / 1e3);
        r.layers.insert(
            "netsim.requeued_busy_per_delivery",
            ratio(requeued, delivered),
        );
        r.layers.insert("netsim.pending_events_peak", pending_peak);
        r.layers
            .insert("netsim.wall_s_per_simhour", ratio(t.wall_s, sim_hours));
        r.layers.insert(
            "core.insert_call_ns",
            ratio(self_ns("core.insert"), count("core.insert")),
        );
        r.layers
            .insert("core.retries_per_op", ratio(retries, originated));
        r.layers.insert("core.ack_ratio", ratio(acks, originated));
        r.layers.insert("core.query_retries", qretries);
        r.layers.insert("core.dup_ops_ignored", dups);
        r.layers.insert("core.undeliverable", undeliverable);
        r.layers.insert(
            "core.subqueries_per_query",
            ratio(t.cost_nodes as f64, t.query_lat_us.len() as f64),
        );
        r.layers.insert(
            "core.dac_model_share",
            ratio(t.dac_busiest_us as f64, t.sim_elapsed_us as f64),
        );
        let hops = sorted(t.hops.iter().map(|&h| f64::from(h)).collect());
        r.layers.insert("overlay.hops_p50", percentile(&hops, 50.0));
        r.layers.insert("overlay.hops_p99", percentile(&hops, 99.0));
        r.layers.insert("traffic.gen_s", median(&gen_s));
        r.layers
            .insert("trace.overhead_share", t.wall_s / wall_s - 1.0);
        r.layers.insert(
            "trace.unattributed_share",
            1.0 - ratio(tr.covered_ns(t0, t1) as f64, (t1 - t0) as f64),
        );

        let rows: Vec<Record> = world
            .feed
            .iter()
            .flat_map(|(_, v)| v.iter().map(|(_, rec)| rec.clone()))
            .collect();
        let rects: Vec<HyperRect> = world.queries.iter().map(|q| q.rect.clone()).collect();
        let min_len = world.cluster.topology().code(0).len();
        r.layers.insert(
            "histogram.code_ns_per_row",
            layers::code_ns_per_row(&mut tr, &world.cuts, 3, &rows),
        );
        let (cover_ns, codes) = layers::cover(&mut tr, &world.cuts, &rects, min_len);
        r.layers.insert("histogram.cover_ns_per_query", cover_ns);
        r.layers.insert("histogram.codes_per_query", codes);
        let st = layers::store(&mut tr, 3, &rows, &rects);
        r.layers
            .insert("store.insert_ns_per_row", st.insert_ns_per_row);
        r.layers
            .insert("store.scan_ns_per_query", st.scan_ns_per_query);
        r.layers
            .insert("store.scan_ns_per_result", st.scan_ns_per_result);
        crate::finish_trace(r, &tr, work, "sim_paper", seed)?;
    }
    Ok(())
}
