//! The two loopback workloads on a 4-process `mind-node` cluster.
//!
//! * `ingest`: a closed loop of [`CLIENTS`] connections, each with one
//!   64-row `Insert` outstanding, sends a fixed row count; the clock stops
//!   when the summed `PrimaryRows` equals the rows acked. Once every row
//!   has its replica and each owner has answered one settling query,
//!   spot-check queries verify what was stored.
//! * `query_mixed`: rows preloaded and stored during set-up; one
//!   closed-loop query client (three narrow windows to one wide) beside an
//!   open-loop `Insert` trickle at a fixed rate.

use crate::cluster::{self, audit_clean, err, ProcCluster, INDEX};
use crate::inputs::{self, QueryKind, Stream, BATCH};
use crate::layers;
use crate::report::Report;
use crate::stats::{mean, median, percentile, ratio, sorted};
use crate::trace::Tracer;
use mind_audit::NodeSnapshot;
use mind_core::{QueryOutcome, Replication};
use mind_histogram::CutTree;
use mind_overlay::StaticTopology;
use mind_runtime::loadgen::load_schema;
use mind_runtime::ControlRequest;
use mind_store::DacCostModel;
use mind_types::{BitCode, HyperRect, Record};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Node processes per cluster.
pub const NODES: usize = 4;
/// Closed-loop insert connections.
pub const CLIENTS: usize = 2;
/// Cluster set-ups per run; `setup_s` is their median. `query_mixed`
/// makes a timed pass on each (pooling latency samples, taking medians of
/// rates and memory); `ingest` makes one long pass on the last.
pub const PASSES: usize = 3;
/// `ingest` rows per second of `--seconds` (a fixed amount of work).
pub const INGEST_ROWS_PER_S: u64 = 4_000;
/// `ingest` spot-check queries, after the drain: narrow monitoring
/// windows, enough for 12 samples beyond the p90.
pub const SPOT_QUERIES: u64 = 128;
/// `query_mixed` preloaded batches.
pub const PRELOAD_BATCHES: u64 = 250;
/// `query_mixed` trickle rate, `Insert` requests per second.
pub const TRICKLE_RPS: f64 = 80.0;
/// Rows per trickle request: 640 rows/s, about 5% of the `ingest` ceiling.
pub const TRICKLE_ROWS: usize = 8;
/// Longest wait for acked rows to be stored.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(120);
/// `PrimaryRows` polling interval while draining.
const DRAIN_POLL: Duration = Duration::from_millis(2);

/// What a tcp run needs.
pub struct TcpArgs<'a> {
    /// Input seed.
    pub seed: u64,
    /// Timed-phase length.
    pub seconds: f64,
    /// The `mind-node` binary.
    pub node_bin: &'a Path,
    /// Scratch directory for spec files and node logs.
    pub work: &'a Path,
    /// Also make a traced pass and report the per-layer metrics.
    pub trace: bool,
}

/// Batches `ingest` sends in a run of `seconds`.
pub fn ingest_batches(seconds: f64) -> u64 {
    let rows = INGEST_ROWS_PER_S as f64 * seconds;
    (rows / BATCH as f64).ceil().max(16.0) as u64
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn new_cluster(a: &TcpArgs, dir: &Path) -> io::Result<ProcCluster> {
    let mut c = ProcCluster::spawn(a.node_bin, dir, NODES)?;
    c.create_index(Replication::Level(1))?;
    Ok(c)
}

/// Median control round trip of an idle cluster, µs.
fn ping_rtt_us(c: &mut ProcCluster, tr: &mut Tracer) -> io::Result<f64> {
    let mut v = Vec::with_capacity(200);
    for k in 0..200u64 {
        let node = k as usize % NODES;
        let t = Instant::now();
        tr.span("runtime.ping", k, |_| {
            c.client(node).call(&ControlRequest::Ping)
        })?;
        v.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok(median(&v))
}

/// Outcome of a closed insert loop.
struct Loaded {
    ack_us: Vec<f64>,
    acked_rows: u64,
    refused_rows: u64,
    last_ack_ns: u64,
}

/// Sends `batches` from [`CLIENTS`] connections, each with one request
/// outstanding; batch `b` goes to node `b % NODES`.
fn closed_loop_insert(
    c: &ProcCluster,
    batches: &[Vec<Record>],
    tr: &mut Tracer,
) -> io::Result<Loaded> {
    let next = AtomicU64::new(0);
    let mut conns = Vec::with_capacity(CLIENTS);
    for _ in 0..CLIENTS {
        conns.push(c.connect_all()?);
    }
    let results: Vec<io::Result<(Loaded, Tracer)>> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(i, mut cs)| {
                let mut t = tr.fork(i as u32 + 1);
                let next = &next;
                s.spawn(move || {
                    let mut l = Loaded {
                        ack_us: Vec::new(),
                        acked_rows: 0,
                        refused_rows: 0,
                        last_ack_ns: 0,
                    };
                    loop {
                        // Relaxed: the counter only hands out batch numbers.
                        let b = next.fetch_add(1, Ordering::Relaxed);
                        let Some(rows) = batches.get(b as usize) else {
                            break;
                        };
                        let n = rows.len() as u64;
                        let rows = rows.clone();
                        let t0 = Instant::now();
                        let ok = t.span("runtime.insert", b, |_| {
                            cluster::insert(&mut cs[b as usize % NODES], rows)
                        })?;
                        l.ack_us.push(t0.elapsed().as_secs_f64() * 1e6);
                        if ok {
                            l.acked_rows += n;
                        } else {
                            l.refused_rows += n;
                        }
                    }
                    l.last_ack_ns = t.now_ns();
                    Ok((l, t))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(err("insert client panicked")))
            })
            .collect()
    });
    let mut all = Loaded {
        ack_us: Vec::new(),
        acked_rows: 0,
        refused_rows: 0,
        last_ack_ns: 0,
    };
    for r in results {
        let (l, t) = r?;
        tr.absorb(t);
        all.ack_us.extend(l.ack_us);
        all.acked_rows += l.acked_rows;
        all.refused_rows += l.refused_rows;
        all.last_ack_ns = all.last_ack_ns.max(l.last_ack_ns);
    }
    Ok(all)
}

/// Rows (primary + replica) each node holds for the workload index.
fn rows_held(snaps: &[NodeSnapshot]) -> Vec<u64> {
    snaps
        .iter()
        .map(|s| {
            s.indexes.get(INDEX).map_or(0, |i| {
                i.versions
                    .iter()
                    .map(|v| v.primary_rows + v.replica_rows)
                    .sum()
            })
        })
        .collect()
}

/// The node owning `code` in the balanced `NODES`-node topology.
fn owner(topo: &StaticTopology, code: &BitCode) -> usize {
    topo.owner(code).map_or(0, |n| n.0 as usize)
}

/// Modelled DAC busy time of the busiest node ÷ `wall_s`. Busy time is
/// `DacCostModel::default()` applied to the rows each node stored (primary
/// and replica) plus the sub-queries and result rows each node's region
/// received; per-batch overhead is left out, so this is a lower bound.
fn dac_model_share(
    before: &[NodeSnapshot],
    after: &[NodeSnapshot],
    answered: &[(HyperRect, QueryOutcome)],
    wall_s: f64,
) -> f64 {
    let cost = DacCostModel::default();
    let topo = StaticTopology::balanced(NODES);
    let cuts = CutTree::even(load_schema(INDEX).bounds(), cluster::DEPTH);
    let mut busy_us: Vec<f64> = rows_held(after)
        .iter()
        .zip(rows_held(before))
        .map(|(a, b)| a.saturating_sub(b) as f64 * cost.per_insert as f64)
        .collect();
    let min_len = topo.code(0).len();
    for (rect, out) in answered {
        for code in cuts.covering_codes_at_least(rect, min_len) {
            busy_us[owner(&topo, &code)] += cost.per_query as f64;
        }
        for r in &out.records {
            busy_us[owner(&topo, &cuts.code_for_point(r.point(3)))] += cost.per_result as f64;
        }
    }
    let busiest = busy_us.iter().copied().fold(0.0, f64::max);
    ratio(busiest / 1e6, wall_s)
}

/// Layer replays shared by both tcp workloads.
fn replay_layers(
    r: &mut Report,
    tr: &mut Tracer,
    batches: &[Vec<Record>],
    answered: &[(HyperRect, QueryOutcome)],
) {
    let codec = layers::ctl_codec(tr, INDEX, batches);
    r.layers
        .insert("net.ctl_encode_ns_per_row", codec.encode_ns_per_row);
    r.layers
        .insert("net.ctl_decode_ns_per_row", codec.decode_ns_per_row);
    r.layers
        .insert("net.ctl_bytes_per_row", codec.bytes_per_row);
    let outcomes: Vec<QueryOutcome> = answered.iter().map(|(_, o)| o.clone()).collect();
    r.layers.insert(
        "net.reply_decode_ns_per_result",
        layers::reply_decode_ns_per_result(tr, &outcomes),
    );
    let cuts = CutTree::even(load_schema(INDEX).bounds(), cluster::DEPTH);
    let rows: Vec<Record> = batches.concat();
    let rects: Vec<HyperRect> = answered.iter().map(|(q, _)| q.clone()).collect();
    r.layers.insert(
        "histogram.code_ns_per_row",
        layers::code_ns_per_row(tr, &cuts, 3, &rows),
    );
    let min_len = StaticTopology::balanced(NODES).code(0).len();
    let (cover_ns, codes) = layers::cover(tr, &cuts, &rects, min_len);
    r.layers.insert("histogram.cover_ns_per_query", cover_ns);
    r.layers.insert("histogram.codes_per_query", codes);
    let st = layers::store(tr, 3, &rows, &rects);
    r.layers
        .insert("store.insert_ns_per_row", st.insert_ns_per_row);
    r.layers
        .insert("store.scan_ns_per_query", st.scan_ns_per_query);
    r.layers
        .insert("store.scan_ns_per_result", st.scan_ns_per_result);
}

/// Transport counters summed over nodes: Σ after − Σ before.
fn host_delta(c: &mut ProcCluster, before: &[mind_net::HostStatsSnapshot]) -> io::Result<[u64; 4]> {
    let after = c.host_stats()?;
    let sum = |v: &[mind_net::HostStatsSnapshot]| {
        v.iter().fold([0u64; 4], |acc, s| {
            [
                acc[0] + s.msgs_sent,
                acc[1] + s.sends_dropped,
                acc[2] + s.reconnects,
                acc[3] + s.inbound_throttled,
            ]
        })
    };
    let (a, b) = (sum(&after), sum(before));
    Ok([a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3]])
}

/// Verifies the audit, records memory and shuts the cluster down.
fn finish(r: &mut Report, mut c: ProcCluster) -> io::Result<f64> {
    if !audit_clean(c.snapshots()?) {
        r.check_failures
            .push("fleet audit (settled) not clean".into());
    }
    let rss = c.peak_rss_mb();
    c.shutdown()?;
    Ok(rss)
}

/// Unattributed share of `[from, to)`: time no layer span covered.
fn unattributed(tr: &Tracer, from: u64, to: u64) -> f64 {
    1.0 - ratio(
        tr.covered_ns(from, to) as f64,
        to.saturating_sub(from) as f64,
    )
}

// ---------------------------------------------------------------- ingest

struct IngestPass {
    rows_per_s: f64,
    ack_us: Vec<f64>,
    settle_s: f64,
    spot_ms: Vec<f64>,
    rss_mb: f64,
}

/// Runs the `ingest` workload: [`PASSES`] timed set-ups, then one timed
/// pass on the last cluster. One long pass keeps the memory peak and the
/// stored rate steadier than several short ones.
pub fn ingest(a: &TcpArgs, r: &mut Report) -> io::Result<()> {
    let nb = ingest_batches(a.seconds);
    let setup = |dir: &Path| -> io::Result<(ProcCluster, Vec<Vec<Record>>)> {
        let c = new_cluster(a, dir)?;
        Ok((c, inputs::batches(a.seed, Stream::Ingest, nb, BATCH)))
    };
    let mut setup_s = Vec::with_capacity(PASSES);
    let mut last = None;
    for rep in 0..PASSES {
        let t = Instant::now();
        let (c, batches) = setup(&a.work.join(format!("ingest{rep}")))?;
        setup_s.push(t.elapsed().as_secs_f64());
        if let Some((old, _)) = last.replace((c, batches)) {
            ProcCluster::shutdown(old)?;
        }
    }
    let (c, batches) = last.expect("at least one set-up ran");
    let plain = ingest_pass(
        a,
        r,
        c,
        &batches,
        &mut Tracer::new(false, Instant::now(), 0),
    )?;
    let ack = sorted(plain.ack_us);
    let spot = sorted(plain.spot_ms);
    r.e2e.insert("setup_s", median(&setup_s));
    r.e2e.insert("peak_rss_mb", plain.rss_mb);
    r.e2e.insert("ingest_rows_per_s", plain.rows_per_s);
    r.e2e.insert("query_p50_ms", percentile(&spot, 50.0));
    r.e2e.insert("query_p90_ms", percentile(&spot, 90.0));
    r.detail("insert_ack_p50_us", percentile(&ack, 50.0), "us");
    r.detail("insert_ack_p99_us", percentile(&ack, 99.0), "us");
    r.detail("insert_ack_samples", ack.len() as f64, "count");
    r.detail("settle_s", plain.settle_s, "s");
    r.detail("spot_query_samples", spot.len() as f64, "count");
    if a.trace {
        let (c, batches) = setup(&a.work.join("ingest-traced"))?;
        let mut tr = Tracer::new(true, Instant::now(), 0);
        let traced = ingest_pass(a, r, c, &batches, &mut tr)?;
        r.layers.insert(
            "trace.overhead_share",
            plain.rows_per_s / traced.rows_per_s - 1.0,
        );
        crate::finish_trace(r, &tr, a.work, "ingest", a.seed)?;
    }
    Ok(())
}

fn ingest_pass(
    a: &TcpArgs,
    r: &mut Report,
    mut c: ProcCluster,
    batches: &[Vec<Record>],
    tr: &mut Tracer,
) -> io::Result<IngestPass> {
    let traced = tr.is_on();
    let hs0 = c.host_stats()?;
    let snaps0 = c.snapshots()?;
    if traced {
        r.layers
            .insert("runtime.ping_rtt_us", ping_rtt_us(&mut c, tr)?);
    }
    let sent: u64 = batches.iter().map(|b| b.len() as u64).sum();
    let t_first = tr.now_ns();
    let l = closed_loop_insert(&c, batches, tr)?;
    let conserved = tr.span("runtime.drain", 0, |_| {
        c.wait_stored(l.acked_rows, DRAIN_POLL, DRAIN_TIMEOUT)
    })?;
    let t_stored = tr.now_ns();
    let stored: u64 = c.primary_rows()?.iter().sum();
    let wall_s = secs(t_stored - t_first);
    let host = host_delta(&mut c, &hs0)?;
    let snaps1 = if traced { c.snapshots()? } else { Vec::new() };
    // Replica pushes are still queued behind the primaries; queries issued
    // now would wait behind them. Spot checks run once every row also has
    // its replica.
    let replicated = c.wait_replicated(DRAIN_TIMEOUT)?;
    let t_replicated = tr.now_ns();
    let rows: Vec<Record> = batches.concat();
    let (settle_s, settle_failed) = settle_owners(&mut c, &rows)?;

    // Spot checks on the settled cluster: every answer must be exactly the
    // ingested rows inside its window.
    let mut spot_ms = Vec::with_capacity(SPOT_QUERIES as usize);
    let mut answered = Vec::with_capacity(SPOT_QUERIES as usize);
    let mut poll_gap = Vec::new();
    let mut cost_nodes = Vec::new();
    for k in 0..SPOT_QUERIES {
        let rect = inputs::spot_query(a.seed, k);
        let node = k as usize % NODES;
        let t = Instant::now();
        let out = tr.span("runtime.query", k, |_| {
            cluster::query(c.client(node), &rect)
        })?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        spot_ms.push(ms);
        match out {
            Some(o) => {
                if let Some(l) = o.latency {
                    poll_gap.push(ms - l as f64 / 1e3);
                }
                cost_nodes.push(o.cost_nodes as f64);
                answered.push((rect, o));
            }
            None => r.failed += 1,
        }
    }
    r.attempted += sent + NODES as u64 + SPOT_QUERIES;
    r.failed += settle_failed + l.refused_rows + l.acked_rows.saturating_sub(stored);
    if !conserved {
        r.check_failures.push(format!(
            "rows not conserved: {stored} stored, {} acked",
            l.acked_rows
        ));
    }
    if !replicated {
        r.check_failures
            .push("replicas never caught up with the primaries".into());
    }
    for (rect, o) in &answered {
        let mut got: Vec<Vec<u64>> = o.records.iter().map(|x| x.values().to_vec()).collect();
        got.sort_unstable();
        if !o.complete || got != inputs::in_rect(&rows, rect) {
            r.failed += 1;
        }
    }

    let accept_rows_per_s = ratio(l.acked_rows as f64, secs(l.last_ack_ns - t_first));
    let drain_s = secs(t_stored.saturating_sub(l.last_ack_ns));
    let replica_lag_s = secs(t_replicated - t_stored);
    if traced {
        let ack = sorted(l.ack_us.clone());
        r.layers
            .insert("runtime.insert_ack_p50_us", percentile(&ack, 50.0));
        r.layers
            .insert("runtime.insert_ack_p99_us", percentile(&ack, 99.0));
        r.layers.insert("runtime.insert_call_us", mean(&l.ack_us));
        r.layers
            .insert("runtime.accept_rows_per_s", accept_rows_per_s);
        r.layers.insert("runtime.drain_s", drain_s);
        r.layers.insert("runtime.replica_lag_s", replica_lag_s);
        r.layers
            .insert("runtime.query_poll_gap_ms", median(&poll_gap));
        r.layers
            .insert("net.msgs_per_row", ratio(host[0] as f64, stored as f64));
        r.layers.insert("net.sends_dropped", host[1] as f64);
        r.layers.insert("net.reconnects", host[2] as f64);
        r.layers.insert("net.inbound_throttled", host[3] as f64);
        r.layers.insert(
            "core.dac_model_share",
            dac_model_share(&snaps0, &snaps1, &[], wall_s),
        );
        r.layers
            .insert("core.subqueries_per_query", mean(&cost_nodes));
        r.layers.insert(
            "trace.unattributed_share",
            unattributed(tr, t_first, t_stored),
        );
        replay_layers(r, tr, batches, &answered);
    } else {
        r.detail("accept_rows_per_s", accept_rows_per_s, "rows/s");
        r.detail("drain_s", drain_s, "s");
        r.detail("replica_lag_s", replica_lag_s, "s");
    }
    let rss_mb = finish(r, c)?;
    Ok(IngestPass {
        rows_per_s: ratio(stored as f64, wall_s),
        ack_us: l.ack_us,
        settle_s,
        spot_ms,
        rss_mb,
    })
}

/// Sends each node a point query for one ingested row it owns and waits
/// for the answers; returns the wait and how many answers were incomplete
/// or missed their row.
///
/// Every row having its replica does not make the cluster idle: an owner
/// can still hold seconds of queued DAC work (a query sent then has waited
/// over 10 s). An owner answers its point query once that work is done,
/// so the spot checks that follow time a settled cluster.
fn settle_owners(c: &mut ProcCluster, rows: &[Record]) -> io::Result<(f64, u64)> {
    let topo = StaticTopology::balanced(NODES);
    let cuts = CutTree::even(load_schema(INDEX).bounds(), cluster::DEPTH);
    let t = Instant::now();
    let mut failed = 0;
    for n in 0..NODES {
        let row = rows
            .iter()
            .find(|r| owner(&topo, &cuts.code_for_point(r.point(3))) == n);
        let Some(row) = row else { continue };
        let p = row.values();
        let rect = HyperRect::new(p.to_vec(), p.to_vec());
        let found = cluster::query(c.client(n), &rect)?
            .is_some_and(|o| o.complete && o.records.iter().any(|x| x.values() == p));
        if !found {
            failed += 1;
        }
    }
    Ok((t.elapsed().as_secs_f64(), failed))
}

// ----------------------------------------------------------- query_mixed

struct MixedPass {
    queries_per_s: f64,
    narrow_ms: Vec<f64>,
    wide_ms: Vec<f64>,
    trickle_ms: Vec<f64>,
    late_ms: Vec<f64>,
    trickle_rows_per_s: f64,
    rss_mb: f64,
}

/// Spawns a cluster, stores the preload, each row with its replica, and
/// lets every owner settle.
fn preloaded_cluster(a: &TcpArgs, dir: &Path) -> io::Result<(ProcCluster, Vec<Vec<Record>>)> {
    let mut c = new_cluster(a, dir)?;
    let batches = inputs::batches(a.seed, Stream::Preload, PRELOAD_BATCHES, BATCH);
    let l = closed_loop_insert(&c, &batches, &mut Tracer::new(false, Instant::now(), 0))?;
    let total = PRELOAD_BATCHES * BATCH as u64;
    if l.acked_rows != total
        || !c.wait_stored(total, DRAIN_POLL, DRAIN_TIMEOUT)?
        || !c.wait_replicated(DRAIN_TIMEOUT)?
    {
        return Err(err("preload was not stored and replicated in full"));
    }
    // Leftover DAC work would otherwise slow the first queries of the pass.
    if settle_owners(&mut c, &batches.concat())?.1 != 0 {
        return Err(err("a settling query missed its preloaded row"));
    }
    Ok((c, batches))
}

/// Runs the `query_mixed` workload.
pub fn query_mixed(a: &TcpArgs, r: &mut Report) -> io::Result<()> {
    let phase = Duration::from_secs_f64(a.seconds / PASSES as f64);
    let (mut setup_s, mut passes) = (Vec::new(), Vec::new());
    for rep in 0..PASSES {
        let t = Instant::now();
        let (c, preload) = preloaded_cluster(a, &a.work.join(format!("mixed{rep}")))?;
        setup_s.push(t.elapsed().as_secs_f64());
        let mut off = Tracer::new(false, Instant::now(), 0);
        passes.push(mixed_pass(a, r, c, &preload, phase, &mut off)?);
    }
    let med = |f: fn(&MixedPass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let pool = |f: fn(&MixedPass) -> &Vec<f64>| -> Vec<f64> {
        sorted(passes.iter().flat_map(|p| f(p).iter().copied()).collect())
    };
    let queries_per_s = med(|p| p.queries_per_s);
    let (ins, narrow, wide) = (
        pool(|p| &p.trickle_ms),
        pool(|p| &p.narrow_ms),
        pool(|p| &p.wide_ms),
    );
    let mut all = narrow.clone();
    all.extend(wide.iter().copied());
    let all = sorted(all);
    r.e2e.insert("setup_s", median(&setup_s));
    r.e2e.insert("peak_rss_mb", med(|p| p.rss_mb));
    r.e2e
        .insert("ingest_rows_per_s", med(|p| p.trickle_rows_per_s));
    r.e2e.insert("query_p50_ms", percentile(&narrow, 50.0));
    r.e2e.insert("query_p90_ms", percentile(&narrow, 90.0));
    r.detail("insert_ack_p50_us", percentile(&ins, 50.0) * 1e3, "us");
    r.detail("insert_ack_p99_us", percentile(&ins, 99.0) * 1e3, "us");
    r.detail("insert_ack_samples", ins.len() as f64, "count");
    r.detail("query_p50_ms_all", percentile(&all, 50.0), "ms");
    r.detail("query_p95_ms_all", percentile(&all, 95.0), "ms");
    r.detail("query_samples", all.len() as f64, "count");
    r.detail("narrow_query_samples", narrow.len() as f64, "count");
    r.detail("wide_query_p50_ms", percentile(&wide, 50.0), "ms");
    r.detail("wide_query_p90_ms", percentile(&wide, 90.0), "ms");
    let late = pool(|p| &p.late_ms);
    r.detail("trickle_late_p99_ms", percentile(&late, 99.0), "ms");
    r.detail(
        "trickle_late_max_ms",
        late.last().copied().unwrap_or(0.0),
        "ms",
    );
    if a.trace {
        // A fresh cluster with the same preload, set up untimed.
        let (c, preload) = preloaded_cluster(a, &a.work.join("mixed-traced"))?;
        let mut tr = Tracer::new(true, Instant::now(), 0);
        let traced = mixed_pass(a, r, c, &preload, phase, &mut tr)?;
        r.layers.insert(
            "trace.overhead_share",
            queries_per_s / traced.queries_per_s - 1.0,
        );
        crate::finish_trace(r, &tr, a.work, "query_mixed", a.seed)?;
    }
    Ok(())
}

/// One closed-loop query: its kind, rectangle, client latency (ms) and
/// the node's answer (`None` when the node refused it).
type Issued = (QueryKind, HyperRect, f64, Option<QueryOutcome>);

/// Per-request results of the open-loop trickle.
struct Trickle {
    due_ms: Vec<f64>,
    late_ms: Vec<f64>,
    acked_rows: u64,
    refused_rows: u64,
    sent_batches: u64,
}

fn mixed_pass(
    a: &TcpArgs,
    r: &mut Report,
    mut c: ProcCluster,
    preload: &[Vec<Record>],
    phase: Duration,
    tr: &mut Tracer,
) -> io::Result<MixedPass> {
    let traced = tr.is_on();
    let hs0 = c.host_stats()?;
    let snaps0 = c.snapshots()?;
    if traced {
        r.layers
            .insert("runtime.ping_rtt_us", ping_rtt_us(&mut c, tr)?);
    }
    let mut qconns = c.connect_all()?;
    let mut iconns = c.connect_all()?;
    let seed = a.seed;
    let t_start = tr.now_ns();
    let start = Instant::now();
    let end = start + phase;
    let mut qt = tr.fork(1);
    let mut it = tr.fork(2);
    let (queries, trickle) = std::thread::scope(|s| {
        let qh = s.spawn(|| -> io::Result<Vec<Issued>> {
            let mut out = Vec::new();
            let mut k = 0u64;
            while Instant::now() < end {
                let (kind, rect) = inputs::mixed_query(seed, k);
                let t = Instant::now();
                let o = qt.span("runtime.query", k, |_| {
                    cluster::query(&mut qconns[k as usize % NODES], &rect)
                })?;
                out.push((kind, rect, t.elapsed().as_secs_f64() * 1e3, o));
                k += 1;
            }
            Ok(out)
        });
        let ih = s.spawn(|| -> io::Result<Trickle> {
            let mut tk = Trickle {
                due_ms: Vec::new(),
                late_ms: Vec::new(),
                acked_rows: 0,
                refused_rows: 0,
                sent_batches: 0,
            };
            let period = Duration::from_secs_f64(1.0 / TRICKLE_RPS);
            for k in 0u64.. {
                let due = start + period * k as u32;
                if due >= end {
                    break;
                }
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                tk.late_ms.push(due.elapsed().as_secs_f64() * 1e3);
                let rows = inputs::batch(seed, Stream::Trickle, k, TRICKLE_ROWS);
                let n = rows.len() as u64;
                let ok = it.span("runtime.insert", k, |_| {
                    cluster::insert(&mut iconns[k as usize % NODES], rows)
                })?;
                tk.due_ms.push(due.elapsed().as_secs_f64() * 1e3);
                tk.sent_batches += 1;
                if ok {
                    tk.acked_rows += n;
                } else {
                    tk.refused_rows += n;
                }
            }
            Ok(tk)
        });
        (
            qh.join()
                .unwrap_or_else(|_| Err(err("query client panicked"))),
            ih.join()
                .unwrap_or_else(|_| Err(err("trickle client panicked"))),
        )
    });
    let (queries, tk) = (queries?, trickle?);
    tr.absorb(qt);
    tr.absorb(it);
    let t_phase = tr.now_ns();
    let preload_rows = PRELOAD_BATCHES * BATCH as u64;
    let target = preload_rows + tk.acked_rows;
    let conserved = tr.span("runtime.drain", 0, |_| {
        c.wait_stored(target, DRAIN_POLL, DRAIN_TIMEOUT)
    })?;
    let t_stored = tr.now_ns();
    let stored: u64 = c.primary_rows()?.iter().sum();
    let host = host_delta(&mut c, &hs0)?;
    let replicated = c.wait_replicated(DRAIN_TIMEOUT)?;
    let t_replicated = tr.now_ns();
    let snaps1 = if traced { c.snapshots()? } else { Vec::new() };

    // Answers must hold every preloaded row in the rectangle and nothing
    // the benchmark did not insert.
    let pre: Vec<Record> = preload.concat();
    let trickle_batches = inputs::batches(seed, Stream::Trickle, tk.sent_batches, TRICKLE_ROWS);
    let trickle_rows: Vec<Record> = trickle_batches.concat();
    r.attempted += tk.sent_batches * TRICKLE_ROWS as u64 + queries.len() as u64;
    r.failed += tk.refused_rows
        + tk.acked_rows
            .saturating_sub(stored.saturating_sub(preload_rows));
    if !conserved {
        r.check_failures.push(format!(
            "rows not conserved: {stored} stored, {target} acked"
        ));
    }
    if !replicated {
        r.check_failures
            .push("replicas never caught up with the primaries".into());
    }
    let mut answered = Vec::with_capacity(queries.len());
    let (mut narrow_ms, mut wide_ms, mut poll_gap, mut cost_nodes) =
        (vec![], vec![], vec![], vec![]);
    let issued = queries.len();
    for (kind, rect, ms, o) in queries {
        match kind {
            QueryKind::Narrow => narrow_ms.push(ms),
            QueryKind::Wide => wide_ms.push(ms),
        }
        let Some(o) = o else {
            r.failed += 1;
            continue;
        };
        let mut got: Vec<Vec<u64>> = o.records.iter().map(|x| x.values().to_vec()).collect();
        got.sort_unstable();
        let must = inputs::in_rect(&pre, &rect);
        let mut may = inputs::in_rect(&trickle_rows, &rect);
        may.extend(must.iter().cloned());
        may.sort_unstable();
        if !o.complete
            || !inputs::is_sub_multiset(&must, &got)
            || !inputs::is_sub_multiset(&got, &may)
        {
            r.failed += 1;
        }
        if let Some(l) = o.latency {
            poll_gap.push(ms - l as f64 / 1e3);
        }
        cost_nodes.push(o.cost_nodes as f64);
        answered.push((rect, o));
    }
    let phase_s = secs(t_phase - t_start);

    if traced {
        let ack = sorted(tk.due_ms.clone());
        r.layers
            .insert("runtime.insert_ack_p50_us", percentile(&ack, 50.0) * 1e3);
        r.layers
            .insert("runtime.insert_ack_p99_us", percentile(&ack, 99.0) * 1e3);
        r.layers
            .insert("runtime.insert_call_us", mean(&tk.due_ms) * 1e3);
        r.layers
            .insert("runtime.query_poll_gap_ms", median(&poll_gap));
        r.layers.insert(
            "runtime.accept_rows_per_s",
            ratio(tk.acked_rows as f64, phase_s),
        );
        r.layers.insert("runtime.drain_s", secs(t_stored - t_phase));
        r.layers
            .insert("runtime.replica_lag_s", secs(t_replicated - t_stored));
        r.layers.insert(
            "runtime.trickle_late_ms",
            percentile(&sorted(tk.late_ms.clone()), 99.0),
        );
        r.layers.insert(
            "net.msgs_per_row",
            ratio(host[0] as f64, (stored - preload_rows) as f64),
        );
        r.layers.insert("net.sends_dropped", host[1] as f64);
        r.layers.insert("net.reconnects", host[2] as f64);
        r.layers.insert("net.inbound_throttled", host[3] as f64);
        r.layers.insert(
            "core.dac_model_share",
            dac_model_share(&snaps0, &snaps1, &answered, secs(t_stored - t_start)),
        );
        r.layers
            .insert("core.subqueries_per_query", mean(&cost_nodes));
        r.layers.insert(
            "trace.unattributed_share",
            unattributed(tr, t_start, t_stored),
        );
        let mut batches = preload.to_vec();
        batches.extend(trickle_batches);
        replay_layers(r, tr, &batches, &answered);
    }
    let rss_mb = finish(r, c)?;
    Ok(MixedPass {
        queries_per_s: ratio(issued as f64, phase_s),
        narrow_ms,
        wide_ms,
        trickle_ms: tk.due_ms,
        late_ms: tk.late_ms,
        trickle_rows_per_s: ratio(tk.acked_rows as f64, secs(t_stored - t_start)),
        rss_mb,
    })
}
