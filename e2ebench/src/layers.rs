//! Replays of the layers that run inside `mind-node`, on the rows and
//! rectangles the workload sent: the control codec, the cut tree and the
//! k-d tree store. Each replay runs inside a span and returns its cost per
//! unit of work.

use crate::trace::Tracer;
use mind_core::QueryOutcome;
use mind_histogram::CutTree;
use mind_net::{from_bytes, to_bytes};
use mind_runtime::{ControlRequest, ControlResponse};
use mind_store::StoreKind;
use mind_types::{HyperRect, Record};
use std::hint::black_box;
use std::time::Instant;

fn ns_per(start: Instant, units: usize) -> f64 {
    start.elapsed().as_nanos() as f64 / units.max(1) as f64
}

/// Control-codec cost of the workload's `Insert` frames.
#[derive(Debug, Clone, Copy, Default)]
pub struct CtlCodec {
    /// `to_bytes` ns per row.
    pub encode_ns_per_row: f64,
    /// `from_bytes` ns per row.
    pub decode_ns_per_row: f64,
    /// Frame bytes per row.
    pub bytes_per_row: f64,
}

/// Encodes and decodes each batch as the `Insert` request the workload sent.
pub fn ctl_codec(tr: &mut Tracer, index: &str, batches: &[Vec<Record>]) -> CtlCodec {
    let reqs: Vec<ControlRequest> = batches
        .iter()
        .map(|rows| ControlRequest::Insert {
            index: index.into(),
            rows: rows.clone(),
        })
        .collect();
    let rows: usize = batches.iter().map(Vec::len).sum();
    let (frames, encode_ns_per_row) = tr.span("net.ctl_encode", 0, |_| {
        let t = Instant::now();
        let frames: Vec<Vec<u8>> = reqs
            .iter()
            .map(|r| to_bytes(black_box(r)).expect("control requests encode"))
            .collect();
        (frames, ns_per(t, rows))
    });
    let decode_ns_per_row = tr.span("net.ctl_decode", 0, |_| {
        let t = Instant::now();
        for f in &frames {
            let r: ControlRequest = from_bytes(black_box(f)).expect("own frames decode");
            black_box(r);
        }
        ns_per(t, rows)
    });
    let bytes: usize = frames.iter().map(Vec::len).sum();
    CtlCodec {
        encode_ns_per_row,
        decode_ns_per_row,
        bytes_per_row: bytes as f64 / rows.max(1) as f64,
    }
}

/// `from_bytes` ns per result row of the query replies the workload got.
pub fn reply_decode_ns_per_result(tr: &mut Tracer, outcomes: &[QueryOutcome]) -> f64 {
    let frames: Vec<Vec<u8>> = outcomes
        .iter()
        .map(|o| to_bytes(&ControlResponse::Query(o.clone())).expect("replies encode"))
        .collect();
    let results: usize = outcomes.iter().map(|o| o.records.len()).sum();
    tr.span("net.reply_decode", 0, |_| {
        let t = Instant::now();
        for f in &frames {
            let r: ControlResponse = from_bytes(black_box(f)).expect("own frames decode");
            black_box(r);
        }
        ns_per(t, results)
    })
}

/// `CutTree::code_for_point` ns per row.
pub fn code_ns_per_row(tr: &mut Tracer, cuts: &CutTree, dims: usize, rows: &[Record]) -> f64 {
    tr.span("histogram.code", 0, |_| {
        let t = Instant::now();
        for r in rows {
            black_box(cuts.code_for_point(black_box(r.point(dims))));
        }
        ns_per(t, rows.len())
    })
}

/// `covering_codes_at_least` ns per query and codes per query, splitting
/// down to `min_len` bits as the splitting node does.
pub fn cover(tr: &mut Tracer, cuts: &CutTree, rects: &[HyperRect], min_len: u8) -> (f64, f64) {
    tr.span("histogram.cover", 0, |_| {
        let t = Instant::now();
        let mut codes = 0usize;
        for r in rects {
            codes += black_box(cuts.covering_codes_at_least(black_box(r), min_len)).len();
        }
        (
            ns_per(t, rects.len()),
            codes as f64 / rects.len().max(1) as f64,
        )
    })
}

/// Store cost on the default backend: ns per inserted row, then ns per
/// `range_records` scan and per returned row.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreCost {
    /// `Store::insert` ns per row.
    pub insert_ns_per_row: f64,
    /// `range_records` ns per query.
    pub scan_ns_per_query: f64,
    /// `range_records` ns per returned row.
    pub scan_ns_per_result: f64,
}

/// Inserts `rows` into a fresh default store and scans `rects` over them.
pub fn store(tr: &mut Tracer, dims: usize, rows: &[Record], rects: &[HyperRect]) -> StoreCost {
    let mut store = StoreKind::default().new_store(dims);
    let insert_ns_per_row = tr.span("store.insert", 0, |_| {
        let t = Instant::now();
        for r in rows {
            black_box(store.insert(r.clone()));
        }
        ns_per(t, rows.len())
    });
    let (elapsed_ns, results) = tr.span("store.scan", 0, |_| {
        let t = Instant::now();
        let mut results = 0usize;
        for r in rects {
            results += black_box(store.range_records(black_box(r))).len();
        }
        (t.elapsed().as_nanos() as f64, results)
    });
    StoreCost {
        insert_ns_per_row,
        scan_ns_per_query: elapsed_ns / rects.len().max(1) as f64,
        scan_ns_per_result: elapsed_ns / results.max(1) as f64,
    }
}
