//! The database access control (DAC) queue.
//!
//! Section 3.9: "the database access control (DAC) module, one for each
//! index, buffers database access requests in a queue and communicates with
//! the local database". The DAC batches pending insertions — tuned for the
//! high insertion rates of network monitoring — and resolves queries one at
//! a time, building a response per sub-query.
//!
//! Besides functional batching, the DAC carries an explicit [`DacCostModel`]
//! so the discrete-event simulator can charge realistic per-node processing
//! time. The paper attributes part of its latency tails to exactly this
//! queue ("one of these queries was queued behind the other... query
//! database access is not interleaved with network transmission").

use crate::store::{Store, StoreKind};
use mind_types::node::SimTime;
use mind_types::{HyperRect, Record};
use std::collections::VecDeque;
use std::sync::Arc;

/// A buffered storage request.
#[derive(Debug, Clone)]
pub enum DacRequest {
    /// Store a record.
    Insert(Record),
    /// Resolve a range scan; `token` identifies the response.
    Query {
        /// Caller-chosen correlation token returned in the response.
        token: u64,
        /// The scan rectangle over the indexed dimensions.
        rect: HyperRect,
    },
}

/// The outcome of one processed query request.
#[derive(Debug, Clone)]
pub struct DacResponse {
    /// Correlation token from the request.
    pub token: u64,
    /// Matching records, as shared handles into the store's record heap —
    /// the DAC's query path never copies payloads (empty means a *negative*
    /// response — the node owns the region but has no matching data, which
    /// the paper still reports to the originator).
    pub records: Vec<Arc<Record>>,
}

/// Per-operation processing costs used to model node execution time.
///
/// Defaults approximate a mid-2000s PlanetLab node running the prototype's
/// Java + MySQL stack — deliberately slow, so that simulated insertion and
/// query latencies land in the paper's observed ranges.
#[derive(Debug, Clone, Copy)]
pub struct DacCostModel {
    /// Fixed cost to pick up a batch.
    pub batch_overhead: SimTime,
    /// Cost per inserted record.
    pub per_insert: SimTime,
    /// Fixed cost per query (SQL build + planner in the prototype).
    pub per_query: SimTime,
    /// Cost per record returned by a query.
    pub per_result: SimTime,
}

impl DacCostModel {
    /// No modelled cost: for hosts on a real clock, where the store work
    /// already ran on the wall clock. Batches still release in arrival
    /// order, one timer tick (1 µs) after they are processed.
    pub const ZERO: DacCostModel = DacCostModel {
        batch_overhead: 0,
        per_insert: 0,
        per_query: 0,
        per_result: 0,
    };
}

impl Default for DacCostModel {
    fn default() -> Self {
        DacCostModel {
            batch_overhead: 2_000, // 2 ms
            per_insert: 150,       // 0.15 ms
            per_query: 8_000,      // 8 ms
            per_result: 40,        // 0.04 ms
        }
    }
}

/// The DAC: a request queue in front of any [`Store`] backend.
#[derive(Debug)]
pub struct Dac {
    store: Box<dyn Store>,
    queue: VecDeque<DacRequest>,
    cost: DacCostModel,
    /// Maximum requests drained per processing round.
    batch_size: usize,
}

impl Dac {
    /// Creates a DAC over a fresh default-backend ([`StoreKind::KdTree`])
    /// store of the given dimensionality.
    pub fn new(dims: usize, cost: DacCostModel, batch_size: usize) -> Self {
        Self::with_kind(StoreKind::KdTree, dims, cost, batch_size)
    }

    /// Creates a DAC over a fresh store of the given backend kind.
    pub fn with_kind(kind: StoreKind, dims: usize, cost: DacCostModel, batch_size: usize) -> Self {
        assert!(batch_size > 0, "zero batch size");
        Dac {
            store: kind.new_store(dims),
            queue: VecDeque::new(),
            cost,
            batch_size,
        }
    }

    /// Enqueues a request.
    pub fn push(&mut self, req: DacRequest) {
        self.queue.push_back(req);
    }

    /// Number of queued, unprocessed requests.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Read access to the underlying store (histogram collection, metrics).
    pub fn store(&self) -> &dyn Store {
        self.store.as_ref()
    }

    /// Drains up to one batch of requests, returning the query responses
    /// and the simulated processing time consumed.
    ///
    /// The prototype's behaviour is preserved: requests are processed in
    /// arrival order, and a query queued behind a heavy batch waits for it —
    /// the Figure 11 hotspot effect.
    pub fn process_batch(&mut self) -> (Vec<DacResponse>, SimTime) {
        if self.queue.is_empty() {
            return (Vec::new(), 0);
        }
        let mut responses = Vec::new();
        let mut elapsed = self.cost.batch_overhead;
        for _ in 0..self.batch_size {
            let Some(req) = self.queue.pop_front() else {
                break;
            };
            match req {
                DacRequest::Insert(rec) => {
                    self.store.insert(rec);
                    elapsed += self.cost.per_insert;
                }
                DacRequest::Query { token, rect } => {
                    let records = self.store.range_records(&rect);
                    elapsed +=
                        self.cost.per_query + self.cost.per_result * records.len() as SimTime;
                    responses.push(DacResponse { token, records });
                }
            }
        }
        (responses, elapsed)
    }

    /// Processes everything in the queue, batch by batch.
    pub fn process_all(&mut self) -> (Vec<DacResponse>, SimTime) {
        let mut responses = Vec::new();
        let mut total = 0;
        while !self.queue.is_empty() {
            let (mut r, t) = self.process_batch();
            responses.append(&mut r);
            total += t;
        }
        (responses, total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dac() -> Dac {
        Dac::new(2, DacCostModel::default(), 100)
    }

    #[test]
    fn inserts_then_query_in_order() {
        let mut d = dac();
        d.push(DacRequest::Insert(Record::new(vec![1, 1])));
        d.push(DacRequest::Insert(Record::new(vec![2, 2])));
        d.push(DacRequest::Query {
            token: 7,
            rect: HyperRect::new(vec![0, 0], vec![10, 10]),
        });
        assert_eq!(d.pending(), 3);
        let (resp, t) = d.process_all();
        assert_eq!(resp.len(), 1);
        assert_eq!(resp[0].token, 7);
        assert_eq!(resp[0].records.len(), 2);
        assert!(t > 0);
        assert_eq!(d.pending(), 0);
    }

    #[test]
    fn negative_response_for_empty_region() {
        let mut d = dac();
        d.push(DacRequest::Query {
            token: 1,
            rect: HyperRect::new(vec![5, 5], vec![6, 6]),
        });
        let (resp, _) = d.process_all();
        assert_eq!(resp.len(), 1);
        assert!(
            resp[0].records.is_empty(),
            "negative responses still answer"
        );
    }

    #[test]
    fn batching_limits_work_per_round() {
        let mut d = Dac::new(1, DacCostModel::default(), 10);
        for i in 0..25u64 {
            d.push(DacRequest::Insert(Record::new(vec![i])));
        }
        let (_, t1) = d.process_batch();
        assert_eq!(d.pending(), 15);
        let (_, _t2) = d.process_batch();
        let (_, _t3) = d.process_batch();
        assert_eq!(d.pending(), 0);
        assert!(t1 >= DacCostModel::default().batch_overhead);
        assert_eq!(d.store().len(), 25);
    }

    #[test]
    fn query_behind_big_batch_pays_for_it() {
        // The Figure 11 effect: a query's processing delay includes the
        // inserts queued ahead of it.
        let cost = DacCostModel::default();
        let mut d = Dac::new(1, cost, 10_000);
        for i in 0..5000u64 {
            d.push(DacRequest::Insert(Record::new(vec![i])));
        }
        d.push(DacRequest::Query {
            token: 1,
            rect: HyperRect::new(vec![0], vec![10]),
        });
        let (resp, t) = d.process_all();
        assert_eq!(resp.len(), 1);
        assert!(
            t >= cost.per_insert * 5000,
            "queued inserts dominate, got {t}"
        );
    }

    #[test]
    fn empty_queue_is_free() {
        let mut d = dac();
        let (resp, t) = d.process_batch();
        assert!(resp.is_empty());
        assert_eq!(t, 0);
    }
}
