//! Reliable delivery (DESIGN.md §8) and bounded dedup state (§10).
//!
//! Every tracked `Insert`/`Replica` carries an *op id* (origin node ∥
//! 24-bit counter) and is retried with exponential backoff until acked or
//! the retry budget runs out. Receivers remember applied op ids so a
//! retried copy is re-acked instead of double-stored.
//!
//! The remembered set is **bounded** by a horizon protocol: every outgoing
//! op also carries the origin's *settled horizon* — the counter below
//! which all of its ops are acked or abandoned. A receiver keeps, per
//! origin, only the horizon and the applied counters above it, so its
//! dedup memory is O(origin's in-flight ops), not O(ops ever applied).
//!
//! The horizon's assumption — an origin's counters are monotone — breaks
//! when an origin *process* restarts and counts from zero again: its
//! fresh ops would sit below the remembered horizon and be re-acked as
//! duplicates without ever being applied (silent row loss). The high 40
//! bits of the wire horizon field therefore carry the origin's *boot
//! epoch* ([`crate::node::MindConfig::boot_id`]): a receiver that sees a
//! newer boot resets that origin's dedup memory, and ops from an older
//! boot are stale-incarnation duplicates by definition. Simulated nodes
//! keep the default boot id 0, so sim wire bytes are unchanged.
//!
//! This module owns the retry-class timers: `set_timer` with
//! `KIND_OP_RETRY` must not appear anywhere else in `mind-core` (enforced
//! by the workspace lint wall).

use crate::messages::MindPayload;
use crate::node::{token, MindNode, Out};
use mind_overlay::OverlayMsg;
use mind_types::node::{SimTime, TimerId};
use mind_types::{BitCode, NodeId, Record};
use std::collections::{BTreeMap, BTreeSet};

pub(crate) const KIND_OP_RETRY: u64 = 4;
pub(crate) const KIND_ANTI_ENTROPY: u64 = 6;
/// Age-flush timer for a partially filled wire insert batch.
pub(crate) const KIND_BATCH_FLUSH: u64 = 7;

/// Op-id counters occupy the low 24 bits; the origin node id sits above.
const OP_COUNTER_MASK: u64 = 0xFF_FFFF;

fn op_origin(op_id: u64) -> u64 {
    op_id >> 24
}

fn op_counter(op_id: u64) -> u64 {
    op_id & OP_COUNTER_MASK
}

/// Splits a wire horizon field into (boot epoch, settled counter).
fn split_horizon(field: u64) -> (u64, u64) {
    (field >> 24, field & OP_COUNTER_MASK)
}

/// Where an unacked operation goes when re-sent.
#[derive(Debug, Clone)]
pub(crate) enum OpTarget {
    /// Re-route through the overlay toward a region code (inserts).
    Routed(BitCode),
    /// Re-send directly to a node (replica pushes).
    Direct(NodeId),
}

/// An open origin-side wire batch: records bound for one `(index,
/// version, code)` destination, waiting to fill up or age out (the
/// ingest fast path, DESIGN.md §14). Keyed in `MindNode::wire_batches`
/// by `(index, version, code.len(), code.as_index())`.
#[derive(Debug)]
pub(crate) struct WireBatch {
    /// The routing code every buffered record conformed to.
    code: BitCode,
    /// Buffered records, in origin insert order.
    records: Vec<Record>,
    /// When the *oldest* buffered record was enqueued — becomes the
    /// batch's `sent_at`, so batching delay shows up in insert latency.
    oldest: SimTime,
    /// The armed age-flush timer and its token argument; cancelled (and
    /// the argument's key mapping dropped) when a size flush wins.
    timer: TimerId,
    flush_arg: u64,
}

/// An insert/replica awaiting its ack.
#[derive(Debug)]
pub(crate) struct PendingOp {
    target: OpTarget,
    payload: MindPayload,
    attempts: u32,
    /// The armed retry timer; cancelled when the ack lands.
    timer: TimerId,
}

/// Applied-op memory of one origin: the origin's boot epoch, a settled
/// horizon within that boot, and the applied counters above it.
#[derive(Debug, Default)]
struct OriginSeen {
    boot: u64,
    horizon: u64,
    recent: BTreeSet<u64>,
}

/// The receiver side of op dedup, bounded via the horizon protocol.
#[derive(Debug, Default)]
pub(crate) struct SeenOps {
    by_origin: BTreeMap<u64, OriginSeen>,
}

impl SeenOps {
    /// The single receive-path entry point: folds the op's carried
    /// boot/horizon into this origin's memory, then reports whether the
    /// op was already applied here. `true` means re-ack, don't apply —
    /// either the op is remembered directly, settled at its origin (at or
    /// below the horizon: its origin stopped retrying it, so a fresh copy
    /// can only be a stale duplicate still in flight), or it was sent by
    /// a dead incarnation of the origin (older boot epoch: that process
    /// is gone, nothing retries its ops, so in-flight copies are safe to
    /// drop). A *newer* boot epoch resets the origin's memory — the
    /// restarted process counts from zero again, and its fresh low
    /// counters must not be mistaken for settled old ones.
    pub(crate) fn observe(&mut self, op_id: u64, horizon_field: u64) -> bool {
        let (boot, horizon) = split_horizon(horizon_field);
        let o = self.by_origin.entry(op_origin(op_id)).or_default();
        if boot > o.boot {
            o.boot = boot;
            o.horizon = 0;
            o.recent.clear();
        } else if boot < o.boot {
            return true;
        }
        if horizon > o.horizon {
            o.horizon = horizon;
            o.recent.retain(|&c| c > horizon);
        }
        op_counter(op_id) <= o.horizon || o.recent.contains(&op_counter(op_id))
    }

    /// Re-check under the currently remembered state (the DAC apply-time
    /// guard; the boot/horizon folding already happened on receive).
    pub(crate) fn contains(&self, op_id: u64) -> bool {
        self.by_origin.get(&op_origin(op_id)).is_some_and(|o| {
            op_counter(op_id) <= o.horizon || o.recent.contains(&op_counter(op_id))
        })
    }

    /// Records an applied op.
    pub(crate) fn insert(&mut self, op_id: u64) {
        let o = self.by_origin.entry(op_origin(op_id)).or_default();
        if op_counter(op_id) > o.horizon {
            o.recent.insert(op_counter(op_id));
        }
    }

    /// Number of individually remembered op counters (the bounded part).
    pub(crate) fn len(&self) -> usize {
        self.by_origin.values().map(|o| o.recent.len()).sum()
    }

    /// Forgets everything (crash recovery: the rows died with the stores).
    pub(crate) fn clear(&mut self) {
        self.by_origin.clear();
    }
}

impl MindNode {
    /// A fresh idempotency key, unique per origin (node id ∥ counter,
    /// within the 48-bit timer-argument budget). When the ack/retry
    /// machinery is on, the counter is reserved as live until the op
    /// settles, pinning the horizon below it.
    pub(crate) fn next_op_id(&mut self) -> u64 {
        // Pre-increment: the id 0 is reserved as the "no tracking" sentinel
        // (node 0's op 0 would otherwise collide with it and lose dedup).
        self.op_seq += 1;
        let id =
            (((self.id().0 as u64) << 24) | (self.op_seq & OP_COUNTER_MASK)) & 0xFFFF_FFFF_FFFF;
        if self.cfg.retry_timeout > 0 {
            self.live_op_counters.insert(op_counter(id));
        }
        id
    }

    /// This node's wire horizon field: the boot epoch in the high bits,
    /// and below it the settled-op horizon — every counter at or below it
    /// is acked or abandoned. With retries off no op ever settles, so no
    /// counter is claimed (the boot epoch still travels).
    pub(crate) fn op_horizon(&self) -> u64 {
        let boot = (self.cfg.boot_id & 0xFF_FFFF_FFFF) << 24;
        if self.cfg.retry_timeout == 0 {
            return boot;
        }
        let settled = match self.live_op_counters.first() {
            Some(&min) => min - 1,
            None => self.op_seq & OP_COUNTER_MASK,
        };
        boot | (settled & OP_COUNTER_MASK)
    }

    /// Re-stamps the horizon carried by an op about to be (re)sent.
    pub(crate) fn stamp_horizon(payload: &mut MindPayload, horizon: u64) {
        if let MindPayload::Insert { horizon: h, .. }
        | MindPayload::InsertBatch { horizon: h, .. }
        | MindPayload::Replica { horizon: h, .. }
        | MindPayload::ReplicaBatch { horizon: h, .. } = payload
        {
            *h = horizon;
        }
    }

    /// Marks an op settled (acked or abandoned), letting the horizon
    /// advance past it.
    fn settle_op(&mut self, op_id: u64) {
        self.live_op_counters.remove(&op_counter(op_id));
    }

    // ---- origin-side wire batching (the ingest fast path, DESIGN.md §14) ----

    /// Buffers one conformed record into the wire batch for its `(index,
    /// version, code)` destination; ships the batch when it reaches
    /// `insert_batch_max` records (the first record also arms an age
    /// flush, so stragglers never wait forever). Only called when
    /// batching is enabled (`insert_batch_max > 1`).
    pub(crate) fn buffer_wire_insert(
        &mut self,
        now: SimTime,
        index: String,
        version: u32,
        code: BitCode,
        record: Record,
        out: &mut Out,
    ) {
        let key = (index, version, code.len(), code.as_index());
        let max = self.cfg.insert_batch_max;
        let full = if let Some(open) = self.wire_batches.get_mut(&key) {
            open.records.push(record);
            open.records.len() >= max
        } else {
            let flush_arg = self.wire_batch_seq & 0xFFFF_FFFF_FFFF;
            self.wire_batch_seq += 1;
            let timer = out.set_timer(
                self.cfg.insert_batch_age,
                token(KIND_BATCH_FLUSH, flush_arg),
            );
            self.wire_batch_keys.insert(flush_arg, key.clone());
            let mut records = Vec::with_capacity(max);
            records.push(record);
            self.wire_batches.insert(
                key.clone(),
                WireBatch {
                    code,
                    records,
                    oldest: now,
                    timer,
                    flush_arg,
                },
            );
            // `max > 1` whenever the batcher is active, so a fresh
            // single-record batch is never already full.
            false
        };
        if full {
            if let Some(batch) = self.wire_batches.remove(&key) {
                self.wire_batch_keys.remove(&batch.flush_arg);
                out.cancel_timer(batch.timer);
                self.ship_wire_batch(now, key.0, key.1, batch, out);
            }
        }
    }

    /// Sends one closed wire batch toward its region owner under a single
    /// fresh op id: a one-record straggler degenerates to a plain
    /// `Insert` (no batch framing overhead), anything larger leaves as an
    /// `InsertBatch`.
    fn ship_wire_batch(
        &mut self,
        now: SimTime,
        index: String,
        version: u32,
        batch: WireBatch,
        out: &mut Out,
    ) {
        let WireBatch {
            code,
            mut records,
            oldest,
            ..
        } = batch;
        let op_id = self.next_op_id();
        // Horizon read *after* reserving the op's counter, so the payload
        // never claims its own op as settled.
        let horizon = self.op_horizon();
        let payload = if records.len() > 1 {
            self.metrics.insert_batches_sent += 1;
            MindPayload::InsertBatch {
                index,
                version,
                records,
                origin: self.id(),
                sent_at: oldest,
                op_id,
                horizon,
            }
        } else if let Some(record) = records.pop() {
            MindPayload::Insert {
                index,
                version,
                record,
                origin: self.id(),
                sent_at: oldest,
                op_id,
                horizon,
            }
        } else {
            // Batches are created non-empty; nothing to ship.
            self.settle_op(op_id);
            return;
        };
        self.track_op(op_id, OpTarget::Routed(code), payload.clone(), out);
        let events = self.overlay.route(now, code, payload, out);
        self.process_events(now, events, out);
    }

    /// Age-flush timer fired: ship the batch the argument maps to, if a
    /// size flush has not already claimed it.
    fn flush_wire_batch(&mut self, now: SimTime, flush_arg: u64, out: &mut Out) {
        if let Some(key) = self.wire_batch_keys.remove(&flush_arg) {
            if let Some(batch) = self.wire_batches.remove(&key) {
                self.ship_wire_batch(now, key.0, key.1, batch, out);
            }
        }
    }

    /// Force-ships every open wire batch immediately (deterministic key
    /// order). Lets drivers drain buffered inserts without waiting out
    /// the age timers — a no-op when batching is off.
    pub fn flush_inserts(&mut self, now: SimTime, out: &mut Out) {
        while let Some((key, batch)) = self.wire_batches.pop_first() {
            self.wire_batch_keys.remove(&batch.flush_arg);
            out.cancel_timer(batch.timer);
            self.ship_wire_batch(now, key.0, key.1, batch, out);
        }
    }

    /// Records currently buffered in open wire batches (not yet sent).
    pub fn buffered_inserts(&self) -> usize {
        self.wire_batches.values().map(|b| b.records.len()).sum()
    }

    /// Registers an operation for ack tracking and arms its retry timer.
    pub(crate) fn track_op(
        &mut self,
        op_id: u64,
        target: OpTarget,
        payload: MindPayload,
        out: &mut Out,
    ) {
        if self.cfg.retry_timeout == 0 {
            return;
        }
        let timer = out.set_timer(self.cfg.retry_timeout, token(KIND_OP_RETRY, op_id));
        self.pending_ops.insert(
            op_id,
            PendingOp {
                target,
                payload,
                attempts: 0,
                timer,
            },
        );
    }

    /// Re-sends an unacked operation, with exponential backoff, until the
    /// retry budget runs out (then the op is abandoned and settles).
    fn retry_op(&mut self, now: SimTime, op_id: u64, out: &mut Out) {
        let horizon = self.op_horizon();
        let max_retries = self.cfg.max_retries;
        let retry_timeout = self.cfg.retry_timeout;
        let Some(op) = self.pending_ops.get_mut(&op_id) else {
            return; // acked in the meantime
        };
        if op.attempts >= max_retries {
            self.pending_ops.remove(&op_id);
            self.settle_op(op_id);
            self.metrics.retries_exhausted += 1;
            return;
        }
        op.attempts += 1;
        let attempts = op.attempts;
        // Re-arm before re-sending, so a synchronous local ack on the
        // resend path cancels the *new* timer.
        op.timer = out.set_timer(
            retry_timeout << attempts.min(6),
            token(KIND_OP_RETRY, op_id),
        );
        let mut payload = op.payload.clone();
        Self::stamp_horizon(&mut payload, horizon);
        let target = op.target.clone();
        self.metrics.retries_sent += 1;
        match target {
            OpTarget::Routed(code) => {
                let events = self.overlay.route(now, code, payload, out);
                self.process_events(now, events, out);
            }
            OpTarget::Direct(node) => out.send(node, OverlayMsg::Direct { payload }),
        }
    }

    /// Handles a received (or loopback) ack: settles the op and cancels
    /// its pending retry timer.
    pub(crate) fn on_ack(&mut self, op_id: u64, out: &mut Out) {
        if let Some(op) = self.pending_ops.remove(&op_id) {
            self.settle_op(op_id);
            self.metrics.acks_received += 1;
            out.cancel_timer(op.timer);
        }
    }

    /// Queues an `Ack` for direct delivery (loopback-safe).
    pub(crate) fn send_ack(&mut self, to: NodeId, op_id: u64, out: &mut Out) {
        if to == self.id() {
            self.on_ack(op_id, out);
        } else {
            out.send(
                to,
                OverlayMsg::Direct {
                    payload: MindPayload::Ack { op_id },
                },
            );
        }
    }

    /// Arms the recurring anti-entropy timer (called from `on_start`).
    pub(crate) fn arm_anti_entropy(&mut self, out: &mut Out) {
        if self.cfg.anti_entropy_interval > 0 {
            out.set_timer(self.cfg.anti_entropy_interval, token(KIND_ANTI_ENTROPY, 0));
        }
    }

    /// Periodically reconciles the index/trigger catalog with one neighbor
    /// (round-robin): heals CreateIndex/NewVersion/CreateTrigger floods
    /// lost to the network, since CatalogResponse installation is
    /// idempotent. The tick sends the local catalog *digest* (12 wire
    /// bytes); the peer ships its full catalog back only on mismatch, so
    /// a converged overlay pays O(1) bytes per node per tick instead of
    /// re-cloning every schema and cut tree (DESIGN.md §16). Healing is
    /// symmetric across two tick directions: whichever side is behind
    /// receives the full catalog when the *other* side's digest arrives.
    fn anti_entropy_tick(&mut self, out: &mut Out) {
        let peers = self.overlay.all_neighbor_targets();
        if !peers.is_empty() {
            let pick = peers[(self.anti_entropy_rr as usize) % peers.len()];
            self.anti_entropy_rr += 1;
            let digest = self.catalog_digest();
            self.metrics.catalog_digests_sent += 1;
            out.send(
                pick,
                OverlayMsg::Direct {
                    payload: MindPayload::CatalogDigest { digest },
                },
            );
        }
        self.arm_anti_entropy(out);
    }

    /// Dedup state size: individually remembered applied-op counters
    /// across all origins. Bounded by the senders' in-flight ops — the
    /// chaos suite asserts this stays flat under churn.
    pub fn seen_ops_len(&self) -> usize {
        self.seen_ops.len()
    }

    /// Rows this node originated that are not yet acknowledged as stored:
    /// those still buffered in open wire batches plus those carried by
    /// unacked `Insert`/`InsertBatch` ops. Drops to zero once every
    /// accepted row is stored at its owner (or its op is abandoned after
    /// the retry budget). Replica pushes this node owes as an owner are
    /// not counted. With retries off (`retry_timeout == 0`) ops are not
    /// tracked, so only the buffered rows count.
    pub fn unacked_insert_rows(&self) -> usize {
        // Routed ops are the inserts this node originated; replica pushes
        // go direct.
        let pending: usize = self
            .pending_ops
            .values()
            .filter(|op| matches!(op.target, OpTarget::Routed(_)))
            .map(|op| {
                if let MindPayload::InsertBatch { records, .. } = &op.payload {
                    records.len()
                } else {
                    1
                }
            })
            .sum();
        self.buffered_inserts() + pending
    }

    /// Operations awaiting their ack.
    pub fn pending_ops_len(&self) -> usize {
        self.pending_ops.len()
    }

    /// Handles reliability-class timers; `true` if `kind` was ours.
    pub(crate) fn handle_reliability_timer(
        &mut self,
        now: SimTime,
        kind: u64,
        arg: u64,
        out: &mut Out,
    ) -> bool {
        match kind {
            KIND_OP_RETRY => self.retry_op(now, arg, out),
            KIND_ANTI_ENTROPY => self.anti_entropy_tick(out),
            KIND_BATCH_FLUSH => self.flush_wire_batch(now, arg, out),
            _ => return false,
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(origin: u64, counter: u64) -> u64 {
        (origin << 24) | counter
    }

    fn hz(boot: u64, settled: u64) -> u64 {
        (boot << 24) | settled
    }

    #[test]
    fn seen_ops_dedups_and_bounds() {
        let mut s = SeenOps::default();
        assert!(!s.observe(id(7, 3), hz(0, 0)));
        s.insert(id(7, 3));
        s.insert(id(7, 4));
        assert!(s.observe(id(7, 3), hz(0, 0)));
        assert_eq!(s.len(), 2);
        // Horizon 4 settles both; the memory is reclaimed but the ops
        // still read as seen.
        assert!(!s.observe(id(7, 5), hz(0, 4)));
        assert_eq!(s.len(), 0);
        assert!(s.observe(id(7, 3), hz(0, 4)));
        assert!(s.observe(id(7, 4), hz(0, 4)));
        assert!(!s.observe(id(7, 5), hz(0, 4)));
    }

    #[test]
    fn horizons_are_per_origin_and_monotonic() {
        let mut s = SeenOps::default();
        assert!(s.observe(id(1, 5), hz(0, 8)));
        assert!(!s.observe(id(2, 5), hz(0, 0)));
        // A stale (lower) horizon never regresses.
        assert!(s.observe(id(1, 8), hz(0, 3)));
        // Counters above the horizon are only seen if remembered.
        s.insert(id(1, 12));
        assert!(s.observe(id(1, 12), hz(0, 8)));
        assert!(!s.observe(id(1, 11), hz(0, 8)));
    }

    #[test]
    fn unknown_origin_is_never_seen() {
        let s = SeenOps::default();
        assert!(!s.contains(id(42, 1)));
    }

    #[test]
    fn newer_boot_resets_origin_memory() {
        let mut s = SeenOps::default();
        // Boot 100: counters up to 50 settled, 60 applied and remembered.
        assert!(!s.observe(id(3, 60), hz(100, 50)));
        s.insert(id(3, 60));
        assert!(s.observe(id(3, 42), hz(100, 50)));
        assert!(s.observe(id(3, 60), hz(100, 50)));
        // The origin restarts (boot 101) and counts from zero again: its
        // low fresh counters must NOT read as settled old ones.
        assert!(!s.observe(id(3, 1), hz(101, 0)));
        s.insert(id(3, 1));
        assert_eq!(s.len(), 1);
        // Its own retries still dedup within the new boot.
        assert!(s.observe(id(3, 1), hz(101, 0)));
        // A straggler from the dead incarnation is a stale duplicate.
        assert!(s.observe(id(3, 61), hz(100, 50)));
    }

    #[test]
    fn unacked_insert_rows_counts_buffered_and_in_flight_until_stored() {
        use crate::{ClusterConfig, MindCluster, Replication};
        use mind_histogram::CutTree;
        use mind_types::node::SECONDS;
        use mind_types::{AttrDef, AttrKind, HyperRect, IndexSchema, NodeId, Record};

        let mut cfg = ClusterConfig::planetlab(8, 5);
        cfg.mind.insert_batch_max = 8;
        let mut cluster = MindCluster::new(cfg);
        let schema = IndexSchema::new(
            "t",
            vec![
                AttrDef::new("x", AttrKind::Generic, 0, 1023),
                AttrDef::new("y", AttrKind::Generic, 0, 1023),
            ],
            2,
        );
        let cuts = CutTree::even(schema.bounds(), 6);
        cluster
            .create_index(NodeId(0), schema, cuts, Replication::None)
            .unwrap();
        cluster.run_for(30 * SECONDS);

        // 20 rows into one region code: two full batches of 8 leave at
        // once (in flight, unacked) and 4 rows stay buffered.
        let at = NodeId(3);
        for i in 0..20u64 {
            cluster.insert(at, "t", Record::new(vec![i, i])).unwrap();
        }
        let unacked = |c: &MindCluster| c.read_node(at, |n| n.unacked_insert_rows());
        let buffered = cluster.read_node(at, |n| n.buffered_inserts());
        assert_eq!(buffered, 4);
        assert_eq!(unacked(&cluster), 20);

        cluster.run_for(30 * SECONDS);
        assert_eq!(unacked(&cluster), 0, "every row stored and acked");
        let rect = HyperRect::new(vec![0, 0], vec![1023, 1023]);
        let qid = cluster.query(at, "t", rect, vec![]).unwrap();
        assert!(cluster.wait_until(60 * SECONDS, |c| c.query_outcome(at, qid).is_some()));
        let outcome = cluster.query_outcome(at, qid).unwrap();
        assert!(outcome.complete);
        assert_eq!(outcome.records.len(), 20);
    }
}
