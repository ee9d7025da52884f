//! The metric vocabulary and the report every run prints.
//!
//! Every workload reports every end-to-end name below from its untraced
//! run. The traced run reports the per-layer list of its plane: the tcp
//! workloads cannot see the counters `mind-node` keeps to itself (core
//! retries, overlay hops), and only `sim_paper` runs the simulator.

use crate::stats::RunEnv;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`. Printed by the untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ingest_rows_per_s", "rows/s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
];

/// Per-layer metrics of the tcp workloads: `(name, unit)`. Printed by
/// their traced run.
pub const PER_LAYER_TCP: &[(&str, &str)] = &[
    ("runtime.insert_ack_p50_us", "us"),
    ("runtime.insert_ack_p99_us", "us"),
    ("runtime.insert_call_us", "us"),
    ("runtime.ping_rtt_us", "us"),
    ("runtime.query_poll_gap_ms", "ms"),
    ("runtime.accept_rows_per_s", "rows/s"),
    ("runtime.drain_s", "s"),
    ("runtime.replica_lag_s", "s"),
    ("runtime.trickle_late_ms", "ms"),
    ("net.ctl_encode_ns_per_row", "ns/row"),
    ("net.ctl_decode_ns_per_row", "ns/row"),
    ("net.ctl_bytes_per_row", "B/row"),
    ("net.reply_decode_ns_per_result", "ns/result"),
    ("net.msgs_per_row", "msgs/row"),
    ("net.sends_dropped", "count"),
    ("net.reconnects", "count"),
    ("net.inbound_throttled", "count"),
    ("histogram.code_ns_per_row", "ns/row"),
    ("histogram.cover_ns_per_query", "ns/query"),
    ("histogram.codes_per_query", "codes/query"),
    ("store.insert_ns_per_row", "ns/row"),
    ("store.scan_ns_per_query", "ns/query"),
    ("store.scan_ns_per_result", "ns/result"),
    ("core.dac_model_share", "ratio"),
    ("core.subqueries_per_query", "nodes/query"),
    ("trace.overhead_share", "ratio"),
    ("trace.unattributed_share", "ratio"),
    ("trace.spans", "count"),
];

/// Per-layer metrics of `sim_paper`: `(name, unit)`. Printed by its traced
/// run.
pub const PER_LAYER_SIM: &[(&str, &str)] = &[
    ("histogram.code_ns_per_row", "ns/row"),
    ("histogram.cover_ns_per_query", "ns/query"),
    ("histogram.codes_per_query", "codes/query"),
    ("store.insert_ns_per_row", "ns/row"),
    ("store.scan_ns_per_query", "ns/query"),
    ("store.scan_ns_per_result", "ns/result"),
    ("core.dac_model_share", "ratio"),
    ("core.insert_call_ns", "ns"),
    ("core.retries_per_op", "ratio"),
    ("core.ack_ratio", "ratio"),
    ("core.query_retries", "count"),
    ("core.dup_ops_ignored", "count"),
    ("core.subqueries_per_query", "nodes/query"),
    ("core.undeliverable", "count"),
    ("overlay.hops_p50", "hops"),
    ("overlay.hops_p99", "hops"),
    ("netsim.run_share", "ratio"),
    ("netsim.ns_per_event", "ns/event"),
    ("netsim.events_per_op", "events/op"),
    ("netsim.queue_delay_mean_ms", "ms"),
    ("netsim.requeued_busy_per_delivery", "ratio"),
    ("netsim.pending_events_peak", "count"),
    ("netsim.wall_s_per_simhour", "s"),
    ("traffic.gen_s", "s"),
    ("trace.overhead_share", "ratio"),
    ("trace.unattributed_share", "ratio"),
    ("trace.spans", "count"),
];

/// What one run found and measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// The per-layer metrics this workload's traced run reports.
    pub layer_names: &'static [(&'static str, &'static str)],
    /// Operations attempted (rows sent plus queries issued).
    pub attempted: u64,
    /// Operations that failed: refused or lost rows, wrong or incomplete
    /// answers.
    pub failed: u64,
    /// Whole-run checks (audit, clean exits) that are not operations.
    pub check_failures: Vec<String>,
    /// End-to-end values by name (untraced run).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer values by name (traced run).
    pub layers: BTreeMap<&'static str, f64>,
    /// Human-readable lines: the workload's own names, sample counts.
    pub detail: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// `true` when no operation failed and every whole-run check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.check_failures.is_empty() && self.attempted > 0
    }

    /// Adds a human-readable line.
    pub fn detail(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.detail.push((name.into(), value, unit));
    }

    /// Layer values not in this workload's per-layer list: a bug.
    pub fn unlisted_layers(&self) -> Vec<&'static str> {
        self.layers
            .keys()
            .filter(|k| !self.layer_names.iter().any(|(n, _)| n == *k))
            .copied()
            .collect()
    }

    /// The report as human-readable lines.
    pub fn render(&self, env: &RunEnv, trace: bool) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "workload {}  {}", self.workload, env.render());
        let _ = writeln!(
            s,
            "  ops_failed_frac = {} ratio ({} of {})",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        for c in &self.check_failures {
            let _ = writeln!(s, "  CHECK FAILED: {c}");
        }
        for (name, value, unit) in &self.detail {
            let _ = writeln!(s, "  {name} = {value:.6} {unit}");
        }
        let list = if trace { self.layer_names } else { END_TO_END };
        let values = if trace { &self.layers } else { &self.e2e };
        for (name, unit) in list {
            let v = values.get(name).copied().unwrap_or(0.0);
            let _ = writeln!(
                s,
                "  [{}] {name} = {v:.6} {unit}",
                if trace { "layer" } else { "e2e" }
            );
        }
        s
    }

    /// The one-line JSON result: every end-to-end metric (untraced) or
    /// every per-layer metric (traced), each with its unit.
    pub fn json_line(&self, trace: bool) -> String {
        let list = if trace { self.layer_names } else { END_TO_END };
        let values = if trace { &self.layers } else { &self.e2e };
        let metrics: Vec<String> = list
            .iter()
            .map(|(name, unit)| {
                let v = values.get(name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lists_every_metric_of_the_run_kind() {
        let mut r = Report {
            attempted: 3,
            layer_names: PER_LAYER_TCP,
            ..Report::default()
        };
        r.e2e.insert("setup_s", 1.25);
        let line = r.json_line(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        for (name, _) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\"")));
        }
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(r.json_line(true).contains("\"trace.spans\""));
    }
}
