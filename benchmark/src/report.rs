//! Metric names and units (the same lists `BENCHMARK.json` carries) and
//! the result line a run ends with.

use std::collections::BTreeMap;
use std::fmt::Write;

/// End-to-end metrics, reported by every workload's untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("pass_ms_p50", "ms"),
    ("op_ms_tail5pct", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload's traced run; a layer a
/// workload never enters reports 0.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("datagen.load_s", "s"),
    ("tgm.translate_s", "s"),
    ("tgm.nodes", "count"),
    ("tgm.edges", "count"),
    ("server.start_ms", "ms"),
    ("actions.apply_ms_per_op", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("cache.key_us_per_op", "us"),
    ("matching.ms_per_op", "ms"),
    ("matching.calls", "count"),
    ("matching.rows_out_per_op", "count"),
    ("transform.ms_per_op", "ms"),
    ("transform.rows_out_per_op", "count"),
    ("transform.refs_out_per_op", "count"),
    ("transform.rendered_row_ratio", "ratio"),
    ("etable.sort_ms_per_op", "ms"),
    ("render.ms_per_op", "ms"),
    ("render.bytes_per_op", "bytes"),
    ("session.other_ms_per_op", "ms"),
    ("session.open_ms_p50", "ms"),
    ("session.filter_ms_p50", "ms"),
    ("session.pivot_ms_p50", "ms"),
    ("session.seeall_ms_p50", "ms"),
    ("session.sort_ms_p50", "ms"),
    ("session.revert_ms_p50", "ms"),
    ("session.over_100ms_pct", "%"),
    ("session.task_over_sql_x", "x"),
    ("proto.encode_query_us_per_op", "us"),
    ("proto.encode_result_us_per_op", "us"),
    ("proto.decode_result_us_per_op", "us"),
    ("proto.result_bytes_per_op", "bytes"),
    ("sql.parse_us_per_op", "us"),
    ("sql.analyze_us_per_op", "us"),
    ("sql.execute_ms_per_op", "ms"),
    ("sql.rows_out_per_op", "count"),
    ("shared.snapshot_us_per_op", "us"),
    ("shared.write_ms_per_op", "ms"),
    ("server.transport_us_per_op", "us"),
    ("server.point_ms_p50", "ms"),
    ("server.analytic_ms_p50", "ms"),
    ("server.bulk_ms_p50", "ms"),
    ("server.queries_ok", "count"),
    ("server.queries_err", "count"),
    ("write.ms_p50", "ms"),
    ("write.ms_p90", "ms"),
    ("write.count", "count"),
    ("exec.pool_threads", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.ops", "count"),
];

/// What one run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations measured (warm-up excluded).
    pub attempted: u64,
    /// Of those: failed, refused, or answered wrongly.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Provenance and sample counts, one line each.
    pub notes: Vec<String>,
}

impl Report {
    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Adds a provenance line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Every run was correct when nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The metrics of one kind in declaration order. An end-to-end
    /// metric must have been measured; a per-layer one defaults to 0.
    pub fn metrics(&self, traced: bool) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
        let list: &[(&'static str, &'static str)] = if traced { &PER_LAYER } else { &END_TO_END };
        list.iter()
            .map(|&(name, unit)| match self.values.get(name) {
                Some(&v) if v.is_finite() => Ok((name, v, unit)),
                Some(v) => Err(format!("metric {name} is {v}")),
                None if traced => Ok((name, 0.0, unit)),
                None => Err(format!("metric {name} was not measured")),
            })
            .collect()
    }

    /// The result line: one JSON object, the last line a run prints.
    pub fn json(&self, traced: bool) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics(traced)?.into_iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untraced_result_needs_every_end_to_end_metric() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        assert!(r.json(false).is_err());
        for (name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        let line = r.json(false).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(r
            .json(true)
            .unwrap()
            .contains("\"matching.calls\": {\"value\": 0"));
    }

    #[test]
    fn benchmark_json_names_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                text.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} [{unit}] is missing from BENCHMARK.json"
            );
        }
        let metrics = text.matches("\"unit\":").count();
        assert_eq!(metrics, END_TO_END.len() + PER_LAYER.len());
        for workload in crate::WORKLOADS {
            assert!(text.contains(&format!("\"name\": \"{workload}\"")));
        }
    }
}
