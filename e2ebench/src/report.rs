//! The metrics a run reports and the one-line JSON result.
//!
//! The two lists below are the benchmark's contract with its reader and
//! must match `BENCHMARK.json` (a test checks that). An untraced run
//! reports every end-to-end metric; a traced run reports every per-layer
//! metric, with `0` for layers the workload does not exercise.

use crate::host::json_str;
use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`. Every workload reports all three.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("train_s", "s"),
    ("train_peak_rss_mib", "MiB"),
];

/// Per-layer metrics: `(name, unit)`, grouped by the layer they time.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Program text to runnable (engine: parse + compile + analyze; C++:
    // emit + g++).
    ("compile_s", "s"),
    // ifaq (core pipeline), ifaq_transform, ifaq_ir.
    ("core.compile_s", "s"),
    ("transform.highlevel_s", "s"),
    ("transform.specialize_s", "s"),
    ("transform.rule_firings", "count"),
    ("transform.memoized", "count"),
    ("transform.hoisted", "count"),
    ("ir.nodes.input", "count"),
    ("ir.nodes.highlevel", "count"),
    ("ir.nodes.specialized", "count"),
    ("ir.nodes.residual", "count"),
    // ifaq_query.
    ("query.analyze_s", "s"),
    ("query.aggregates", "count"),
    ("query.plan_s", "s"),
    // ifaq_engine: resident execution and the residual interpreter.
    ("engine.prepare_s", "s"),
    ("engine.scan_s", "s"),
    ("engine.scan_rows_per_s", "1/s"),
    ("engine.node_scan_s", "s"),
    ("engine.interp_s", "s"),
    ("engine.interp_iter_ms", "ms"),
    // ifaq_storage::stream and ifaq_engine::stream.
    ("storage.open_s", "s"),
    ("storage.read_pass_s", "s"),
    ("engine.stream_pass_s", "s"),
    ("engine.stream_chunks", "count"),
    ("engine.stream_rows", "count"),
    ("engine.peak_live_chunks", "count"),
    // ifaq_ml.
    ("ml.logreg.iter_s", "s"),
    ("ml.tree.thresholds_s", "s"),
    ("ml.tree.nodes", "count"),
    // ifaq_serve.
    ("serve.engine_build_s", "s"),
    ("serve.delta_p50_ms", "ms"),
    ("serve.delta_tail_ms", "ms"),
    ("serve.delta_tail_pct", "percentile"),
    ("serve.deltas", "count"),
    ("serve.read_p50_us", "us"),
    ("serve.read_tail_us", "us"),
    ("serve.read_tail_pct", "percentile"),
    ("serve.reads", "count"),
    ("serve.max_delta_rate", "1/s"),
    ("serve.noop_ms", "ms"),
    ("serve.insert_ms", "ms"),
    ("serve.delete_ms", "ms"),
    ("serve.refit_ms", "ms"),
    ("serve.prep_cache_hit_ratio", "ratio"),
    ("serve.prep_cache_lookups", "count"),
    ("serve.generator_late_ms", "ms"),
    // ifaq_codegen.
    ("codegen.emit_s", "s"),
    ("codegen.source_bytes", "bytes"),
    ("codegen.cxx_s", "s"),
    ("codegen.load_s", "s"),
    ("codegen.train_s", "s"),
    // ifaq_datagen and the IFAQTBL1 export.
    ("datagen.generate_s", "s"),
    ("storage.export_s", "s"),
    // Materialize-first reference pipeline.
    ("baseline.materialize_s", "s"),
    ("baseline.learn_s", "s"),
    // Accounting.
    ("error_rate", "fraction"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_s", "s"),
];

/// The declared unit of a metric.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric `{name}` is not declared in report.rs"))
}

/// One run's results.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    /// Operations attempted (training runs, deltas, reads, checks).
    pub attempted: u64,
    /// Operations that failed, were refused, or gave a wrong result.
    pub failed: u64,
    /// Correctness checks: `(what, passed, detail)`.
    pub checks: Vec<(String, bool, String)>,
}

impl Report {
    /// Sets a declared metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        unit_of(name);
        self.values.insert(name, value);
    }

    /// Reads a metric back, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Counts `n` operations, `failed` of which failed.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Records a correctness check; a failed check counts as a failed
    /// operation.
    pub fn check(&mut self, what: &str, passed: bool, detail: impl Into<String>) {
        self.ops(1, u64::from(!passed));
        self.checks.push((what.to_string(), passed, detail.into()));
    }

    /// True if every check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok, _)| *ok)
    }

    /// The result line: the end-to-end metrics (`traced == false`) or the
    /// per-layer ones, each with its unit. Unset per-layer metrics read
    /// `0`: the workload never entered that layer. An unset or non-finite
    /// end-to-end metric is an error.
    pub fn result_json(&self, traced: bool) -> Result<String, String> {
        let list = if traced { PER_LAYER } else { END_TO_END };
        let mut parts = Vec::new();
        for (name, unit) in list {
            let value = match (self.values.get(name), traced) {
                (Some(v), _) => *v,
                (None, true) => 0.0,
                (None, false) => {
                    return Err(format!("end-to-end metric `{name}` was not measured"))
                }
            };
            if !value.is_finite() {
                return Err(format!("metric `{name}` is not finite ({value})"));
            }
            parts.push(format!(
                "{}:{{\"value\":{value},\"unit\":{}}}",
                json_str(name),
                json_str(unit)
            ));
        }
        Ok(format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            parts.join(",")
        ))
    }

    /// Every metric set so far: `(name, value, unit)`, by name.
    pub fn measured(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        self.values.iter().map(|(k, v)| (*k, *v, unit_of(k)))
    }

    /// Every metric set so far, as a JSON object (for the record file).
    pub fn all_json(&self) -> String {
        let parts: Vec<String> = self
            .values
            .iter()
            .filter(|(_, v)| v.is_finite())
            .map(|(k, v)| format!("{}:{v}", json_str(k)))
            .collect();
        format!("{{{}}}", parts.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let section = |key: &str| {
            let start = spec.find(&format!("\"{key}\"")).expect(key);
            let end = spec[start..].find(']').expect("list end") + start;
            spec[start..end].to_string()
        };
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let s = section(key);
            let declared = s.matches("\"name\"").count();
            assert_eq!(declared, list.len(), "{key}: count differs from report.rs");
            for (name, unit) in list {
                let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(s.contains(&entry), "{key}: missing {entry}");
            }
        }
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut r = Report::default();
        r.set("setup_s", 1.5);
        r.set("train_s", 2.0);
        assert!(r.result_json(false).is_err(), "train_peak_rss_mib unset");
        r.set("train_peak_rss_mib", 10.0);
        r.check("x", true, "");
        let line = r.result_json(false).unwrap();
        assert!(line.starts_with("{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{"));
        assert!(line.contains("\"setup_s\":{\"value\":1.5,\"unit\":\"s\"}"));
        let traced = r.result_json(true).unwrap();
        assert!(traced.contains("\"codegen.cxx_s\":{\"value\":0,\"unit\":\"s\"}"));
        assert!(!traced.contains("setup_s"));
    }
}
