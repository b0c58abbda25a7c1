//! What one run prints: provenance, every metric by name with its unit,
//! and the final one-line JSON result.

use serde::Content;

/// End-to-end metrics every workload reports in its result line (the
/// gated set). The rest (`lat_p99_ms`, `requests_per_s`, ...) are printed
/// by name above it.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("points_per_s", "points/s"),
    ("lat_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics every traced run reports; a layer a workload never
/// reaches reads 0.
pub const PER_LAYER: [(&str, &str); 24] = [
    ("net.scan_ns_per_msg", "ns"),
    ("net.decode_ns_per_pt", "ns"),
    ("net.transport_us_per_req", "us"),
    ("serve.parse_ns_per_pt", "ns"),
    ("serve.engine_self_us_per_req", "us"),
    ("serve.admit_us_per_req", "us"),
    ("serve.pool_ns_per_pt", "ns"),
    ("serve.encode_binary_ns_per_pt", "ns"),
    ("serve.encode_ndjson_ns_per_pt", "ns"),
    ("serve.registry_hit_ratio", "ratio"),
    ("serve.degraded_frac", "ratio"),
    ("symbolic.kernel_ns_per_pt", "ns"),
    ("symbolic.ops_per_pt", "count"),
    ("symbolic.opt_ratio", "ratio"),
    ("awe.post_ns_per_pt", "ns"),
    ("circuit.parse_ms", "ms"),
    ("mna.build_ms", "ms"),
    ("partition.compile_ms", "ms"),
    ("timing.rng_ns_per_sample", "ns"),
    ("timing.tape_ns_per_sample", "ns"),
    ("timing.metric_ns_per_sample", "ns"),
    ("timing.accum_ns_per_sample", "ns"),
    ("bench.unattributed_pct", "%"),
    ("bench.trace_overhead_pct", "%"),
];

#[derive(Default)]
pub struct Report {
    /// Every measured metric: name, value, unit.
    metrics: Vec<(String, f64, String)>,
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
    /// Client/server accounting disagreements and other hard failures.
    pub errors: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        println!("metric {name} = {value} {unit}");
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    pub fn note(&self, line: &str) {
        println!("{line}");
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    pub fn correct(&self) -> bool {
        self.wrong == 0 && self.errors.is_empty()
    }

    /// Prints the failure summary and the final JSON line; `names` is the
    /// metric set this mode must report.
    pub fn finish(&self, names: &[(&str, &str)]) {
        for e in &self.errors {
            println!("ERROR {e}");
        }
        let failed_frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!("metric failed_frac = {failed_frac} ratio");
        println!("metric wrong_results = {} count", self.wrong);
        let metrics = names
            .iter()
            .map(|(name, unit)| {
                let value = self.get(name).unwrap_or(0.0);
                (
                    name.to_string(),
                    Content::Map(vec![
                        ("value".into(), Content::F64(value)),
                        ("unit".into(), Content::Str(unit.to_string())),
                    ]),
                )
            })
            .collect();
        let out = Content::Map(vec![
            ("correct".into(), Content::Bool(self.correct())),
            ("attempted".into(), Content::U64(self.attempted.max(1))),
            ("failed".into(), Content::U64(self.failed)),
            ("metrics".into(), Content::Map(metrics)),
        ]);
        println!("{}", serde_json::to_string(&out).expect("result JSON"));
    }
}
