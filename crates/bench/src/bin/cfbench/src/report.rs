//! One run's result: the metrics each mode reports, the correctness
//! verdict, and the single-line JSON form printed last on stdout and saved
//! for `compare`.

use std::fmt::Write as _;

/// End-to-end metrics: what a user of the system sees. Every workload
/// reports all of them, as `BENCHMARK.json` declares one set for all.
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("p50_ms", "ms"), ("peak_rss_mb", "MB")];

/// Per-layer metrics, in report order: goodput under overload (an
/// end-to-end number whose run-to-run spread on a shared 2-core host is
/// too wide to bound), then the traced replay's layers.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("capacity_qps", "1/s"),
    ("store.open_ms", "ms"),
    ("index.open_ms", "ms"),
    ("model.build_ms", "ms"),
    ("ckpt.load_ms", "ms"),
    ("quant.pack_ms", "ms"),
    ("protocol.parse_us.p50", "us"),
    ("protocol.resolve_us.p50", "us"),
    ("protocol.render_us.p50", "us"),
    ("cache.get_us.p50", "us"),
    ("retrieve.walk_us.p50", "us"),
    ("retrieve.walk_us.p99", "us"),
    ("retrieve.indexed_us.p50", "us"),
    ("retrieve.indexed_us.p99", "us"),
    ("filter.topk_us.p50", "us"),
    ("filter.topk_us.p99", "us"),
    ("forward.f32_b1_us.p50", "us"),
    ("forward.f32_b1_us.p99", "us"),
    ("forward.f32_b8_us.p50", "us"),
    ("forward.int8_b1_us.p50", "us"),
    ("engine.service_us.p50", "us"),
    ("journal.commit_us.p50", "us"),
    ("overlay.apply_us.p50", "us"),
    ("invalidate.bfs_us.p50", "us"),
    ("invalidate.dirty_n.p50", "count"),
    ("cache.invalidate_us.p50", "us"),
    ("index.bypass_frac", "ratio"),
    ("train.gather_us.p50", "us"),
    ("train.fwd_us.p50", "us"),
    ("train.bwd_us.p50", "us"),
    ("train.adam_us.p50", "us"),
    ("trace.overhead_frac", "ratio"),
];

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, `[A-Za-z0-9_.-]`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Metrics of one kind, checked against their declared list.
#[derive(Debug)]
pub struct Metrics {
    declared: &'static [(&'static str, &'static str)],
    /// Values in push order.
    pub values: Vec<Metric>,
}

impl Metrics {
    /// An empty set that must end up holding exactly `declared`.
    pub fn new(declared: &'static [(&'static str, &'static str)]) -> Self {
        Metrics {
            declared,
            values: Vec::new(),
        }
    }

    /// Records a declared metric and prints it with its unit and, for a
    /// value summarising samples, their count.
    pub fn push(&mut self, name: &str, value: f64, samples: Option<usize>) {
        let &(name, unit) = self
            .declared
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        print_metric(name, value, unit, samples);
        self.values.push(Metric { name, value, unit });
    }

    /// Whether every declared metric was pushed exactly once.
    pub fn complete(&self) -> bool {
        self.values.len() == self.declared.len()
            && self
                .declared
                .iter()
                .all(|(n, _)| self.values.iter().filter(|m| m.name == *n).count() == 1)
    }
}

/// Prints one number the way every metric is printed.
pub fn print_metric(name: &str, value: f64, unit: &str, samples: Option<usize>) {
    match samples {
        Some(n) => println!("  {name:<26} {value:>13.4} {unit:<5} n={n}"),
        None => println!("  {name:<26} {value:>13.4} {unit}"),
    }
}

/// What one workload run produced.
#[derive(Debug)]
pub struct Outcome {
    /// True when every correctness gate passed.
    pub correct: bool,
    /// Operations attempted (requests and mutations).
    pub attempted: u64,
    /// Attempted operations that failed or were never answered.
    pub failed: u64,
    /// End-to-end metrics.
    pub e2e: Metrics,
    /// Per-layer metrics (traced runs only).
    pub layer: Metrics,
}

impl Outcome {
    /// An outcome with no metrics yet.
    pub fn new() -> Self {
        Outcome {
            correct: true,
            attempted: 0,
            failed: 0,
            e2e: Metrics::new(END_TO_END),
            layer: Metrics::new(PER_LAYER),
        }
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, holding the per-layer metrics when `trace`, else the
    /// end-to-end ones. A non-finite value is written as `null` and makes
    /// the run incorrect, as does a metric set that is not complete.
    pub fn to_json(&self, trace: bool) -> String {
        let set = if trace { &self.layer } else { &self.e2e };
        let sound = set.complete() && set.values.iter().all(|m| m.value.is_finite());
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct && sound,
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in set.values.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() {
                format!("{}", m.value)
            } else {
                "null".to_string()
            };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// True for names made of at most 64 of `[A-Za-z0-9_.-]`, starting with
    /// a letter or digit — the names `BENCHMARK.json` may declare.
    fn valid_name(name: &str) -> bool {
        let b = name.as_bytes();
        !b.is_empty()
            && b.len() <= 64
            && b[0].is_ascii_alphanumeric()
            && b.iter()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
    }

    #[test]
    fn metric_names_keep_to_the_charset() {
        for ok in [
            "p50_ms",
            "retrieve.walk_us.p99",
            "trace.overhead_frac",
            "9-a",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", ".p50", "_x", "p50 ms", "lat/ms", "é", &"a".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        for (name, _) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
        }
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut o = Outcome::new();
        o.attempted = 10;
        o.failed = 1;
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            o.e2e.push(name, 0.25 + i as f64, Some(40));
        }
        let line = o.to_json(false);
        assert!(line.starts_with(
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, "
        ));
        let cf_serve::protocol::Json::Obj(top) = cf_serve::protocol::parse_json(&line).unwrap()
        else {
            panic!("not an object")
        };
        let mut keys: Vec<&String> = top.keys().collect();
        keys.sort();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        // The per-layer set is empty: a traced line would be incomplete.
        assert!(o.to_json(true).starts_with("{\"correct\": false"));
        o.e2e.values[0].value = f64::NAN;
        assert!(o.to_json(false).starts_with("{\"correct\": false"));
    }
}
