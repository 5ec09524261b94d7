//! Lock-free serving metrics: monotonic counters plus log₂-bucketed
//! histograms for latency and batch size, rendered in a flat
//! Prometheus-style text format for the `GET /metrics` command.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log₂ buckets. Bucket `b > 0` holds values in
/// `[2^(b-1), 2^b)`; bucket 0 holds zero. 2³⁹ µs ≈ 6 days — far past any
/// latency this server can produce.
const BUCKETS: usize = 40;

/// A lock-free histogram over `u64` samples with power-of-two buckets.
///
/// Recording is a pair of relaxed atomic increments, so worker and
/// connection threads never contend on a lock for metrics. Quantiles are
/// bucket lower bounds — exact enough for p50/p95/p99 dashboards, never
/// an overestimate.
#[derive(Debug)]
pub struct Histogram {
    counts: Vec<AtomicU64>,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    fn bucket(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            (64 - v.leading_zeros() as usize).min(BUCKETS - 1)
        }
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.counts[Self::bucket(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Mean of all samples (0 when empty).
    pub fn mean(&self) -> u64 {
        let n = self.count();
        if n == 0 {
            0
        } else {
            self.sum() / n
        }
    }

    /// Approximate quantile `q ∈ [0, 1]`: the lower bound of the bucket
    /// containing the q-th sample (0 when empty).
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (b, c) in self.counts.iter().enumerate() {
            seen += c.load(Ordering::Relaxed);
            if seen >= rank {
                return if b == 0 { 0 } else { 1u64 << (b - 1) };
            }
        }
        self.max()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-shard serving counters, rendered with a `{shard="i"}` label after
/// the global (unlabeled) metrics. Every cell is also counted in the
/// matching global counter, so existing dashboards keep working unchanged;
/// the shard rows exist to expose routing balance, per-shard shedding, and
/// the admission controller's service-time estimate.
pub struct ShardMetrics {
    /// Requests routed to this shard (accepted or shed).
    pub requests: AtomicU64,
    /// Requests this shard shed (queue full or projected delay > deadline).
    pub shed: AtomicU64,
    /// Chain-cache hits in this shard's cache.
    pub cache_hits: AtomicU64,
    /// Chain-cache misses in this shard's cache.
    pub cache_misses: AtomicU64,
    /// EWMA of per-request service time on this shard, microseconds
    /// (gauge, written by the shard's workers; admission control reads it).
    pub ewma_service_us: AtomicU64,
}

impl ShardMetrics {
    fn new() -> Self {
        ShardMetrics {
            requests: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            ewma_service_us: AtomicU64::new(0),
        }
    }
}

/// All serving counters and histograms. One instance lives in the engine
/// and is shared (by reference) with the server's connection threads.
pub struct Metrics {
    /// Requests that reached the engine queue (accepted or shed).
    pub requests: AtomicU64,
    /// Successfully answered predictions.
    pub ok: AtomicU64,
    /// Malformed or failed requests (parse errors, unknown names).
    pub errors: AtomicU64,
    /// Requests rejected because the queue was full (overload shedding).
    pub shed: AtomicU64,
    /// Requests dropped because their deadline expired before processing.
    pub deadline_missed: AtomicU64,
    /// Predictions answered by the training-mean fallback (no chains).
    pub fallbacks: AtomicU64,
    /// Chain-cache hits.
    pub cache_hits: AtomicU64,
    /// Chain-cache misses (retrieval ran).
    pub cache_misses: AtomicU64,
    /// Cache misses an indexed engine answered from an index row
    /// recomputed against the live graph, because a mutation may have
    /// changed the stored row or the entity was added after the build.
    /// Always 0 without an index.
    pub index_rows_rebuilt: AtomicU64,
    /// Model hot-reloads that validated and swapped successfully.
    pub reloads_ok: AtomicU64,
    /// Model hot-reloads rejected (corrupt file, shape mismatch, io
    /// error); the previous model kept serving.
    pub reloads_rejected: AtomicU64,
    /// Graph mutation batches validated, journaled, and applied.
    pub mutations_ok: AtomicU64,
    /// Graph mutation batches rejected (validation or journal failure);
    /// the live graph was left untouched.
    pub mutations_rejected: AtomicU64,
    /// Online compactions (`--compact-every`) that failed to write the
    /// store or truncate the journal. The batch that triggered one was
    /// still applied and acknowledged; its journal keeps the records, and
    /// the next attempt waits for `--compact-every` more of them.
    pub compactions_failed: AtomicU64,
    /// Chain rows whose Chain Encoder row a worker's pattern cache already
    /// held (or that repeat a pattern encoded earlier in the same batch).
    pub pattern_rows_cached: AtomicU64,
    /// Pattern rows the Chain Encoder's Transformer encoded: one per
    /// distinct pattern a batch's worker cache lacked.
    pub pattern_rows_encoded: AtomicU64,
    /// End-to-end latency per answered request, microseconds.
    pub latency_us: Histogram,
    /// Batch sizes actually executed by the workers.
    pub batch_size: Histogram,
    /// Inference mode gauge: 1 when the engine serves the int8 quantized
    /// path, 0 for f32. Config state, not a counter.
    quantize_int8: AtomicU64,
    /// Per-shard counters (empty for non-sharded users of the type).
    shards: Vec<ShardMetrics>,
}

impl Metrics {
    /// Fresh, all-zero metrics with no per-shard rows (the single-engine /
    /// unit-test shape; the sharded engine uses [`Self::with_shards`]).
    pub fn new() -> Self {
        Self::with_shards(0)
    }

    /// Fresh, all-zero metrics carrying `shards` per-shard counter rows.
    pub fn with_shards(shards: usize) -> Self {
        Metrics {
            requests: AtomicU64::new(0),
            ok: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            deadline_missed: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            index_rows_rebuilt: AtomicU64::new(0),
            reloads_ok: AtomicU64::new(0),
            reloads_rejected: AtomicU64::new(0),
            mutations_ok: AtomicU64::new(0),
            mutations_rejected: AtomicU64::new(0),
            compactions_failed: AtomicU64::new(0),
            pattern_rows_cached: AtomicU64::new(0),
            pattern_rows_encoded: AtomicU64::new(0),
            latency_us: Histogram::new(),
            batch_size: Histogram::new(),
            quantize_int8: AtomicU64::new(0),
            shards: (0..shards).map(|_| ShardMetrics::new()).collect(),
        }
    }

    /// Records which numeric mode the engine serves in (rendered as the
    /// `cf_serve_quantize_mode{mode="..."}` gauge).
    pub fn set_quantize_int8(&self, int8: bool) {
        self.quantize_int8.store(u64::from(int8), Ordering::Relaxed);
    }

    /// The counters for shard `i` (panics when out of range — the engine
    /// routes with `% shard_count`, so a miss is a routing bug).
    pub fn shard(&self, i: usize) -> &ShardMetrics {
        &self.shards[i]
    }

    /// Number of per-shard counter rows.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Cache hit rate in `[0, 1]` (0 when no lookups happened).
    pub fn cache_hit_rate(&self) -> f64 {
        let h = self.cache_hits.load(Ordering::Relaxed) as f64;
        let m = self.cache_misses.load(Ordering::Relaxed) as f64;
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }

    /// Renders every metric as `name value` lines (Prometheus-style).
    pub fn render(&self) -> String {
        let g = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let mut s = String::new();
        use std::fmt::Write as _;
        let _ = writeln!(s, "cf_serve_requests_total {}", g(&self.requests));
        let _ = writeln!(s, "cf_serve_ok_total {}", g(&self.ok));
        let _ = writeln!(s, "cf_serve_errors_total {}", g(&self.errors));
        let _ = writeln!(s, "cf_serve_shed_total {}", g(&self.shed));
        let _ = writeln!(
            s,
            "cf_serve_deadline_missed_total {}",
            g(&self.deadline_missed)
        );
        let _ = writeln!(s, "cf_serve_fallback_total {}", g(&self.fallbacks));
        let _ = writeln!(s, "cf_serve_cache_hits_total {}", g(&self.cache_hits));
        let _ = writeln!(s, "cf_serve_cache_misses_total {}", g(&self.cache_misses));
        let _ = writeln!(s, "cf_serve_cache_hit_rate {:.4}", self.cache_hit_rate());
        let _ = writeln!(
            s,
            "cf_serve_index_rows_rebuilt_total {}",
            g(&self.index_rows_rebuilt)
        );
        let _ = writeln!(s, "cf_serve_reloads_ok_total {}", g(&self.reloads_ok));
        let _ = writeln!(
            s,
            "cf_serve_reloads_rejected_total {}",
            g(&self.reloads_rejected)
        );
        let _ = writeln!(s, "cf_serve_mutations_ok_total {}", g(&self.mutations_ok));
        let _ = writeln!(
            s,
            "cf_serve_mutations_rejected_total {}",
            g(&self.mutations_rejected)
        );
        let _ = writeln!(s, "cf_serve_latency_us_count {}", self.latency_us.count());
        let _ = writeln!(s, "cf_serve_latency_us_mean {}", self.latency_us.mean());
        let _ = writeln!(
            s,
            "cf_serve_latency_us_p50 {}",
            self.latency_us.quantile(0.50)
        );
        let _ = writeln!(
            s,
            "cf_serve_latency_us_p95 {}",
            self.latency_us.quantile(0.95)
        );
        let _ = writeln!(
            s,
            "cf_serve_latency_us_p99 {}",
            self.latency_us.quantile(0.99)
        );
        let _ = writeln!(s, "cf_serve_latency_us_max {}", self.latency_us.max());
        let _ = writeln!(s, "cf_serve_batch_size_mean {}", self.batch_size.mean());
        let _ = writeln!(
            s,
            "cf_serve_batch_size_p50 {}",
            self.batch_size.quantile(0.50)
        );
        let _ = writeln!(s, "cf_serve_batch_size_max {}", self.batch_size.max());
        let mode = if self.quantize_int8.load(Ordering::Relaxed) != 0 {
            "int8"
        } else {
            "f32"
        };
        let _ = writeln!(s, "cf_serve_quantize_mode{{mode=\"{mode}\"}} 1");
        let _ = writeln!(
            s,
            "cf_serve_compactions_failed_total {}",
            g(&self.compactions_failed)
        );
        let _ = writeln!(
            s,
            "cf_serve_pattern_rows_cached_total {}",
            g(&self.pattern_rows_cached)
        );
        let _ = writeln!(
            s,
            "cf_serve_pattern_rows_encoded_total {}",
            g(&self.pattern_rows_encoded)
        );
        // Shard-labeled rows come after every global line, so scrapers that
        // stop at the first unknown name (or match exact prefixes) keep
        // seeing the original unlabeled fields untouched.
        for (i, sh) in self.shards.iter().enumerate() {
            let _ = writeln!(
                s,
                "cf_serve_shard_requests_total{{shard=\"{i}\"}} {}",
                g(&sh.requests)
            );
            let _ = writeln!(
                s,
                "cf_serve_shard_shed_total{{shard=\"{i}\"}} {}",
                g(&sh.shed)
            );
            let _ = writeln!(
                s,
                "cf_serve_shard_cache_hits_total{{shard=\"{i}\"}} {}",
                g(&sh.cache_hits)
            );
            let _ = writeln!(
                s,
                "cf_serve_shard_cache_misses_total{{shard=\"{i}\"}} {}",
                g(&sh.cache_misses)
            );
            let _ = writeln!(
                s,
                "cf_serve_shard_ewma_service_us{{shard=\"{i}\"}} {}",
                g(&sh.ewma_service_us)
            );
        }
        s
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let h = Histogram::new();
        for v in [1u64, 2, 4, 100, 1000, 10_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 11_107);
        assert_eq!(h.max(), 10_000);
        // p50 of {1,2,4,100,1000,10000}: 3rd sample = 4 → bucket [4,8).
        assert_eq!(h.quantile(0.5), 4);
        // p99 lands in the last sample's bucket [8192, 16384).
        assert_eq!(h.quantile(0.99), 8192);
        // Quantiles never overestimate: lower bound of the bucket.
        assert!(h.quantile(1.0) <= 10_000);
    }

    #[test]
    fn histogram_handles_zero_and_empty() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0);
        h.record(0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn shard_rows_render_after_globals() {
        let m = Metrics::with_shards(2);
        assert_eq!(m.shard_count(), 2);
        m.requests.fetch_add(3, Ordering::Relaxed);
        m.shard(0).requests.fetch_add(2, Ordering::Relaxed);
        m.shard(1).requests.fetch_add(1, Ordering::Relaxed);
        m.shard(1).shed.fetch_add(1, Ordering::Relaxed);
        m.shard(0).ewma_service_us.store(512, Ordering::Relaxed);
        let text = m.render();
        // Global names are untouched (no label crept into them)…
        assert!(text.contains("cf_serve_requests_total 3"), "{text}");
        // …and every shard row is labeled.
        assert!(
            text.contains("cf_serve_shard_requests_total{shard=\"0\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("cf_serve_shard_requests_total{shard=\"1\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("cf_serve_shard_shed_total{shard=\"1\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("cf_serve_shard_ewma_service_us{shard=\"0\"} 512"),
            "{text}"
        );
        // Shard rows come after the last global line.
        let global_at = text.find("cf_serve_batch_size_max").unwrap();
        let shard_at = text.find("cf_serve_shard_requests_total").unwrap();
        assert!(shard_at > global_at, "shard rows interleaved with globals");
    }

    #[test]
    fn unsharded_metrics_render_no_shard_rows() {
        let m = Metrics::new();
        assert_eq!(m.shard_count(), 0);
        assert!(!m.render().contains("cf_serve_shard_"));
    }

    #[test]
    fn quantize_mode_gauge_renders() {
        let m = Metrics::new();
        assert!(m
            .render()
            .contains("cf_serve_quantize_mode{mode=\"f32\"} 1"));
        m.set_quantize_int8(true);
        assert!(m
            .render()
            .contains("cf_serve_quantize_mode{mode=\"int8\"} 1"));
    }

    #[test]
    fn render_contains_every_counter() {
        let m = Metrics::new();
        m.requests.fetch_add(3, Ordering::Relaxed);
        m.cache_hits.fetch_add(1, Ordering::Relaxed);
        m.cache_misses.fetch_add(1, Ordering::Relaxed);
        m.latency_us.record(500);
        let text = m.render();
        assert!(text.contains("cf_serve_requests_total 3"));
        assert!(text.contains("cf_serve_cache_hit_rate 0.5000"));
        assert!(text.contains("cf_serve_latency_us_p50 256"));
    }

    #[test]
    fn mutation_counters_render() {
        let m = Metrics::new();
        m.mutations_ok.fetch_add(2, Ordering::Relaxed);
        m.mutations_rejected.fetch_add(1, Ordering::Relaxed);
        m.compactions_failed.fetch_add(1, Ordering::Relaxed);
        let text = m.render();
        assert!(text.contains("cf_serve_mutations_ok_total 2"), "{text}");
        assert!(
            text.contains("cf_serve_mutations_rejected_total 1"),
            "{text}"
        );
        // New rows slot into the global region without renaming anything:
        // they render before the first shard-labeled row would.
        let at = text.find("cf_serve_mutations_ok_total").unwrap();
        let last_global = text.find("cf_serve_batch_size_max").unwrap();
        assert!(at < last_global, "mutation rows must sit in the globals");
        // The compaction-failure row is appended after the last global.
        let failed = text.find("cf_serve_compactions_failed_total 1").unwrap();
        assert!(failed > text.find("cf_serve_quantize_mode").unwrap());
    }
}
