//! A small metrics registry: monotonic counters and fixed-bucket histograms.
//!
//! Metrics are keyed by name in a `BTreeMap`, so exports are deterministically
//! ordered.  The registry is thread-safe; instrumented layers call
//! [`MetricsRegistry::add`] / [`MetricsRegistry::observe`] and exporters call
//! [`MetricsRegistry::to_json`] for the flat summary document.

use crate::json::JsonValue;
use crate::record::lock;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// A fixed-bucket histogram: `counts[i]` counts observations `<= bounds[i]`,
/// with one overflow bucket at the end.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Inclusive upper bounds of the finite buckets, ascending.
    pub bounds: Vec<f64>,
    /// Per-bucket observation counts (`bounds.len() + 1` entries).
    pub counts: Vec<u64>,
    /// Sum of all observed values.
    pub sum: f64,
    /// Total number of observations.
    pub count: u64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            count: 0,
        }
    }

    fn observe(&mut self, value: f64) {
        let bucket = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[bucket] += 1;
        self.sum += value;
        self.count += 1;
    }

    /// Mean of all observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimate the `q`-quantile (`0.0 ..= 1.0`) from the bucket counts.
    ///
    /// The estimate interpolates linearly inside the bucket that crosses the
    /// target rank, Prometheus-style, and is fully determined by the stored
    /// counts — no raw observations are kept.  Observations that landed in the
    /// overflow bucket are reported as the largest finite bound (the histogram
    /// cannot see past its bounds).  Returns 0 when the histogram is empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.count as f64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let upto = seen + c;
            if (upto as f64) >= rank {
                let Some(&hi) = self.bounds.get(i) else {
                    // Overflow bucket: clamp to the largest finite bound.
                    return self.bounds.last().copied().unwrap_or(0.0);
                };
                let lo = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let within = ((rank - seen as f64) / c as f64).clamp(0.0, 1.0);
                return lo + (hi - lo) * within;
            }
            seen = upto;
        }
        self.bounds.last().copied().unwrap_or(0.0)
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Metric {
    Counter(u64),
    Histogram(Histogram),
}

/// A thread-safe, deterministically-ordered metrics registry.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<BTreeMap<String, Metric>>,
}

impl MetricsRegistry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to the monotonic counter `name`, creating it at zero first.
    ///
    /// Panics if `name` is already registered as a histogram.
    pub fn add(&self, name: &str, delta: u64) {
        let mut inner = lock(&self.inner);
        match inner.entry(name.to_string()).or_insert(Metric::Counter(0)) {
            Metric::Counter(v) => *v += delta,
            Metric::Histogram(_) => panic!("metric {name:?} is a histogram, not a counter"),
        }
    }

    /// Record one observation into the histogram `name`, creating it with the
    /// given bucket `bounds` on first use (later calls reuse the stored bounds).
    ///
    /// Panics if `name` is already registered as a counter.
    pub fn observe(&self, name: &str, value: f64, bounds: &[f64]) {
        let mut inner = lock(&self.inner);
        match inner
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::new(bounds)))
        {
            Metric::Histogram(h) => h.observe(value),
            Metric::Counter(_) => panic!("metric {name:?} is a counter, not a histogram"),
        }
    }

    /// Current value of the counter `name` (0 if absent or not a counter).
    pub fn counter(&self, name: &str) -> u64 {
        match lock(&self.inner).get(name) {
            Some(Metric::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Clone of the histogram `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        match lock(&self.inner).get(name) {
            Some(Metric::Histogram(h)) => Some(h.clone()),
            _ => None,
        }
    }

    /// Flat JSON summary: `{"counters": {...}, "histograms": {...}}` with keys
    /// in lexicographic order.
    pub fn to_json(&self) -> JsonValue {
        let inner = lock(&self.inner);
        let mut counters = Vec::new();
        let mut histograms = Vec::new();
        for (name, metric) in inner.iter() {
            match metric {
                Metric::Counter(v) => counters.push((name.clone(), JsonValue::UInt(*v))),
                Metric::Histogram(h) => {
                    let fields = vec![
                        (
                            "bounds".to_string(),
                            JsonValue::Array(
                                h.bounds.iter().map(|&b| JsonValue::Float(b)).collect(),
                            ),
                        ),
                        (
                            "counts".to_string(),
                            JsonValue::Array(
                                h.counts.iter().map(|&c| JsonValue::UInt(c)).collect(),
                            ),
                        ),
                        ("sum".to_string(), JsonValue::Float(h.sum)),
                        ("count".to_string(), JsonValue::UInt(h.count)),
                        ("mean".to_string(), JsonValue::Float(h.mean())),
                    ];
                    histograms.push((name.clone(), JsonValue::Object(fields)));
                }
            }
        }
        JsonValue::Object(vec![
            ("counters".to_string(), JsonValue::Object(counters)),
            ("histograms".to_string(), JsonValue::Object(histograms)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_monotonic() {
        let m = MetricsRegistry::new();
        m.add("kernel_launches", 2);
        m.add("kernel_launches", 3);
        assert_eq!(m.counter("kernel_launches"), 5);
        assert_eq!(m.counter("missing"), 0);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let m = MetricsRegistry::new();
        let bounds = [0.5, 1.0];
        m.observe("overlap", 0.25, &bounds);
        m.observe("overlap", 0.75, &bounds);
        m.observe("overlap", 2.0, &bounds);
        let h = m.histogram("overlap").unwrap();
        assert_eq!(h.counts, vec![1, 1, 1]);
        assert_eq!(h.count, 3);
        assert!((h.mean() - 1.0).abs() < 1e-12);
        assert!(m.histogram("missing").is_none());
    }

    #[test]
    fn quantiles_interpolate_inside_buckets() {
        let m = MetricsRegistry::new();
        let bounds = [1.0, 2.0, 4.0];
        // 2 obs in (0,1], 2 in (1,2], none beyond.
        for v in [0.5, 0.9, 1.5, 1.9] {
            m.observe("wait", v, &bounds);
        }
        let h = m.histogram("wait").unwrap();
        // p50: rank 2.0 lands exactly at the end of bucket 0 -> 1.0.
        assert!((h.quantile(0.5) - 1.0).abs() < 1e-12);
        // p75: rank 3.0 is one of bucket 1's two observations -> 1.5.
        assert!((h.quantile(0.75) - 1.5).abs() < 1e-12);
        // p100 reaches bucket 1's upper bound.
        assert!((h.quantile(1.0) - 2.0).abs() < 1e-12);
        // q is clamped.
        assert_eq!(h.quantile(-1.0), h.quantile(0.0));
        assert_eq!(h.quantile(2.0), h.quantile(1.0));
    }

    #[test]
    fn quantile_handles_empty_and_overflow() {
        let empty = Histogram {
            bounds: vec![1.0, 2.0],
            counts: vec![0, 0, 0],
            sum: 0.0,
            count: 0,
        };
        assert_eq!(empty.quantile(0.5), 0.0);
        // Everything in the overflow bucket clamps to the largest bound.
        let m = MetricsRegistry::new();
        m.observe("over", 10.0, &[1.0, 2.0]);
        m.observe("over", 20.0, &[1.0, 2.0]);
        let h = m.histogram("over").unwrap();
        assert_eq!(h.quantile(0.5), 2.0);
        assert_eq!(h.quantile(0.95), 2.0);
    }

    #[test]
    fn json_summary_is_sorted_and_round_trips() {
        let m = MetricsRegistry::new();
        m.add("z_counter", 1);
        m.add("a_counter", 2);
        m.observe("latency", 0.1, &[1.0]);
        let doc = m.to_json();
        let counters = doc.get("counters").unwrap();
        match counters {
            JsonValue::Object(fields) => {
                assert_eq!(fields[0].0, "a_counter");
                assert_eq!(fields[1].0, "z_counter");
            }
            _ => panic!("counters must be an object"),
        }
        assert_eq!(
            doc.get("histograms")
                .and_then(|h| h.get("latency"))
                .and_then(|l| l.get("count"))
                .and_then(|c| c.as_u64()),
            Some(1)
        );
        let rendered = doc.render();
        assert_eq!(JsonValue::parse(&rendered).unwrap(), doc);
    }

    #[test]
    #[should_panic(expected = "is a counter")]
    fn kind_mismatch_panics() {
        let m = MetricsRegistry::new();
        m.add("x", 1);
        m.observe("x", 1.0, &[1.0]);
    }
}
