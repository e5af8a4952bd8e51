//! The metrics registry: named counters, gauges and fixed-bucket
//! histograms, plus the scoped timers that feed phase counters.
//!
//! Registration takes a short `Mutex` on a `BTreeMap` (names render in
//! sorted order for free); every *update* after registration is a handle
//! holding an `Arc` to its atomic cell — no lock, no allocation, `Relaxed`
//! ordering. Handles are cheap to clone and stay valid for the life of the
//! registry.

use crate::trace::{SchedEvent, Trace};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// A monotonic counter. Clones share the same cell.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A standalone counter not attached to any registry (useful for
    /// components that count unconditionally and are only *sometimes*
    /// wired into a registry, like the cache of a default-built service).
    pub fn standalone() -> Counter {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value. Clones share the same cell.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `d` (negative to subtract).
    #[inline]
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Increments now and decrements when the guard drops — the idiom for
    /// in-flight/occupancy gauges that must stay balanced across early
    /// returns.
    pub fn track(&self) -> GaugeGuard {
        self.add(1);
        GaugeGuard(self.clone())
    }
}

/// RAII guard from [`Gauge::track`]: decrements the gauge on drop.
#[derive(Debug)]
pub struct GaugeGuard(Gauge);

impl Drop for GaugeGuard {
    fn drop(&mut self) {
        self.0.add(-1);
    }
}

/// Number of histogram buckets: 21 finite power-of-two upper bounds plus
/// one overflow bucket.
pub const NUM_BUCKETS: usize = 22;

/// The deterministic bucket layout shared by every histogram: bucket `i`
/// counts observations `<= 2^i` for `i < 21`; the last bucket is +Inf.
/// With microsecond observations the finite range spans 1 µs to ~1.05 s.
pub const BUCKET_BOUNDS: [u64; NUM_BUCKETS - 1] = [
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072,
    262144, 524288, 1048576,
];

#[derive(Debug, Default)]
struct HistogramCore {
    buckets: [AtomicU64; NUM_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

/// A fixed-bucket histogram (see [`BUCKET_BOUNDS`]). Clones share cells.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Arc<HistogramCore>);

/// A point-in-time copy of a histogram's cells, for rendering and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket (non-cumulative) observation counts.
    pub buckets: [u64; NUM_BUCKETS],
    /// Sum of all observed values.
    pub sum: u64,
    /// Number of observations.
    pub count: u64,
}

/// The bucket index of value `v`: the smallest `i` with `v <= 2^i`,
/// saturating into the overflow bucket.
fn bucket_index(v: u64) -> usize {
    if v <= 1 {
        return 0;
    }
    // ceil(log2(v)) for v >= 2; (v-1).leading_zeros() <= 63 here.
    ((64 - (v - 1).leading_zeros()) as usize).min(NUM_BUCKETS - 1)
}

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.0.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations so far.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Copies the cells out.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; NUM_BUCKETS];
        for (out, cell) in buckets.iter_mut().zip(&self.0.buckets) {
            *out = cell.load(Ordering::Relaxed);
        }
        HistogramSnapshot { buckets, sum: self.sum(), count: self.count() }
    }
}

/// A scoped wall-time timer: accumulates elapsed nanoseconds into a
/// counter when dropped (or explicitly [`ScopedTimer::stop`]ped). Used for
/// the sweep's phase split — the counter survives the scope, so phases
/// entered repeatedly accumulate.
#[derive(Debug)]
pub struct ScopedTimer {
    counter: Counter,
    started: Instant,
    recorded: bool,
}

impl ScopedTimer {
    /// Starts a timer that will accumulate into `counter`.
    pub fn new(counter: Counter) -> ScopedTimer {
        ScopedTimer { counter, started: Instant::now(), recorded: false }
    }

    /// Stops early and returns the elapsed time (also recorded into the
    /// counter, exactly once).
    pub fn stop(mut self) -> Duration {
        self.record()
    }

    fn record(&mut self) -> Duration {
        let elapsed = self.started.elapsed();
        if !self.recorded {
            self.recorded = true;
            self.counter.add(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
        }
        elapsed
    }
}

impl Drop for ScopedTimer {
    fn drop(&mut self) {
        self.record();
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// The registry: a name-keyed set of metrics plus the scheduler event
/// trace. See the crate docs for the determinism rules it upholds.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
    trace: Trace,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Returns the counter named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind,
    /// or is not a valid metric name (`[a-z_][a-z0-9_]*`) — both are
    /// programming errors.
    pub fn counter(&self, name: &str) -> Counter {
        match self.register(name, || Metric::Counter(Counter::default())) {
            Metric::Counter(c) => c,
            other => panic!("metric {name} is a {}, not a counter", other.kind()),
        }
    }

    /// Returns the gauge named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// As [`Registry::counter`], for gauges.
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.register(name, || Metric::Gauge(Gauge::default())) {
            Metric::Gauge(g) => g,
            other => panic!("metric {name} is a {}, not a gauge", other.kind()),
        }
    }

    /// Returns the histogram named `name`, registering it on first use.
    ///
    /// # Panics
    ///
    /// As [`Registry::counter`], for histograms.
    pub fn histogram(&self, name: &str) -> Histogram {
        match self.register(name, || Metric::Histogram(Histogram::default())) {
            Metric::Histogram(h) => h,
            other => panic!("metric {name} is a {}, not a histogram", other.kind()),
        }
    }

    /// Starts a [`ScopedTimer`] accumulating into the counter `name`
    /// (nanoseconds; name it accordingly, e.g. `*_nanoseconds_total`).
    pub fn timer(&self, name: &str) -> ScopedTimer {
        ScopedTimer::new(self.counter(name))
    }

    /// Records a structured scheduler event into the bounded trace and its
    /// per-kind count.
    pub fn record_event(&self, ev: SchedEvent) {
        self.trace.record(ev);
    }

    /// The count of trace events of `kind` recorded so far.
    pub fn event_count(&self, kind: crate::trace::EventKind) -> u64 {
        self.trace.count(kind)
    }

    /// Events dropped because the trace ring was full (oldest-first).
    pub fn events_dropped(&self) -> u64 {
        self.trace.dropped()
    }

    /// A copy of the retained trace events, oldest first.
    pub fn trace_snapshot(&self) -> Vec<SchedEvent> {
        self.trace.snapshot()
    }

    fn register(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        assert!(valid_name(name), "invalid metric name {name:?}");
        let mut metrics = self.metrics.lock().unwrap_or_else(PoisonError::into_inner);
        metrics.entry(name.to_string()).or_insert_with(make).clone()
    }

    /// Renders every metric in Prometheus text exposition format, names
    /// sorted, followed by the per-kind trace event counts as a labelled
    /// `dms_trace_events_total` family. Deterministic layout; values are
    /// whatever the cells hold at the instant each is read.
    pub fn render_prometheus(&self) -> String {
        let metrics = self.metrics.lock().unwrap_or_else(PoisonError::into_inner).clone();
        let mut out = String::new();
        for (name, metric) in &metrics {
            let _ = writeln!(out, "# TYPE {name} {}", metric.kind());
            match metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "{name} {}", c.get());
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "{name} {}", g.get());
                }
                Metric::Histogram(h) => {
                    let snap = h.snapshot();
                    let mut cumulative = 0u64;
                    for (i, count) in snap.buckets.iter().enumerate() {
                        cumulative += count;
                        match BUCKET_BOUNDS.get(i) {
                            Some(b) => {
                                let _ = writeln!(out, "{name}_bucket{{le=\"{b}\"}} {cumulative}");
                            }
                            None => {
                                let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
                            }
                        }
                    }
                    let _ = writeln!(out, "{name}_sum {}", snap.sum);
                    let _ = writeln!(out, "{name}_count {}", snap.count);
                }
            }
        }
        out.push_str("# TYPE dms_trace_events_total counter\n");
        for kind in crate::trace::EventKind::ALL {
            let _ = writeln!(
                out,
                "dms_trace_events_total{{kind=\"{}\"}} {}",
                kind,
                self.trace.count(kind)
            );
        }
        out.push_str("# TYPE dms_trace_events_dropped_total counter\n");
        let _ = writeln!(out, "dms_trace_events_dropped_total {}", self.trace.dropped());
        out
    }

    /// Renders the registry as one JSON document (hand-rolled — the
    /// build has no serialization crate): counters, gauges, histograms
    /// (with the fixed bucket bounds), per-kind event counts and the drop
    /// count. Names sorted; layout deterministic.
    pub fn render_json(&self) -> String {
        let metrics = self.metrics.lock().unwrap_or_else(PoisonError::into_inner).clone();
        let mut counters = String::new();
        let mut gauges = String::new();
        let mut histograms = String::new();
        for (name, metric) in &metrics {
            match metric {
                Metric::Counter(c) => {
                    append_member(&mut counters, name, &c.get().to_string());
                }
                Metric::Gauge(g) => {
                    append_member(&mut gauges, name, &g.get().to_string());
                }
                Metric::Histogram(h) => {
                    let snap = h.snapshot();
                    let bounds: Vec<String> = BUCKET_BOUNDS.iter().map(u64::to_string).collect();
                    let counts: Vec<String> = snap.buckets.iter().map(u64::to_string).collect();
                    let body = format!(
                        "{{\"bounds\": [{}], \"counts\": [{}], \"sum\": {}, \"count\": {}}}",
                        bounds.join(", "),
                        counts.join(", "),
                        snap.sum,
                        snap.count
                    );
                    append_member(&mut histograms, name, &body);
                }
            }
        }
        let mut events = String::new();
        for kind in crate::trace::EventKind::ALL {
            append_member(&mut events, &kind.to_string(), &self.trace.count(kind).to_string());
        }
        format!(
            "{{\n  \"counters\": {{{counters}}},\n  \"gauges\": {{{gauges}}},\n  \
             \"histograms\": {{{histograms}}},\n  \"events\": {{{events}}},\n  \
             \"events_dropped\": {}\n}}\n",
            self.trace.dropped()
        )
    }
}

fn append_member(out: &mut String, key: &str, value: &str) {
    if !out.is_empty() {
        out.push_str(", ");
    }
    let _ = write!(out, "\"{key}\": {value}");
}

/// Prometheus-compatible names only: `[a-z_][a-z0-9_]*`.
fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && !name.starts_with(|c: char| c.is_ascii_digit())
        && name.bytes().all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::EventKind;

    #[test]
    fn counters_accumulate_and_clones_share_the_cell() {
        let r = Registry::new();
        let a = r.counter("dms_test_total");
        let b = r.counter("dms_test_total");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(r.counter("dms_test_total").get(), 3);
    }

    #[test]
    fn gauges_track_and_the_guard_balances() {
        let r = Registry::new();
        let g = r.gauge("dms_inflight");
        {
            let _one = g.track();
            let _two = g.track();
            assert_eq!(g.get(), 2);
        }
        assert_eq!(g.get(), 0);
        g.set(-5);
        assert_eq!(g.get(), -5);
    }

    #[test]
    fn histogram_buckets_follow_the_power_of_two_layout() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(1 << 20), 20);
        assert_eq!(bucket_index((1 << 20) + 1), NUM_BUCKETS - 1);
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);

        let h = Histogram::default();
        h.observe(1);
        h.observe(3);
        h.observe(u64::MAX);
        let snap = h.snapshot();
        assert_eq!(snap.count, 3);
        assert_eq!(snap.sum, u64::MAX.wrapping_add(4));
        assert_eq!(snap.buckets[0], 1);
        assert_eq!(snap.buckets[2], 1);
        assert_eq!(snap.buckets[NUM_BUCKETS - 1], 1);
    }

    #[test]
    #[should_panic(expected = "is a counter, not a gauge")]
    fn kind_collisions_are_programming_errors() {
        let r = Registry::new();
        r.counter("dms_test_total");
        r.gauge("dms_test_total");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_names_are_rejected() {
        Registry::new().counter("Not-Prometheus-Safe");
    }

    #[test]
    fn scoped_timer_accumulates_nanoseconds() {
        let r = Registry::new();
        {
            let _t = r.timer("dms_phase_nanoseconds_total");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let first = r.counter("dms_phase_nanoseconds_total").get();
        assert!(first >= 2_000_000, "timer recorded {first} ns");
        let elapsed = r.timer("dms_phase_nanoseconds_total").stop();
        let second = r.counter("dms_phase_nanoseconds_total").get();
        assert!(second >= first + u64::try_from(elapsed.as_nanos()).unwrap());
    }

    #[test]
    fn prometheus_rendering_is_sorted_and_cumulative() {
        let r = Registry::new();
        r.counter("dms_b_total").add(2);
        r.counter("dms_a_total").inc();
        let h = r.histogram("dms_lat_micros");
        h.observe(1);
        h.observe(3);
        r.record_event(SchedEvent::CacheHit);
        let text = r.render_prometheus();
        let a = text.find("dms_a_total 1").expect("counter a rendered");
        let b = text.find("dms_b_total 2").expect("counter b rendered");
        assert!(a < b, "names must render sorted");
        assert!(text.contains("dms_lat_micros_bucket{le=\"1\"} 1"));
        assert!(text.contains("dms_lat_micros_bucket{le=\"4\"} 2"), "buckets are cumulative");
        assert!(text.contains("dms_lat_micros_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("dms_lat_micros_sum 4"));
        assert!(text.contains("dms_lat_micros_count 2"));
        assert!(text.contains("dms_trace_events_total{kind=\"cache_hit\"} 1"));
        assert!(text.contains("dms_trace_events_total{kind=\"pressure_retry\"} 0"));
    }

    #[test]
    fn json_rendering_covers_every_section() {
        let r = Registry::new();
        r.counter("dms_a_total").inc();
        r.gauge("dms_g").set(7);
        r.histogram("dms_h").observe(2);
        r.record_event(SchedEvent::PressureRetry { ii: 4 });
        let json = r.render_json();
        assert!(json.contains("\"dms_a_total\": 1"));
        assert!(json.contains("\"dms_g\": 7"));
        assert!(json.contains("\"sum\": 2"));
        assert!(json.contains("\"pressure_retry\": 1"));
        assert!(json.contains("\"events_dropped\": 0"));
        assert_eq!(r.event_count(EventKind::PressureRetry), 1);
    }
}
