//! An [`Observer`] that keeps the program's counters in a `han_obs`
//! registry and sums its round-phase spans with nanosecond resolution
//! (the Chrome-trace writer rounds spans to whole microseconds, too
//! coarse for µs-scale phases).

use crate::json::Obj;
use han_obs::{Counter, Gauge, Hist, Observer, Registry};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

pub struct BenchObserver {
    registry: Registry,
    spans_on: bool,
    /// Span name → (count, total nanoseconds).
    spans: Mutex<BTreeMap<&'static str, (u64, u128)>>,
}

impl BenchObserver {
    pub fn new(spans_on: bool) -> BenchObserver {
        BenchObserver {
            registry: Registry::new(),
            spans_on,
            spans: Mutex::new(BTreeMap::new()),
        }
    }

    pub fn counter(&self, counter: Counter) -> u64 {
        self.registry.counter(counter)
    }

    pub fn gauge(&self, gauge: Gauge) -> u64 {
        self.registry.gauge(gauge)
    }

    /// Share of all span time spent in spans named `name`.
    pub fn span_share(&self, name: &str) -> f64 {
        let spans = self.spans.lock().expect("span table poisoned");
        let total: u128 = spans.values().map(|&(_, ns)| ns).sum();
        let part = spans.get(name).map_or(0, |&(_, ns)| ns);
        if total == 0 {
            0.0
        } else {
            part as f64 / total as f64
        }
    }

    /// The home-level layer counters, normalised per executed round.
    pub fn home_metrics(&self) -> Obj {
        let rounds = self.counter(Counter::RoundsExecuted).max(1) as f64;
        let invocations = self.counter(Counter::PlannerInvocations);
        let attempted = self.counter(Counter::CpAttemptedRecords);
        Obj::new()
            .num("planner.invocations_per_round", invocations as f64 / rounds)
            .num(
                "planner.memo_hit_ratio",
                ratio(self.counter(Counter::PlannerMemoHits), invocations),
            )
            .num(
                "pool.forks_per_round",
                self.counter(Counter::PoolForks) as f64 / rounds,
            )
            .num(
                "pool.in_place_edits_per_round",
                self.counter(Counter::PoolInPlaceEdits) as f64 / rounds,
            )
            .num("pool.peak_views", self.gauge(Gauge::PoolPeakViews) as f64)
            .num(
                "cp.delivery_ratio",
                ratio(self.counter(Counter::CpDeliveredRecords), attempted),
            )
            .num("sim.phase.comms.share", self.span_share("comms"))
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        1.0
    } else {
        part as f64 / whole as f64
    }
}

impl Observer for BenchObserver {
    fn counter_add(&self, counter: Counter, delta: u64) {
        self.registry.counter_add(counter, delta);
    }

    fn counter_publish(&self, counter: Counter, total: u64) {
        self.registry.counter_publish(counter, total);
    }

    fn gauge_set(&self, gauge: Gauge, value: u64) {
        self.registry.gauge_set(gauge, value);
    }

    fn gauge_max(&self, gauge: Gauge, value: u64) {
        self.registry.gauge_max(gauge, value);
    }

    fn observe(&self, hist: Hist, value: u64) {
        self.registry.observe(hist, value);
    }

    fn wants_spans(&self) -> bool {
        self.spans_on
    }

    fn span(&self, name: &'static str, _round: u64, start: Instant, end: Instant) {
        let ns = end.saturating_duration_since(start).as_nanos();
        let mut spans = self.spans.lock().expect("span table poisoned");
        let entry = spans.entry(name).or_insert((0, 0));
        entry.0 += 1;
        entry.1 += ns;
    }
}
