//! Event-driven communication-plane backend on the `han-sim` engine.
//!
//! The paper's deployment is packet-level MiniCast gossip, but the default
//! simulation loop is a fixed-step synchronous round loop: every phase of
//! every round runs back to back inside one `while` body. This module
//! re-expresses one round as **typed events** on the deterministic
//! discrete-event core ([`han_sim::engine::Engine`]):
//!
//! | event | granularity | work |
//! |---|---|---|
//! | [`CpEvent::Inject`] | one per round, only while an external injection source is attached | drains online telemetry due this round |
//! | [`CpEvent::Fault`] | one per round, only while a fault plan is active | node churn / outage application for the round |
//! | [`CpEvent::RoundStart`] | one per round | request delivery, duty-cycle advance, status publish |
//! | [`CpEvent::Flood`] | one per MiniCast flood step (packet CP: sync beacon + one data flood per topology node) | a single Glossy flood |
//! | [`CpEvent::Deliver`] | one per view row (per node under lossy/packet CPs; the single shared row under an ideal CP) | one node's record refreshes |
//! | [`CpEvent::Plan`] | one per round | the execution plane: planning triggers for every Device Interface |
//! | [`CpEvent::RoundEnd`] | one per round | divergence probe, load sample, next-round scheduling |
//!
//! Because the events of one round share one instant, the engine's FIFO
//! tie-breaking replays them in exactly the order scheduled — which is
//! exactly the order the synchronous loop executes the same phases, RNG
//! draw for RNG draw. That is the backend's **determinism contract**:
//!
//! > Under identical seeds the event backend is schedule-digest-,
//! > divergence- and trace-identical to the synchronous round loop for
//! > every CP model, and preserves per-round delivery semantics exactly
//! > (same per-round `SyncTracker` outcomes) under packet CPs.
//!
//! The contract is enforced differentially by
//! `crates/core/tests/prop_event_plane.rs` (random fleets × ideal /
//! lossy / packet CPs × random seeds) and gated per PR by the
//! `event_engine` section of `BENCH_engine.json`.
//!
//! # When to pick `round` vs `event`
//!
//! The synchronous loop is the fastest way to run a home — zero queue
//! overhead — and the only backend the neighborhood and city layers use.
//! The event backend makes every flood step, record refresh and planning
//! trigger an addressable event with a firing instant, so external event
//! sources (hardware-in-the-loop gateways) could be spliced between
//! phases. Pick [`EngineKind::Event`] when the simulation must coexist
//! with other event producers; pick [`EngineKind::Round`] (the default)
//! otherwise.

use han_obs::Obs;
use han_sim::engine::{Engine, World};
use han_sim::time::{SimDuration, SimTime};

/// Which simulation backend executes the round phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineKind {
    /// The fixed-step synchronous round loop (the default).
    #[default]
    Round,
    /// Typed events on the `han-sim` discrete-event engine, deterministic
    /// FIFO tie-breaking — bit-identical to [`EngineKind::Round`] by
    /// contract (see the [module docs](self)).
    Event,
}

impl EngineKind {
    /// Parses a CLI-style engine name.
    pub fn from_flag(value: &str) -> Option<EngineKind> {
        match value {
            "round" => Some(EngineKind::Round),
            "event" => Some(EngineKind::Event),
            _ => None,
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            EngineKind::Round => "round",
            EngineKind::Event => "event",
        })
    }
}

/// One typed communication-plane event (see the [module docs](self) for
/// the taxonomy and granularity of each variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpEvent {
    /// Drains externally injected telemetry due at round `round` — the
    /// online service mode's splice point, firing before even the fault
    /// plan so an injected fault applies in the same round it arrives.
    /// Scheduled only when [`RoundPhases::has_injections`] reports an
    /// active source, so batch runs fire exactly the same events as
    /// before the online plane existed.
    Inject {
        /// Round counter.
        round: u64,
    },
    /// Applies the fault plan for round `round` — node churn and CP
    /// outages take effect here, before the round opens. Scheduled only
    /// when [`RoundPhases::has_faults`] reports an active plan, so
    /// fault-free runs fire exactly the same events as before the fault
    /// plane existed.
    Fault {
        /// Round counter.
        round: u64,
    },
    /// Opens round `round`: deliver user requests, advance duty-cycle
    /// bookkeeping, publish every node's status record, and schedule the
    /// round's flood / delivery / planning events at the same instant.
    RoundStart {
        /// Round counter.
        round: u64,
    },
    /// MiniCast flood step `phase` of round `round` (packet CPs only):
    /// `0` is the sync beacon, `1..=n` the data flood initiated by
    /// topology node `(round + phase − 1) mod n`.
    Flood {
        /// Round counter.
        round: u64,
        /// Flood step within the round.
        phase: u32,
    },
    /// Record refresh for view row `row` of round `round` — one node's
    /// delivery under lossy/packet CPs, the single shared row under an
    /// ideal CP.
    Deliver {
        /// Round counter.
        round: u64,
        /// View row receiving its delivery.
        row: u32,
    },
    /// Execution-plane trigger of round `round`: every Device Interface
    /// plans from its own view and actuates its own appliance.
    Plan {
        /// Round counter.
        round: u64,
    },
    /// Closes round `round`: divergence probe, load sample, and — when
    /// the horizon allows — scheduling of the next [`CpEvent::RoundStart`]
    /// one period later.
    RoundEnd {
        /// Round counter.
        round: u64,
    },
}

/// The phase interface one simulated round decomposes into.
///
/// Both backends drive **the same implementation** of this trait in the
/// same order — the synchronous loop as straight-line calls, the event
/// backend as one [`CpEvent`] per phase — which is what makes their
/// equality structural rather than coincidental. Phases of one round are
/// always invoked as: `begin_round`, `flood_phase(0..flood_phases())`,
/// `deliver_row(0..delivery_rows())`, `plan`, `end_round`.
pub trait RoundPhases {
    /// Opens the round at instant `now` (requests, bookkeeping, publish).
    fn begin_round(&mut self, now: SimTime);
    /// Number of flood steps this round (0 for non-packet CPs).
    fn flood_phases(&self) -> usize;
    /// Executes flood step `k`.
    fn flood_phase(&mut self, k: usize);
    /// Number of view rows awaiting delivery this round.
    fn delivery_rows(&self) -> usize;
    /// Applies the round's delivery to view row `row`.
    fn deliver_row(&mut self, row: usize);
    /// Runs the execution plane at instant `now`.
    fn plan(&mut self, now: SimTime);
    /// Closes the round at instant `now` (probes, load sample).
    fn end_round(&mut self, now: SimTime);
    /// Applies the round's scheduled faults at instant `now`, before
    /// [`RoundPhases::begin_round`]. No-op by default — only
    /// implementations carrying a fault plan override it.
    fn fault_phase(&mut self, _now: SimTime) {}
    /// Whether a fault plan is active. Governs both backends: the
    /// synchronous loop calls [`RoundPhases::fault_phase`] each round and
    /// the event backend schedules a [`CpEvent::Fault`] per round exactly
    /// when this returns `true`, keeping fault-free event counts
    /// unchanged.
    fn has_faults(&self) -> bool {
        false
    }
    /// Drains externally injected telemetry at instant `now`, before
    /// [`RoundPhases::fault_phase`] and [`RoundPhases::begin_round`].
    /// No-op by default — only the online driver overrides it.
    fn inject_phase(&mut self, _now: SimTime) {}
    /// Whether an external injection source is attached. Governs both
    /// backends the way [`RoundPhases::has_faults`] does: the synchronous
    /// loop calls [`RoundPhases::inject_phase`] each round and the event
    /// backend schedules a [`CpEvent::Inject`] per round exactly when
    /// this returns `true`, keeping batch event counts unchanged.
    fn has_injections(&self) -> bool {
        false
    }
}

impl CpEvent {
    /// The round this event belongs to.
    pub(crate) fn round(self) -> u64 {
        match self {
            CpEvent::Inject { round }
            | CpEvent::Fault { round }
            | CpEvent::RoundStart { round }
            | CpEvent::Flood { round, .. }
            | CpEvent::Deliver { round, .. }
            | CpEvent::Plan { round }
            | CpEvent::RoundEnd { round } => round,
        }
    }

    /// Dense kind index into [`EventTally::by_kind`] (declaration order).
    fn kind_index(self) -> usize {
        match self {
            CpEvent::Inject { .. } => 0,
            CpEvent::Fault { .. } => 1,
            CpEvent::RoundStart { .. } => 2,
            CpEvent::Flood { .. } => 3,
            CpEvent::Deliver { .. } => 4,
            CpEvent::Plan { .. } => 5,
            CpEvent::RoundEnd { .. } => 6,
        }
    }

    /// Stable span/metric label per kind.
    fn kind_name(self) -> &'static str {
        match self {
            CpEvent::Inject { .. } => "inject",
            CpEvent::Fault { .. } => "fault",
            CpEvent::RoundStart { .. } => "begin",
            CpEvent::Flood { .. } => "flood",
            CpEvent::Deliver { .. } => "deliver",
            CpEvent::Plan { .. } => "plan",
            CpEvent::RoundEnd { .. } => "end",
        }
    }
}

/// Per-span event-engine tallies, published to the metrics registry by
/// the caller. Collected only when observability is enabled — plain
/// integers, no atomics, so the enabled cost is one array increment and
/// one max per event.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct EventTally {
    /// Events fired, indexed by [`CpEvent::kind_index`].
    pub by_kind: [u64; 7],
    /// Deepest pending-event heap observed while handling.
    pub heap_depth_peak: usize,
}

/// [`World`] adapter dispatching [`CpEvent`]s onto a [`RoundPhases`]
/// implementation.
struct EventWorld<'a, P: RoundPhases> {
    phases: &'a mut P,
    period: SimDuration,
    end: SimTime,
    /// Observability handle: span timing per event when tracing is on.
    obs: Obs,
    /// Event tallies, collected only when observability is enabled.
    tally: Option<&'a mut EventTally>,
}

impl<P: RoundPhases> World for EventWorld<'_, P> {
    type Event = CpEvent;

    fn handle(&mut self, engine: &mut Engine<CpEvent>, at: SimTime, event: CpEvent) {
        if let Some(tally) = self.tally.as_deref_mut() {
            tally.by_kind[event.kind_index()] += 1;
            tally.heap_depth_peak = tally.heap_depth_peak.max(engine.pending());
        }
        let span = self.obs.span_begin();
        self.dispatch(engine, at, event);
        self.obs.span_end(event.kind_name(), event.round(), span);
    }
}

impl<P: RoundPhases> EventWorld<'_, P> {
    /// Dispatches one [`CpEvent`] onto the phases, scheduling its
    /// follow-up events on `engine` — the event backend's whole decision
    /// procedure.
    fn dispatch(&mut self, engine: &mut Engine<CpEvent>, at: SimTime, event: CpEvent) {
        let phases = &mut *self.phases;
        match event {
            CpEvent::Inject { round } => {
                let had_faults = phases.has_faults();
                phases.inject_phase(at);
                if !had_faults && phases.has_faults() {
                    // The drain installed the run's *first* fault plan, so
                    // no Fault event was scheduled for this round
                    // (`has_faults` was false when the round was chained).
                    // Splice one in front of the already-queued RoundStart
                    // — the synchronous loop re-checks `has_faults` after
                    // draining for exactly the same reason.
                    engine.schedule_front(at, CpEvent::Fault { round });
                }
            }
            CpEvent::Fault { .. } => phases.fault_phase(at),
            CpEvent::RoundStart { round } => {
                phases.begin_round(at);
                // The whole round unfolds at this instant; FIFO
                // tie-breaking fires the chain in schedule order, which is
                // the synchronous loop's phase order.
                for phase in 0..phases.flood_phases() {
                    engine.schedule_at(
                        at,
                        CpEvent::Flood {
                            round,
                            phase: phase as u32,
                        },
                    );
                }
                for row in 0..phases.delivery_rows() {
                    engine.schedule_at(
                        at,
                        CpEvent::Deliver {
                            round,
                            row: row as u32,
                        },
                    );
                }
                engine.schedule_at(at, CpEvent::Plan { round });
                engine.schedule_at(at, CpEvent::RoundEnd { round });
            }
            CpEvent::Flood { phase, .. } => phases.flood_phase(phase as usize),
            CpEvent::Deliver { row, .. } => phases.deliver_row(row as usize),
            CpEvent::Plan { .. } => phases.plan(at),
            CpEvent::RoundEnd { round } => {
                phases.end_round(at);
                let next = at + self.period;
                if next <= self.end {
                    // FIFO tie-breaking fires injection draining, then
                    // the fault application, before the round opens —
                    // matching the synchronous loop's
                    // `inject_phase; fault_phase; begin_round` order.
                    if phases.has_injections() {
                        engine.schedule_at(next, CpEvent::Inject { round: round + 1 });
                    }
                    if phases.has_faults() {
                        engine.schedule_at(next, CpEvent::Fault { round: round + 1 });
                    }
                    engine.schedule_at(next, CpEvent::RoundStart { round: round + 1 });
                }
            }
        }
    }
}

/// Runs `phases` to the simulation horizon on the discrete-event engine:
/// rounds start at `SimTime::ZERO` and recur every `period` while the
/// start instant is at or before `end` (matching the synchronous loop's
/// `now <= end` bound exactly). Returns the number of events fired.
pub fn drive<P: RoundPhases>(phases: &mut P, period: SimDuration, end: SimTime) -> u64 {
    drive_from(phases, period, 0, end)
}

/// Like [`drive`], but starts at round `start_round` (firing at
/// `start_round × period`) instead of round 0 — the resume path of
/// checkpoint/restore. `drive(…)` is exactly `drive_from(…, 0, …)`.
pub fn drive_from<P: RoundPhases>(
    phases: &mut P,
    period: SimDuration,
    start_round: u64,
    end: SimTime,
) -> u64 {
    drive_from_observed(phases, period, start_round, end, Obs::off(), None)
}

/// Like [`drive_from`], but with an observability handle: `obs` times a
/// span per event when tracing is on, and `tally` (when provided)
/// accumulates per-kind event counts plus the peak pending-heap depth.
/// Purely additive — `drive_from(…)` is exactly
/// `drive_from_observed(…, Obs::off(), None)`.
pub(crate) fn drive_from_observed<P: RoundPhases>(
    phases: &mut P,
    period: SimDuration,
    start_round: u64,
    end: SimTime,
    obs: Obs,
    tally: Option<&mut EventTally>,
) -> u64 {
    let mut engine = Engine::new();
    let start = SimTime::ZERO + period * start_round;
    let mut world = EventWorld {
        phases,
        period,
        end,
        obs,
        tally,
    };
    if start > end {
        return 0;
    }
    // The run's opening events, in the synchronous loop's phase order.
    if world.phases.has_injections() {
        engine.schedule_at(start, CpEvent::Inject { round: start_round });
    }
    if world.phases.has_faults() {
        engine.schedule_at(start, CpEvent::Fault { round: start_round });
    }
    engine.schedule_at(start, CpEvent::RoundStart { round: start_round });
    engine.run_until(&mut world, end);
    engine.events_fired()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records every phase call so tests can assert the exact order the
    /// backend replays.
    #[derive(Default)]
    struct Script {
        calls: Vec<String>,
        floods: usize,
        rows: usize,
        faults: bool,
        injections: bool,
        /// Simulates an injection installing the run's first fault plan:
        /// the Nth `inject_phase` call (0-based) flips `faults` on.
        arm_faults_on_inject: Option<usize>,
        inject_calls: usize,
    }

    impl RoundPhases for Script {
        fn begin_round(&mut self, now: SimTime) {
            self.calls.push(format!("begin@{}", now.as_micros()));
        }
        fn flood_phases(&self) -> usize {
            self.floods
        }
        fn flood_phase(&mut self, k: usize) {
            self.calls.push(format!("flood{k}"));
        }
        fn delivery_rows(&self) -> usize {
            self.rows
        }
        fn deliver_row(&mut self, row: usize) {
            self.calls.push(format!("deliver{row}"));
        }
        fn plan(&mut self, now: SimTime) {
            self.calls.push(format!("plan@{}", now.as_micros()));
        }
        fn end_round(&mut self, now: SimTime) {
            self.calls.push(format!("end@{}", now.as_micros()));
        }
        fn fault_phase(&mut self, now: SimTime) {
            self.calls.push(format!("fault@{}", now.as_micros()));
        }
        fn has_faults(&self) -> bool {
            self.faults
        }
        fn inject_phase(&mut self, now: SimTime) {
            self.calls.push(format!("inject@{}", now.as_micros()));
            if self.arm_faults_on_inject == Some(self.inject_calls) {
                self.faults = true;
            }
            self.inject_calls += 1;
        }
        fn has_injections(&self) -> bool {
            self.injections
        }
    }

    /// The synchronous loop's phase order, for differential comparison.
    fn sync_drive(phases: &mut Script, period: SimDuration, end: SimTime) {
        let mut now = SimTime::ZERO;
        while now <= end {
            if phases.has_injections() {
                phases.inject_phase(now);
            }
            if phases.has_faults() {
                phases.fault_phase(now);
            }
            phases.begin_round(now);
            for k in 0..phases.flood_phases() {
                phases.flood_phase(k);
            }
            for row in 0..phases.delivery_rows() {
                phases.deliver_row(row);
            }
            phases.plan(now);
            phases.end_round(now);
            now += period;
        }
    }

    #[test]
    fn event_backend_replays_the_synchronous_phase_order() {
        for (floods, rows, faults, injections) in [
            (0, 1, false, false),
            (0, 4, false, false),
            (5, 4, false, false),
            (2, 3, true, false),
            (2, 3, false, true),
            (1, 2, true, true),
        ] {
            let mut sync = Script {
                floods,
                rows,
                faults,
                injections,
                ..Script::default()
            };
            let mut event = Script {
                floods,
                rows,
                faults,
                injections,
                ..Script::default()
            };
            let period = SimDuration::from_secs(2);
            let end = SimTime::from_secs(7); // rounds at 0, 2, 4, 6
            sync_drive(&mut sync, period, end);
            drive(&mut event, period, end);
            assert_eq!(
                sync.calls, event.calls,
                "floods={floods} rows={rows} faults={faults} injections={injections}: \
                 FIFO must replay the loop order"
            );
        }
    }

    #[test]
    fn fault_events_fire_before_round_start() {
        let mut phases = Script {
            rows: 1,
            faults: true,
            ..Script::default()
        };
        drive(
            &mut phases,
            SimDuration::from_secs(2),
            SimTime::from_secs(2),
        );
        assert_eq!(
            phases.calls,
            vec![
                "fault@0",
                "begin@0",
                "deliver0",
                "plan@0",
                "end@0",
                "fault@2000000",
                "begin@2000000",
                "deliver0",
                "plan@2000000",
                "end@2000000",
            ],
        );
    }

    #[test]
    fn inject_events_fire_before_fault_and_round_start() {
        let mut phases = Script {
            rows: 1,
            faults: true,
            injections: true,
            ..Script::default()
        };
        drive(
            &mut phases,
            SimDuration::from_secs(2),
            SimTime::from_secs(2),
        );
        assert_eq!(
            phases.calls,
            vec![
                "inject@0",
                "fault@0",
                "begin@0",
                "deliver0",
                "plan@0",
                "end@0",
                "inject@2000000",
                "fault@2000000",
                "begin@2000000",
                "deliver0",
                "plan@2000000",
                "end@2000000",
            ],
        );
    }

    #[test]
    fn injection_installing_first_fault_plan_faults_the_same_round() {
        // An injection drained at round 1 installs the run's first fault
        // plan. The Fault event for round 1 was never chained (the plan
        // did not exist at round 0's RoundEnd), so the backend must
        // splice it in front of the already-queued RoundStart — and the
        // result must equal the synchronous loop, which simply re-checks
        // `has_faults` after draining.
        let make = || Script {
            rows: 1,
            injections: true,
            arm_faults_on_inject: Some(1),
            ..Script::default()
        };
        let period = SimDuration::from_secs(2);
        let end = SimTime::from_secs(4);
        let mut sync = make();
        sync_drive(&mut sync, period, end);
        let mut event = make();
        drive(&mut event, period, end);
        assert_eq!(sync.calls, event.calls);
        assert_eq!(
            event.calls,
            vec![
                "inject@0",
                "begin@0",
                "deliver0",
                "plan@0",
                "end@0",
                "inject@2000000",
                "fault@2000000",
                "begin@2000000",
                "deliver0",
                "plan@2000000",
                "end@2000000",
                "inject@4000000",
                "fault@4000000",
                "begin@4000000",
                "deliver0",
                "plan@4000000",
                "end@4000000",
            ],
        );
    }

    #[test]
    fn fault_free_event_count_is_unchanged() {
        // The Fault event is scheduled only under an active plan, so
        // existing fault-free runs keep their exact event counts.
        let count = |faults: bool| {
            let mut phases = Script {
                rows: 2,
                faults,
                ..Script::default()
            };
            drive(
                &mut phases,
                SimDuration::from_secs(2),
                SimTime::from_secs(4),
            )
        };
        assert_eq!(count(false), 3 * (1 + 2 + 1 + 1));
        assert_eq!(count(true), 3 * (1 + 1 + 2 + 1 + 1));
    }

    #[test]
    fn drive_from_resumes_mid_timeline() {
        // Rounds 0..=1 on one engine, 2..=3 on a second: together they
        // must replay exactly what a single uninterrupted drive does.
        let period = SimDuration::from_secs(2);
        let make = || Script {
            floods: 1,
            rows: 2,
            faults: true,
            ..Script::default()
        };
        let mut whole = make();
        let whole_events = drive(&mut whole, period, SimTime::from_secs(6));
        let mut split = make();
        let first = drive_from(&mut split, period, 0, SimTime::from_secs(2));
        let second = drive_from(&mut split, period, 2, SimTime::from_secs(6));
        assert_eq!(split.calls, whole.calls, "split run must replay the whole");
        assert_eq!(first + second, whole_events);
        // A start beyond the horizon is a no-op.
        let mut empty = make();
        assert_eq!(drive_from(&mut empty, period, 4, SimTime::from_secs(6)), 0);
        assert!(empty.calls.is_empty());
    }

    #[test]
    fn round_count_matches_inclusive_horizon() {
        // A horizon landing exactly on a round boundary includes it, as in
        // the synchronous loop's `now <= end`.
        let mut phases = Script {
            rows: 1,
            ..Script::default()
        };
        drive(
            &mut phases,
            SimDuration::from_secs(2),
            SimTime::from_secs(4),
        );
        let begins = phases
            .calls
            .iter()
            .filter(|c| c.starts_with("begin"))
            .count();
        assert_eq!(begins, 3, "rounds at 0, 2 and 4 inclusive");
    }

    #[test]
    fn events_fired_counts_every_phase() {
        let mut phases = Script {
            floods: 2,
            rows: 3,
            ..Script::default()
        };
        let fired = drive(
            &mut phases,
            SimDuration::from_secs(2),
            SimTime::from_secs(2),
        );
        // Two rounds × (start + 2 floods + 3 delivers + plan + end).
        assert_eq!(fired, 2 * (1 + 2 + 3 + 1 + 1));
    }

    #[test]
    fn event_tally_accounts_for_every_event() {
        let mut phases = Script {
            floods: 2,
            rows: 3,
            faults: true,
            ..Script::default()
        };
        let mut tally = EventTally::default();
        let fired = drive_from_observed(
            &mut phases,
            SimDuration::from_secs(2),
            0,
            SimTime::from_secs(2),
            Obs::off(),
            Some(&mut tally),
        );
        assert_eq!(tally.by_kind.iter().sum::<u64>(), fired);
        // Two rounds: per round 1 fault, 1 start, 2 floods, 3 delivers,
        // 1 plan, 1 end (no injections → index 0 stays empty).
        assert_eq!(tally.by_kind, [0, 2, 2, 4, 6, 2, 2]);
        assert!(
            tally.heap_depth_peak >= 6,
            "RoundStart queues the whole round: {} pending",
            tally.heap_depth_peak
        );
    }

    #[test]
    fn engine_kind_flags_round_trip() {
        assert_eq!(EngineKind::from_flag("round"), Some(EngineKind::Round));
        assert_eq!(EngineKind::from_flag("event"), Some(EngineKind::Event));
        assert_eq!(EngineKind::from_flag("warp"), None);
        assert_eq!(EngineKind::default(), EngineKind::Round);
        assert_eq!(EngineKind::Event.to_string(), "event");
        assert_eq!(EngineKind::Round.to_string(), "round");
    }
}
