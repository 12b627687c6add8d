//! Layer probes: each layer's public functions timed from outside, on
//! inputs derived from the workload and its seed.
//!
//! | layer | probe |
//! |---|---|
//! | `radio` | `capture::resolve_slot` on slots drawn from the testbed's link table |
//! | `st` | `glossy::flood` and `minicast::run_round_with` on the testbed |
//! | `cp` | `CommunicationPlane::round` per CP model, on the status stream captured from the workload home's coordinated run |
//! | `algorithm` | `plan_coordinated` over the views that stream builds under the workload's CP |
//! | `sim` engine | a hold-model event loop on `han_sim::Engine` |
//! | `city` | `City::run` against Σ `feeder_neighborhood(f).run()` over the same homes |
//! | wire | `FeederAggregate` encode/decode over the city report's feeders |
//!
//! `city-ideal` probes its own city; the other workloads probe a small
//! city of the paper home, so every workload reports every layer.

use crate::json::{median, process_cpu_s, Obj};
use crate::observer::BenchObserver;
use crate::workloads::{city_spec, home_scenario, run_city};
use crate::Args;
use han_core::city::{CitySpec, FeederAggregate};
use han_core::experiment::build_simulation;
use han_core::fault::FaultPlan;
use han_core::{plan_coordinated, CommunicationPlane, CpModel, EngineKind, PlanConfig, Strategy};
use han_core::online::OnlineDriver;
use han_device::appliance::DeviceId;
use han_device::interface::DeviceInterface;
use han_device::status::StatusRecord;
use han_net::NodeId;
use han_obs::{Gauge, Obs};
use han_radio::capture::{resolve_slot, IncomingSignal};
use han_sim::engine::{Engine, World};
use han_sim::rng::DetRng;
use han_sim::time::{SimDuration, SimTime};
use han_st::glossy::flood;
use han_st::minicast::{run_round_with, RoundScratch};
use han_st::{Item, ItemStore, StConfig};
use han_workload::scenario::{ArrivalRate, Scenario};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Seconds per call of `f`: the median over `reps` batches, each run
/// until it has taken at least `batch_s`.
fn per_call(reps: usize, batch_s: f64, mut f: impl FnMut(usize)) -> f64 {
    let mut call = 0usize;
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            let mut calls = 0usize;
            while calls == 0 || start.elapsed().as_secs_f64() < batch_s {
                for _ in 0..16 {
                    f(call);
                    call += 1;
                    calls += 1;
                }
            }
            start.elapsed().as_secs_f64() / calls as f64
        })
        .collect();
    median(&samples)
}

/// One round's published status records and their sequence numbers.
type StatusRound = (Vec<StatusRecord>, Vec<u32>);

/// The status stream of rounds `from..from + rounds` of the home's own
/// coordinated run, and the rounds in which the mirror below disagreed
/// with that run's node states.
///
/// The run is stepped one round at a time through `OnlineDriver`.
/// Beside it, one public `DeviceInterface` per device does what the
/// run's begin phase does (deliver the requests due, advance the duty
/// cycle, publish), then takes the run's own actuation from
/// `OnlineDriver::schedule_of` (planned start, ON/OFF). So the records
/// carry the coordinated states, deferred and planned ones included,
/// that the CP and the planner see in the workload.
fn captured_stream(
    scenario: &Scenario,
    cp: CpModel,
    from: u64,
    rounds: u64,
) -> Result<(Vec<StatusRound>, u64), String> {
    let sim = build_simulation(
        scenario,
        Strategy::coordinated(),
        cp,
        EngineKind::Round,
        &FaultPlan::empty(),
        None,
    )
    .map_err(|e| e.to_string())?;
    let mut driver = OnlineDriver::new(sim);
    let mut dis: Vec<DeviceInterface> = scenario
        .fleet
        .specs()
        .map(|spec| DeviceInterface::new(spec.appliance(), spec.constraints))
        .collect();
    let mut requests = scenario.requests();
    requests.sort_by_key(|r| (r.arrival, r.device));
    let mut next_request = 0;
    let mut stream = Vec::new();
    let mut disagreements = 0;
    for round in 0..(from + rounds).min(driver.total_rounds()) {
        let now = SimTime::from_secs(2 * round);
        while next_request < requests.len() && requests[next_request].arrival <= now {
            let request = requests[next_request];
            dis[request.device.index()]
                .handle_request(now, &request)
                .map_err(|e| e.to_string())?;
            next_request += 1;
        }
        for di in &mut dis {
            di.advance(now);
        }
        let statuses: Vec<StatusRecord> = dis.iter_mut().map(|di| di.publish(now)).collect();
        if round >= from {
            stream.push((statuses, dis.iter().map(DeviceInterface::seq).collect()));
        }
        driver.advance_to(round + 1);
        let mut agrees = true;
        for (node, di) in dis.iter_mut().enumerate() {
            let state = driver.schedule_of(node).map_err(|e| e.to_string())?;
            di.set_planned_start(state.planned_start);
            di.command(now, state.on);
            agrees &= di.is_on() == state.on && di.is_active() == state.active;
        }
        disagreements += u64::from(!agrees);
    }
    Ok((stream, disagreements))
}

/// µs per `CommunicationPlane::round` over the stream: the median of
/// three passes, each on a fresh plane.
fn cp_round_us(model: &CpModel, devices: usize, seed: u64, stream: &[StatusRound]) -> f64 {
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let mut plane = CommunicationPlane::new(model.clone(), devices, seed);
            let start = Instant::now();
            for (statuses, seqs) in stream {
                plane.round(statuses, seqs);
            }
            start.elapsed().as_secs_f64() * 1e6 / stream.len() as f64
        })
        .collect();
    median(&samples)
}

/// A hold-model world: every fired event schedules its successor.
struct Hold {
    rng: DetRng,
}

impl World for Hold {
    type Event = u32;

    fn handle(&mut self, engine: &mut Engine<u32>, _at: SimTime, event: u32) {
        let delay = SimDuration::from_micros(1 + self.rng.gen_range_u64(2_000_000));
        engine.schedule_in(delay, event);
    }
}

fn engine_event_ns(seed: u64) -> f64 {
    let mut rng = DetRng::for_stream(seed, "perfbench/engine");
    let mut engine: Engine<u32> = Engine::new();
    for i in 0..4096 {
        engine.schedule_at(SimTime::from_micros(rng.gen_range_u64(2_000_000)), i);
    }
    let mut world = Hold { rng };
    per_call(5, 0.08, |_| {
        black_box(engine.run_events(&mut world, 64));
    }) / 64.0
        * 1e9
}

fn radio_and_st(seed: u64) -> Obj {
    let topology = han_net::flocklab::flocklab26(seed);
    let rssi = topology.rssi_matrix();
    let n = rssi.len();
    let cfg = StConfig::default();
    let mut rng = DetRng::for_stream(seed, "perfbench/radio");

    // Slots as a flood produces them: 1–4 concurrent transmitters of
    // one frame heard by one listener, with sub-µs to µs offsets.
    let slots: Vec<Vec<IncomingSignal>> = (0..4096)
        .map(|_| {
            let listener = rng.gen_index(n);
            let count = 1 + rng.gen_index(4);
            let mut txs: Vec<usize> = Vec::new();
            while txs.len() < count {
                let tx = rng.gen_index(n);
                if tx != listener && !txs.contains(&tx) {
                    txs.push(tx);
                }
            }
            txs.iter()
                .map(|&tx| IncomingSignal {
                    tx_index: tx,
                    rssi: rssi[tx][listener],
                    offset: SimDuration::from_micros(rng.gen_range_u64(2)),
                    content_id: 7,
                })
                .collect()
        })
        .collect();
    let mut slot_rng = DetRng::for_stream(seed, "perfbench/slot");
    let resolve_ns = per_call(5, 0.08, |i| {
        black_box(resolve_slot(
            &slots[i % slots.len()],
            &cfg.capture,
            64,
            &mut slot_rng,
        ));
    }) * 1e9;

    let mut flood_rng = DetRng::for_stream(seed, "perfbench/flood");
    let flood_us = per_call(5, 0.08, |i| {
        black_box(flood(
            &rssi,
            NodeId((i % n) as u32),
            i as u64,
            64,
            &cfg,
            &mut flood_rng,
        ));
    }) * 1e6;

    // One MiniCast round per call, every node publishing a fresh status
    // record first.
    let mut stores: Vec<ItemStore> = (0..n).map(|_| ItemStore::new()).collect();
    let mut scratch = RoundScratch::default();
    let mut round_rng = DetRng::for_stream(seed, "perfbench/minicast");
    let round_us = per_call(5, 0.1, |i| {
        for (node, store) in stores.iter_mut().enumerate() {
            let record = StatusRecord::idle(DeviceId(node as u32));
            store.merge(&Item::new(
                NodeId(node as u32),
                i as u32 + 1,
                record.encode(),
            ));
        }
        black_box(run_round_with(
            &rssi,
            &mut stores,
            han_net::generators::default_initiator(),
            &cfg,
            i as u64,
            &mut round_rng,
            &mut scratch,
        ));
    }) * 1e6;

    Obj::new()
        .num("radio.resolve_slot.ns", resolve_ns)
        .num("st.flood.us", flood_us)
        .num("st.minicast_round.us", round_us)
}

/// The home whose statuses feed the CP and planner probes, and the CP
/// model the workload runs.
fn workload_home(workload: &str, seed: u64) -> Result<(Scenario, CpModel), String> {
    Ok(match workload {
        "home-packet" => (home_scenario(seed), CpModel::paper_packet(seed)),
        "city-ideal" => (city_spec(seed).home_scenario(0, 0), CpModel::Ideal),
        // The daemon's arrivals are injected at the paper's high rate.
        "serve-lossy" => (
            Scenario::paper(ArrivalRate::High, seed),
            CpModel::LossyRound {
                miss_probability: crate::serve::SERVE_LOSS,
            },
        ),
        other => return Err(format!("unknown workload '{other}'")),
    })
}

/// First captured round of the CP and planner probes (minute 10, so
/// requests have arrived), and rounds captured.
const CAPTURE_FROM: u64 = 300;
const CAPTURE_ROUNDS: u64 = 600;
/// The planner is timed on the views of every this many captured rounds.
const PLAN_VIEW_EVERY: usize = 30;

/// CP and planner timings on the workload home's status stream, and
/// whether the capture followed the run.
fn cp_and_planner(workload: &str, seed: u64) -> Result<(Obj, bool), String> {
    let (scenario, workload_cp) = workload_home(workload, seed)?;
    let devices = scenario.device_count();
    let (long, disagreements) =
        captured_stream(&scenario, workload_cp.clone(), CAPTURE_FROM, CAPTURE_ROUNDS)?;
    let short = &long[..60];
    let lossy = CpModel::LossyRound {
        miss_probability: crate::serve::SERVE_LOSS,
    };
    let ideal_us = cp_round_us(&CpModel::Ideal, devices, seed, &long);
    let lossy_us = cp_round_us(&lossy, devices, seed, &long);
    let packet_us = cp_round_us(&CpModel::paper_packet(seed), devices, seed, short);

    // The views every node holds, every PLAN_VIEW_EVERY rounds, under
    // the workload's own CP.
    let mut plane = CommunicationPlane::new(workload_cp, devices, seed);
    let mut views = Vec::new();
    for (k, (statuses, seqs)) in long.iter().enumerate() {
        plane.round(statuses, seqs);
        if k % PLAN_VIEW_EVERY == PLAN_VIEW_EVERY - 1 {
            let now = SimTime::from_secs(2 * (CAPTURE_FROM + k as u64));
            views.extend((0..devices).map(|node| (plane.view(node).clone(), now)));
        }
    }
    let config = PlanConfig::default();
    let plan_us = per_call(5, 0.08, |i| {
        let (view, now) = &views[i % views.len()];
        black_box(plan_coordinated(view, *now, &config));
    }) * 1e6;
    let obj = Obj::new()
        .num("cp.round.us.ideal", ideal_us)
        .num("cp.round.us.lossy", lossy_us)
        .num("cp.round.us.packet", packet_us)
        .num("planner.plan.us", plan_us);
    Ok((obj, disagreements == 0 && long.len() as u64 == CAPTURE_ROUNDS))
}

/// City layer figures, with the per-home digests of the two execution
/// paths compared.
fn city_layers(spec: &CitySpec) -> Result<(Obj, bool), String> {
    let observer = Arc::new(BenchObserver::new(false));
    let cpu0 = process_cpu_s();
    let (_, report) = run_city(spec, Some(Obs::new(observer.clone())))?;
    let city_cpu = process_cpu_s() - cpu0;

    let cpu0 = process_cpu_s();
    let mut digests_equal = true;
    for f in 0..spec.feeders {
        let feeder = spec
            .feeder_neighborhood(f)
            .and_then(|n| n.run())
            .map_err(|e| e.to_string())?;
        for (slot, home) in feeder.homes.iter().enumerate() {
            let want = &report.home_digests[f * spec.homes_per_feeder + slot];
            digests_equal &= want.uncoordinated
                == home.comparison.uncoordinated.outcome.schedule_digest
                && want.coordinated == home.comparison.coordinated.outcome.schedule_digest;
        }
    }
    let per_feeder_cpu = process_cpu_s() - cpu0;

    let mut encoded = Vec::new();
    for feeder in &report.feeders {
        feeder.encode_into(&mut encoded);
    }
    let mb = encoded.len() as f64 / 1e6;
    let encode_s = per_call(5, 0.05, |_| {
        let mut out = Vec::with_capacity(encoded.len());
        for feeder in &report.feeders {
            feeder.encode_into(&mut out);
        }
        black_box(out);
    });
    let mut decode_ok = true;
    let decode_s = per_call(5, 0.05, |_| {
        let mut rest = &encoded[..];
        while !rest.is_empty() {
            match FeederAggregate::decode(rest) {
                Ok((agg, used)) => {
                    black_box(agg);
                    rest = &rest[used..];
                }
                Err(_) => {
                    decode_ok = false;
                    break;
                }
            }
        }
    });
    let obj = Obj::new()
        .num("city.run.cpu_s", city_cpu)
        .num("city.per_feeder.cpu_s", per_feeder_cpu)
        .num(
            "city.shared_heap_ratio",
            city_cpu / per_feeder_cpu.max(0.01),
        )
        .num(
            "city.shard_imbalance_permille",
            observer.gauge(Gauge::CityShardImbalancePermille) as f64,
        )
        .num(
            "wire.faggr.bytes_per_feeder",
            encoded.len() as f64 / report.feeders.len() as f64,
        )
        .num("wire.faggr.encode_mb_s", mb / encode_s)
        .num("wire.faggr.decode_mb_s", mb / decode_s);
    Ok((obj, digests_equal && decode_ok))
}

/// The workload home run once, coordinated and observed with spans.
fn observed_home(workload: &str, seed: u64) -> Result<Obj, String> {
    let (scenario, cp) = workload_home(workload, seed)?;
    let observer = Arc::new(BenchObserver::new(true));
    let mut sim = build_simulation(
        &scenario,
        Strategy::coordinated(),
        cp,
        EngineKind::Round,
        &FaultPlan::empty(),
        None,
    )
    .map_err(|e| e.to_string())?;
    sim.set_observer(Obs::new(observer.clone()));
    black_box(sim.run());
    Ok(observer.home_metrics())
}

/// `probe --workload W --seed S`.
pub fn probe(args: &Args) -> Result<String, String> {
    let seed: u64 = args.num("seed")?;
    let workload = args.str("workload")?;
    let spec = if workload == "city-ideal" {
        city_spec(seed)
    } else {
        CitySpec::uniform(
            "probe-city",
            &Scenario::paper(ArrivalRate::High, seed),
            CpModel::Ideal,
            4,
            4,
        )
    };
    let (city, city_ok) = city_layers(&spec)?;
    let (cp_planner, capture_ok) = cp_and_planner(workload, seed)?;
    let mut out = Obj::new()
        .obj("radio_st", radio_and_st(seed))
        .obj("cp_planner", cp_planner)
        .bool("capture_follows_run", capture_ok)
        .num("engine.event.ns", engine_event_ns(seed))
        .obj("city", city)
        .bool("city_paths_agree", city_ok);
    if workload == "city-ideal" {
        out = out.obj("home", observed_home(workload, seed)?);
    }
    Ok(out.finish())
}
