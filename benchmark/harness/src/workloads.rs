//! The two batch workloads: one packet-CP home and one ideal-CP city.
//!
//! * `home-packet`: `Scenario::paper(High, seed)` cut to a 60-minute
//!   window (1,801 rounds) on the paper's packet-level MiniCast CP,
//!   coordinated compared with uncoordinated.
//! * `city-ideal`: `City::run` on 16 feeders × 8 homes of the paper
//!   home (3,328 devices, 350 minutes), ideal CP, default shards.
//!
//! One iteration is one such comparison; `batch` repeats iterations on
//! the same seed for `--seconds` and checks that every iteration
//! produced the same digest and missed no deadline.

use crate::json::{fold, median, peak_rss_mb, process_cpu_s, thread_cpu_s, Obj};
use crate::observer::BenchObserver;
use crate::speed::{calibrate, factor};
use crate::Args;
use han_core::city::{City, CityReport, CitySpec};
use han_core::experiment::{build_simulation, summarize_outcome};
use han_core::fault::FaultPlan;
use han_core::online::OnlineDriver;
use han_core::simulation::HanSimulation;
use han_core::{CpModel, EngineKind, Strategy};
use han_metrics::stats::reduction_percent;
use han_obs::Obs;
use han_sim::time::SimDuration;
use han_workload::scenario::{ArrivalRate, Scenario};
use std::sync::Arc;
use std::time::Instant;

/// Simulated window of one `home-packet` iteration.
pub const HOME_PACKET_MINUTES: u64 = 60;
/// Feeders in the `city-ideal` city.
pub const CITY_FEEDERS: usize = 16;
/// Homes on each `city-ideal` feeder.
pub const CITY_HOMES_PER_FEEDER: usize = 8;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Batch {
    HomePacket,
    CityIdeal,
}

impl Batch {
    pub fn parse(name: &str) -> Result<Batch, String> {
        match name {
            "home-packet" => Ok(Batch::HomePacket),
            "city-ideal" => Ok(Batch::CityIdeal),
            other => Err(format!("not a batch workload: '{other}'")),
        }
    }
}

/// The `home-packet` scenario for a seed.
pub fn home_scenario(seed: u64) -> Scenario {
    Scenario {
        duration: SimDuration::from_mins(HOME_PACKET_MINUTES),
        ..Scenario::paper(ArrivalRate::High, seed)
    }
}

/// The `city-ideal` city for a seed.
pub fn city_spec(seed: u64) -> CitySpec {
    CitySpec::uniform(
        "city-ideal",
        &Scenario::paper(ArrivalRate::High, seed),
        CpModel::Ideal,
        CITY_FEEDERS,
        CITY_HOMES_PER_FEEDER,
    )
}

/// What one iteration produced.
pub struct Iteration {
    pub wall_s: f64,
    /// CPU seconds the iteration took (home: its thread's; city: the
    /// process's, all threads).
    pub cpu_s: f64,
    /// Coordinated home-rounds simulated.
    pub rounds: u64,
    /// Duty-cycle windows requested (served plus missed).
    pub windows: u64,
    pub misses: u64,
    pub digest: u64,
    pub peak_reduction_pct: f64,
    pub variation_reduction_pct: f64,
}

fn series_digest(mut d: u64, samples: &[f64]) -> u64 {
    d = fold(d, samples.len() as u64);
    for s in samples {
        d = fold(d, s.to_bits());
    }
    d
}

/// Coordinated rounds per timed chunk of a `home-packet` iteration.
const HOME_CHUNK_ROUNDS: u64 = 150;

/// One `home-packet` comparison; `obs` observes the coordinated run.
///
/// The coordinated run is driven chunk by chunk through
/// `OnlineDriver::advance_to` (bit-identical to `HanSimulation::run`
/// by the online subsystem's contract, and checked here by the
/// recorded digest), with a calibration between chunks, so the host
/// speed is tracked every fraction of a second. Returns the iteration
/// and its time scaled to the reference speed.
pub fn run_home(seed: u64, obs: Option<Obs>) -> Result<(Iteration, f64), String> {
    let scenario = home_scenario(seed);
    let cp = CpModel::paper_packet(seed);
    let build = |strategy| {
        build_simulation(
            &scenario,
            strategy,
            cp.clone(),
            EngineKind::Round,
            &FaultPlan::empty(),
            None,
        )
        .map_err(|e| e.to_string())
    };
    let mut unco_sim = Some(build(Strategy::Uncoordinated)?);
    let mut coord_sim = build(Strategy::coordinated())?;
    if let Some(obs) = obs {
        coord_sim.set_observer(obs);
    }

    let mut calibration = calibrate(1);
    let (mut wall_s, mut scaled_s, mut cpu_s) = (0.0, 0.0, 0.0);
    let mut timed = |work: &mut dyn FnMut()| {
        let cpu0 = thread_cpu_s();
        let start = Instant::now();
        work();
        let elapsed = start.elapsed().as_secs_f64();
        cpu_s += thread_cpu_s() - cpu0;
        let next = calibrate(1);
        wall_s += elapsed;
        scaled_s += elapsed * factor(calibration, next);
        calibration = next;
    };
    let mut unco = None;
    timed(&mut || unco = unco_sim.take().map(HanSimulation::run));
    let mut driver = OnlineDriver::new(coord_sim);
    while !driver.finished() {
        let target = driver.next_round() + HOME_CHUNK_ROUNDS;
        timed(&mut || driver.advance_to(target));
    }
    let unco = summarize_outcome(unco.expect("uncoordinated run timed"), scenario.duration);
    let coord = summarize_outcome(driver.into_outcome(), scenario.duration);

    let mut digest = fold(0, coord.outcome.schedule_digest);
    digest = series_digest(digest, &unco.samples);
    digest = series_digest(digest, &coord.samples);
    let misses = u64::from(unco.outcome.deadline_misses + coord.outcome.deadline_misses);
    let iteration = Iteration {
        wall_s,
        cpu_s,
        rounds: coord.outcome.rounds,
        windows: u64::from(coord.outcome.windows_served + coord.outcome.deadline_misses),
        misses,
        digest,
        peak_reduction_pct: reduction_percent(unco.summary.peak, coord.summary.peak),
        variation_reduction_pct: reduction_percent(unco.summary.std_dev, coord.summary.std_dev),
    };
    Ok((iteration, scaled_s))
}

/// A digest over everything a [`CityReport`] says about its homes and
/// series (not its wire encoding, so a codec change keeps it).
pub fn city_digest(report: &CityReport) -> u64 {
    let mut d = fold(0, report.homes as u64);
    for h in &report.home_digests {
        d = fold(fold(fold(d, h.home), h.uncoordinated), h.coordinated);
    }
    for v in [report.rounds, report.deadline_misses, report.windows_served] {
        d = fold(d, v);
    }
    d = series_digest(d, &report.samples_uncoordinated);
    series_digest(d, &report.samples_coordinated)
}

/// One `city-ideal` run of `spec`.
pub fn run_city(spec: &CitySpec, obs: Option<Obs>) -> Result<(Iteration, CityReport), String> {
    let mut city = City::new(spec.clone()).map_err(|e| e.to_string())?;
    if let Some(obs) = obs {
        city.set_observer(obs);
    }
    let start = Instant::now();
    let report = city.run().map_err(|e| e.to_string())?;
    let wall_s = start.elapsed().as_secs_f64();
    let iteration = Iteration {
        wall_s,
        cpu_s: 0.0,
        rounds: report.rounds,
        windows: report.windows_served + report.deadline_misses,
        misses: report.deadline_misses,
        digest: city_digest(&report),
        // The paper's peak claim is per home: the mean home peak. Load
        // variation is the city's, the series the grid sees.
        peak_reduction_pct: reduction_percent(
            report
                .feeders
                .iter()
                .map(|f| f.sum_home_peaks_uncoordinated)
                .sum(),
            report
                .feeders
                .iter()
                .map(|f| f.sum_home_peaks_coordinated)
                .sum(),
        ),
        variation_reduction_pct: reduction_percent(
            report.uncoordinated.std_dev,
            report.coordinated.std_dev,
        ),
    };
    Ok((iteration, report))
}

/// Samples per `setup` call, and the least time each sample's batch
/// of builds takes.
const SETUP_SAMPLES: usize = 5;
const SETUP_BATCH_S: f64 = 0.02;

/// Builds the workload's inputs and program state once, as its timed
/// runs find them: the scenario, CP model, both simulations and the
/// coordinated run's `OnlineDriver` (`home-packet`, see [`run_home`]),
/// the `City` (`city-ideal`), or the service the daemon holds
/// (`serve-lossy`).
fn build_once(workload: &str, seed: u64) -> Result<(), String> {
    match workload {
        "home-packet" => {
            let scenario = home_scenario(seed);
            let cp = CpModel::paper_packet(seed);
            let build = |strategy| {
                build_simulation(
                    &scenario,
                    strategy,
                    cp.clone(),
                    EngineKind::Round,
                    &FaultPlan::empty(),
                    None,
                )
                .map_err(|e| e.to_string())
            };
            std::hint::black_box(build(Strategy::Uncoordinated)?);
            std::hint::black_box(OnlineDriver::new(build(Strategy::coordinated())?));
        }
        "city-ideal" => {
            let city = City::new(city_spec(seed)).map_err(|e| e.to_string())?;
            std::hint::black_box(&city);
        }
        "serve-lossy" => {
            std::hint::black_box(crate::serve::daemon_like(seed, Strategy::coordinated())?);
        }
        other => return Err(format!("unknown workload '{other}'")),
    }
    Ok(())
}

/// `setup`: builds the workload's inputs and program state over and
/// over in this one process, so process start-up stays out of it. Each
/// sample is a batch of builds lasting at least [`SETUP_BATCH_S`],
/// timed between calibrations and scaled to the reference speed like
/// batch work; `setup_s` is the median time of one build. The caller
/// takes the median over several such processes, because the time of a
/// µs-scale build differs from one process image to the next.
pub fn setup(args: &Args) -> Result<String, String> {
    let seed: u64 = args.num("seed")?;
    let workload = args.str("workload")?;
    let mut calibration = calibrate(1);
    let (mut raw, mut scaled) = (Vec::new(), Vec::new());
    for _ in 0..SETUP_SAMPLES {
        let start = Instant::now();
        let mut builds = 0u32;
        while builds == 0 || start.elapsed().as_secs_f64() < SETUP_BATCH_S {
            build_once(workload, seed)?;
            builds += 1;
        }
        let per_build = start.elapsed().as_secs_f64() / f64::from(builds);
        let next = calibrate(1);
        raw.push(per_build);
        scaled.push(per_build * factor(calibration, next));
        calibration = next;
    }
    Ok(Obj::new()
        .num("setup_s", median(&scaled))
        .num("raw_setup_s", median(&raw))
        .finish())
}

/// `batch`: iterations on one seed until `--seconds` have passed and at
/// least `--min-iterations` ran. Calibrations bracket every timed chunk
/// of a home iteration and every city run (on every core the city
/// uses); an iteration's `speed` entry scales its times to the
/// reference speed. With `--traced`, every second iteration runs
/// observed; the observed ones give the layer counters, the round-phase
/// spans and the tracing overhead.
pub fn batch(args: &Args) -> Result<String, String> {
    let seed: u64 = args.num("seed")?;
    let seconds: f64 = args.num("seconds")?;
    let traced = args.flag("traced");
    let min_iterations: usize = args.num_or("min-iterations", if traced { 4 } else { 3 })?;
    let workload = Batch::parse(args.str("workload")?)?;
    let spec = city_spec(seed);
    // `City::run` fans its shards out over one thread per core.
    let threads = std::thread::available_parallelism().map_or(1, usize::from);

    let mut iterations = Vec::new();
    let mut speed = Vec::new();
    let mut traced_flags = Vec::new();
    let mut last_observer: Option<Arc<BenchObserver>> = None;
    let start = Instant::now();
    while iterations.len() < min_iterations || start.elapsed().as_secs_f64() < seconds {
        let observed = traced && iterations.len() % 2 == 1;
        let observer = observed.then(|| Arc::new(BenchObserver::new(true)));
        let obs = observer.clone().map(|o| Obs::new(o));
        let (iteration, scale) = match workload {
            Batch::HomePacket => {
                let (iteration, scaled_s) = run_home(seed, obs)?;
                let scale = scaled_s / iteration.wall_s;
                (iteration, scale)
            }
            // A city run cannot be split, so the calibrations bracket it whole.
            Batch::CityIdeal => {
                let before = calibrate(threads);
                let cpu0 = process_cpu_s();
                let mut iteration = run_city(&spec, obs)?.0;
                iteration.cpu_s = process_cpu_s() - cpu0;
                (iteration, factor(before, calibrate(threads)))
            }
        };
        speed.push(scale);
        iterations.push(iteration);
        traced_flags.push(observed);
        if observer.is_some() {
            last_observer = observer;
        }
    }

    let first = iterations[0].digest;
    let same_digest = iterations.iter().all(|it| it.digest == first);
    let walls: Vec<f64> = iterations.iter().map(|it| it.wall_s).collect();
    let mut out = Obj::new()
        .str("digest", &format!("{first:016x}"))
        .bool("same_digest", same_digest)
        .nums("wall_s", &walls)
        .nums("speed", &speed)
        .nums(
            "cpu_s",
            &iterations.iter().map(|it| it.cpu_s).collect::<Vec<_>>(),
        )
        .nums(
            "traced",
            &traced_flags
                .iter()
                .map(|&t| f64::from(u8::from(t)))
                .collect::<Vec<_>>(),
        )
        .nums(
            "rounds",
            &iterations
                .iter()
                .map(|it| it.rounds as f64)
                .collect::<Vec<_>>(),
        )
        .int("windows", iterations.iter().map(|it| it.windows).sum())
        .int("misses", iterations.iter().map(|it| it.misses).sum())
        .num("peak_reduction_pct", iterations[0].peak_reduction_pct)
        .num(
            "variation_reduction_pct",
            iterations[0].variation_reduction_pct,
        )
        .num("peak_rss_mb", peak_rss_mb());
    if let Some(observer) = last_observer {
        let scaled = |want: bool| -> Vec<f64> {
            walls
                .iter()
                .zip(&speed)
                .zip(&traced_flags)
                .filter(|(_, &t)| t == want)
                .map(|((&w, &f), _)| w * f)
                .collect()
        };
        let (plain, observed) = (scaled(false), scaled(true));
        out = out.num(
            "trace.overhead_pct",
            (median(&observed) / median(&plain) - 1.0) * 100.0,
        );
        if workload == Batch::HomePacket {
            out = out.obj("home", observer.home_metrics());
        }
    }
    Ok(out.finish())
}
