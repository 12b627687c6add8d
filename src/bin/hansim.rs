//! `hansim` — command-line scenario runner.
//!
//! Runs one HAN load-management experiment — or a whole multi-home
//! neighborhood, optionally under a feeder coordination signal — and
//! prints a report (or the raw per-minute series as CSV). `hansim serve`
//! runs one home as a daemon and `hansim city` runs a whole city; all
//! three modes read the same scenario flags through one parser.
//!
//! ```text
//! Usage: hansim [OPTIONS]         one home, or a neighborhood (batch)
//!        hansim serve [OPTIONS]   long-lived online service mode
//!        hansim city [OPTIONS]    city-scale run
//!
//! Scenario flags (every mode):
//!   --rate <low|moderate|high|N>   aggregate request rate (default: high)
//!   --workload <poisson|daily>     arrival process (default: poisson;
//!                                  daily = time-of-day household profile,
//!                                  ignores --rate)
//!   --cp <ideal|lossy:P|ge:PGB,PBG|packet>
//!                                  communication plane (default: ideal;
//!                                  ge = Gilbert-Elliott burst loss with
//!                                  good/bad transition probabilities;
//!                                  serve takes ideal or lossy only)
//!   --minutes <N>                  duration in minutes (default: 350,
//!                                  city: 120; at most 307445734561, the
//!                                  span of the u64 µs simulated clock)
//!   --devices <N>                  number of 1 kW devices (default: 26)
//!   --faults <spec>                scripted fault plan, e.g.
//!                                  "down:3@10; up:3@40; outage:60-65"
//!                                  (see han_core::fault for the grammar);
//!                                  every home suffers the same timeline,
//!                                  a single home reports resilience
//!   --seed <N>                     workload/channel seed (default: 0)
//!
//! Single-home flags (batch and serve):
//!   --strategy <coordinated|uncoordinated|centralized|compare>
//!                                  scheduling strategy (default: compare,
//!                                  serve: coordinated; serve needs a
//!                                  single strategy, neighborhood runs
//!                                  always compare)
//!   --engine <round|event>         simulation backend (default: round;
//!                                  event = typed events on the han-sim
//!                                  discrete-event engine, bit-identical
//!                                  by contract)
//!   --stale-ttl <N>                age out unrefreshed peer records after
//!                                  N rounds (off by default for
//!                                  bit-compatibility)
//!   --checkpoint <path>            batch: run to completion but snapshot
//!                                  the mid-run state to <path> (single
//!                                  strategy); serve: where snapshots go
//!   --restore <path>               resume from a snapshot instead of
//!                                  simulating from round zero; the report
//!                                  is byte-identical to the uninterrupted
//!                                  run
//!   --flight <FILE>                flight-recorder ring as JSONL; also
//!                                  auto-dumped the moment a fault fires
//!
//! Batch flags:
//!   --homes <N>                    homes on one feeder (default: 1 —
//!                                  today's single-home behavior; >1 runs
//!                                  the neighborhood layer, per-home seeds)
//!   --feeder <cap:KW|tou|congestion[:U]>
//!                                  broadcast a feeder coordination signal
//!                                  and iterate homes to convergence
//!   --csv                          per-minute series as CSV (single home:
//!                                  per-strategy loads; neighborhood: the
//!                                  feeder aggregate per policy)
//!   --metrics-out <FILE>           dump the engine metrics registry as
//!                                  Prometheus text exposition after the
//!                                  run (single strategy; with --feeder,
//!                                  covers the coordination run)
//!   --trace <FILE>                 record per-phase spans and write a
//!                                  Chrome trace_event JSON document
//!                                  (open in chrome://tracing / Perfetto)
//!   --feeder-trace <FILE>          per-iteration feeder convergence
//!                                  trace as CSV (requires --feeder)
//!
//! Serve mode runs one single-home scenario as a daemon: simulated time
//! advances against the chosen pace, telemetry can be injected while it
//! runs, and a newline-delimited TCP protocol (STATUS / SCHEDULE /
//! FEEDER / INJECT / ADVANCE / CHECKPOINT / METRICS / DUMP / SHUTDOWN)
//! answers queries; CHECKPOINT with no path writes to --checkpoint, and
//! DUMP over the socket works with or without --flight. Serve flags:
//!   --listen <ADDR>                serve the protocol on ADDR (e.g.
//!                                  127.0.0.1:7788); without it, serve
//!                                  runs in replay mode and exits at the
//!                                  end of the window
//!   --replay <FILE>                ingest a telemetry script up front
//!                                  (same grammar as INJECT) — a replayed
//!                                  run is byte-identical to a batch run
//!                                  whose trace carried the same events
//!   --checkpoint-every <MIN>       auto-checkpoint every MIN simulated
//!                                  minutes (atomic rename into --checkpoint)
//!   --pace-us <N>                  one simulated round per N wall µs
//!                                  (2000000 = real time; default: free-run)
//!   --manual                       advance only on ADVANCE commands
//!
//! City mode runs feeders × homes-per-feeder homes, each on the round
//! loop and in parallel, folds every home into its feeder (see
//! han_core::city) and prints the reduced feeder → substation → city
//! report. Per-home results are digest-identical to the same homes run
//! through the neighborhood path. --engine is rejected (the city always
//! runs the round loop). City flags:
//!   --feeders <N>                  feeders in the city (default: 4)
//!   --homes-per-feeder <M>         homes on each feeder (default: 4)
//!   --substation-fanin <N>         feeders per substation in the
//!                                  reduction tree (default: 8)
//!   --workers <N>                  run the city as N worker processes
//!                                  (re-exec'd `hansim` children over
//!                                  HANFAGG1 pipes; default: in-process).
//!                                  The report is byte-identical either
//!                                  way and for every valid N.
//!   --mp-restart                   relaunch a dead worker once and
//!                                  re-read its partition (deterministic)
//!   --mp-deadline-ms <N>           per-worker read deadline before a
//!                                  silent worker becomes a typed error
//!                                  (default: 30000)
//!   --csv                          the city aggregate per strategy as
//!                                  per-minute CSV
//! ```

use smart_han::core::city::mp::{self, MpOptions, WorkerConnection, WorkerError};
use smart_han::core::city::{City, CityReport, CitySpec};
use smart_han::core::experiment::{build_simulation, summarize_outcome, SAMPLE_INTERVAL};
use smart_han::core::feeder::{FeederPolicy, FeederReport, FeederSignal};
use smart_han::core::online::{serve, OnlineDriver, OnlineError, Pace, ServeOptions};
use smart_han::metrics::report::series_csv;
use smart_han::metrics::tariff::{Billing, CostBreakdown};
use smart_han::obs::{Obs, ObsConfig, ObsSink};
use smart_han::prelude::*;
use smart_han::workload::signal::PowerCapProfile;
use std::fmt;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

/// Everything that can go wrong between `argv` and a finished run — the
/// CLI's typed error (no `String` errors anywhere on the path).
#[derive(Debug)]
enum CliError {
    /// `--help` was requested: print usage, exit non-zero without an
    /// error line.
    Usage,
    /// A flag that needs a value was last on the command line.
    MissingValue { flag: &'static str },
    /// A flag value failed to parse.
    Invalid {
        flag: &'static str,
        value: String,
        expected: &'static str,
    },
    /// An unrecognized flag.
    UnknownFlag { flag: String },
    /// The composed scenario, neighborhood or policy was invalid.
    Scenario(ScenarioError),
    /// A checkpoint file failed to read back (truncated, foreign, or
    /// from a different configuration).
    Checkpoint(CheckpointError),
    /// A checkpoint file could not be read or written.
    Io { path: String, error: std::io::Error },
    /// The online service reported a typed failure (serve mode).
    Online(OnlineError),
    /// The multi-process city supervisor reported a typed failure
    /// (city mode with `--workers`).
    Worker(WorkerError),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage => write!(f, "usage requested"),
            CliError::MissingValue { flag } => write!(f, "{flag} requires a value"),
            CliError::Invalid {
                flag,
                value,
                expected,
            } => write!(f, "bad value '{value}' for {flag} (expected {expected})"),
            CliError::UnknownFlag { flag } => write!(f, "unknown flag '{flag}'"),
            CliError::Scenario(e) => write!(f, "{e}"),
            CliError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
            CliError::Io { path, error } => write!(f, "{path}: {error}"),
            CliError::Online(e) => write!(f, "serve: {e}"),
            CliError::Worker(e) => write!(f, "city worker fleet: {e}"),
        }
    }
}

impl From<ScenarioError> for CliError {
    fn from(e: ScenarioError) -> Self {
        CliError::Scenario(e)
    }
}

impl From<OnlineError> for CliError {
    fn from(e: OnlineError) -> Self {
        CliError::Online(e)
    }
}

impl From<WorkerError> for CliError {
    fn from(e: WorkerError) -> Self {
        // A worker fleet failing on an invalid spec is the same misuse
        // as the in-process path failing on it — keep the diagnostic
        // identical so tests (and users) see one error, not two.
        match e {
            WorkerError::Scenario(inner) => CliError::Scenario(inner),
            other => CliError::Worker(other),
        }
    }
}

/// Which subcommand's flags are being parsed: it picks the per-mode
/// defaults and the mode-only flags [`parse_flags`] accepts. The
/// scenario flags are the same in every mode.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// `hansim [OPTIONS]`: one home or a neighborhood.
    Batch,
    /// `hansim serve`: the online daemon.
    Serve,
    /// `hansim city` and its hidden `city-worker` half.
    City,
}

/// The communication-plane choice, kept symbolic until all flags are
/// parsed: `packet` seeds its channel model from `--seed`, which may
/// legally appear *after* `--cp` on the command line.
#[derive(Default)]
enum CpChoice {
    #[default]
    Ideal,
    Lossy(f64),
    /// Gilbert-Elliott burst loss: perfect good state, total loss in the
    /// bad state, with the given transition probabilities.
    Ge {
        p_good_to_bad: f64,
        p_bad_to_good: f64,
    },
    Packet,
}

impl CpChoice {
    fn parse(value: &str) -> Result<Self, CliError> {
        let invalid = || CliError::Invalid {
            flag: "--cp",
            value: value.to_string(),
            expected: "ideal|lossy:P|ge:PGB,PBG|packet",
        };
        let prob = |p: &str| p.parse().map_err(|_| invalid());
        if value == "ideal" {
            Ok(CpChoice::Ideal)
        } else if value == "packet" {
            Ok(CpChoice::Packet)
        } else if let Some(p) = value.strip_prefix("lossy:") {
            Ok(CpChoice::Lossy(prob(p)?))
        } else if let Some((gb, bg)) = value.strip_prefix("ge:").and_then(|v| v.split_once(',')) {
            Ok(CpChoice::Ge {
                p_good_to_bad: prob(gb)?,
                p_bad_to_good: prob(bg)?,
            })
        } else {
            Err(invalid())
        }
    }

    fn build(&self, seed: u64) -> CpModel {
        match self {
            CpChoice::Ideal => CpModel::Ideal,
            CpChoice::Lossy(p) => CpModel::LossyRound {
                miss_probability: *p,
            },
            CpChoice::Ge {
                p_good_to_bad,
                p_bad_to_good,
            } => CpModel::GilbertElliott {
                p_good_to_bad: *p_good_to_bad,
                p_bad_to_good: *p_bad_to_good,
                loss_good: 0.0,
                loss_bad: 1.0,
            },
            CpChoice::Packet => CpModel::paper_packet(seed),
        }
    }
}

/// The scenario flags every mode shares. The defaults are the paper's
/// configuration: 26 devices at the high rate for 350 minutes.
struct ScenarioFlags {
    rate: f64,
    daily: bool,
    minutes: u64,
    devices: usize,
    cp: CpChoice,
    faults: FaultPlan,
    seed: u64,
}

impl Default for ScenarioFlags {
    fn default() -> Self {
        ScenarioFlags {
            rate: 30.0,
            daily: false,
            minutes: 350,
            devices: 26,
            cp: CpChoice::Ideal,
            faults: FaultPlan::empty(),
            seed: 0,
        }
    }
}

impl ScenarioFlags {
    /// The scenario these flags describe, named `{prefix} {rate}/h`.
    fn scenario(&self, prefix: &str) -> Result<Scenario, ScenarioError> {
        let workload = if self.daily {
            Workload::Daily(DailyProfile::typical_household())
        } else {
            Workload::Poisson {
                rate_per_hour: self.rate,
            }
        };
        Scenario::builder(format!("{prefix} {}/h", self.rate))
            .class(DeviceClass::paper(self.devices))
            .workload(workload)
            .duration(SimDuration::from_mins(self.minutes))
            .seed(self.seed)
            .build()
    }

    /// The communication plane, built from the final `--seed`.
    fn cp(&self) -> CpModel {
        self.cp.build(self.seed)
    }
}

/// Every mode's flags. A mode accepts only its own flags, so the
/// fields of the other modes keep their defaults.
#[derive(Default)]
struct Args {
    scenario: ScenarioFlags,
    // Batch and serve.
    strategy: &'static str,
    engine: EngineKind,
    stale_ttl: Option<u32>,
    checkpoint: Option<String>,
    restore: Option<String>,
    flight: Option<String>,
    // Batch and city.
    csv: bool,
    // Batch.
    homes: usize,
    feeder: Option<FeederSignal>,
    metrics_out: Option<String>,
    trace: Option<String>,
    feeder_trace: Option<String>,
    // Serve.
    listen: Option<String>,
    replay: Option<String>,
    checkpoint_every_min: Option<u64>,
    pace_us: Option<u64>,
    manual: bool,
    // City.
    feeders: usize,
    homes_per_feeder: usize,
    substation_fanin: usize,
    /// `Some(n)`: run the city as `n` worker processes (`hansim
    /// city-worker` children). `None`: in process.
    workers: Option<usize>,
    mp_restart: bool,
    mp_deadline_ms: u64,
}

impl Args {
    /// Whether any flag asked for an observability artifact
    /// (`--feeder-trace` reads the report directly, not the sink).
    fn wants_obs(&self) -> bool {
        self.metrics_out.is_some() || self.trace.is_some() || self.flight.is_some()
    }
}

/// Parses one mode's flags from `it`, the tail of argv after the
/// subcommand. The scenario flags share their arms across modes, and a
/// flag of another mode is an unknown flag. Taking the iterator lets the
/// hidden `city-worker` entry point re-parse its own argv tail here, so
/// parent and worker derive the city from the *same* grammar and the
/// handshake fingerprints can only diverge on real version skew.
fn parse_flags(mode: Mode, mut it: impl Iterator<Item = String>) -> Result<Args, CliError> {
    use Mode::{Batch, City, Serve};
    let mut args = Args {
        strategy: if mode == Batch {
            "compare"
        } else {
            "coordinated"
        },
        homes: 1,
        feeders: 4,
        homes_per_feeder: 4,
        mp_deadline_ms: 30_000,
        ..Args::default()
    };
    if mode == City {
        args.scenario.minutes = 120;
    }
    while let Some(flag) = it.next() {
        let mut value = |name: &'static str| it.next().ok_or(CliError::MissingValue { flag: name });
        match (mode, flag.as_str()) {
            (_, "--rate") => {
                let v = value("--rate")?;
                args.scenario.rate = match v.as_str() {
                    "low" => 4.0,
                    "moderate" => 18.0,
                    "high" => 30.0,
                    n => n.parse().map_err(|_| CliError::Invalid {
                        flag: "--rate",
                        value: n.to_string(),
                        expected: "low|moderate|high|N",
                    })?,
                };
            }
            (_, "--workload") => {
                let v = value("--workload")?;
                args.scenario.daily = match v.as_str() {
                    "poisson" => false,
                    "daily" => true,
                    _ => {
                        return Err(CliError::Invalid {
                            flag: "--workload",
                            value: v,
                            expected: "poisson|daily",
                        })
                    }
                };
            }
            (_, "--minutes") => {
                let v = value("--minutes")?;
                let minutes: u64 = parse_num(&v, "--minutes")?;
                // The simulated clock counts u64 microseconds.
                if minutes.checked_mul(60_000_000).is_none() {
                    return Err(CliError::Invalid {
                        flag: "--minutes",
                        value: v,
                        expected: "at most 307445734561 minutes (the u64 µs simulated clock)",
                    });
                }
                args.scenario.minutes = minutes;
            }
            (_, "--devices") => {
                args.scenario.devices = parse_num(&value("--devices")?, "--devices")?
            }
            (_, "--cp") => args.scenario.cp = CpChoice::parse(&value("--cp")?)?,
            (_, "--faults") => {
                let v = value("--faults")?;
                args.scenario.faults = FaultPlan::parse(&v).map_err(|_| CliError::Invalid {
                    flag: "--faults",
                    value: v,
                    expected: "e.g. \"down:3@10; up:3@40; outage:60-65; sigloss:80-90\"",
                })?;
            }
            (_, "--seed") => args.scenario.seed = parse_num(&value("--seed")?, "--seed")?,
            (Batch | Serve, "--strategy") => {
                let v = value("--strategy")?;
                args.strategy = ["coordinated", "uncoordinated", "centralized", "compare"]
                    .into_iter()
                    .find(|s| *s == v)
                    .ok_or_else(|| CliError::Invalid {
                        flag: "--strategy",
                        value: v.clone(),
                        expected: "coordinated|uncoordinated|centralized|compare",
                    })?;
            }
            (Batch | Serve, "--engine") => {
                let v = value("--engine")?;
                args.engine = EngineKind::from_flag(&v).ok_or(CliError::Invalid {
                    flag: "--engine",
                    value: v,
                    expected: "round|event",
                })?;
            }
            // The city layer has no backend choice: homes always run the
            // round loop. Rejected, not ignored — a typed error, never a
            // silent no-op.
            (City, "--engine") => {
                return Err(CliError::Invalid {
                    flag: "--engine",
                    value: value("--engine").unwrap_or_else(|_| "absent".into()),
                    expected: "no --engine in city mode (always the round loop)",
                });
            }
            (Batch | Serve, "--stale-ttl") => {
                args.stale_ttl = Some(parse_num(&value("--stale-ttl")?, "--stale-ttl")?)
            }
            (Batch | Serve, "--checkpoint") => args.checkpoint = Some(value("--checkpoint")?),
            (Batch | Serve, "--restore") => args.restore = Some(value("--restore")?),
            (Batch | Serve, "--flight") => args.flight = Some(value("--flight")?),
            (Batch | City, "--csv") => args.csv = true,
            (Batch, "--homes") => args.homes = parse_num(&value("--homes")?, "--homes")?,
            (Batch, "--feeder") => args.feeder = Some(parse_feeder(&value("--feeder")?)?),
            (Batch, "--metrics-out") => args.metrics_out = Some(value("--metrics-out")?),
            (Batch, "--trace") => args.trace = Some(value("--trace")?),
            (Batch, "--feeder-trace") => args.feeder_trace = Some(value("--feeder-trace")?),
            (Serve, "--listen") => args.listen = Some(value("--listen")?),
            (Serve, "--replay") => args.replay = Some(value("--replay")?),
            (Serve, "--checkpoint-every") => {
                args.checkpoint_every_min = Some(parse_num(
                    &value("--checkpoint-every")?,
                    "--checkpoint-every",
                )?)
            }
            (Serve, "--pace-us") => {
                args.pace_us = Some(parse_num(&value("--pace-us")?, "--pace-us")?)
            }
            (Serve, "--manual") => args.manual = true,
            (City, "--feeders") => args.feeders = parse_num(&value("--feeders")?, "--feeders")?,
            (City, "--homes-per-feeder") => {
                args.homes_per_feeder =
                    parse_num(&value("--homes-per-feeder")?, "--homes-per-feeder")?
            }
            (City, "--substation-fanin") => {
                args.substation_fanin =
                    parse_num(&value("--substation-fanin")?, "--substation-fanin")?
            }
            (City, "--workers") => {
                args.workers = Some(parse_num(&value("--workers")?, "--workers")?)
            }
            (City, "--mp-restart") => args.mp_restart = true,
            (City, "--mp-deadline-ms") => {
                args.mp_deadline_ms = parse_num(&value("--mp-deadline-ms")?, "--mp-deadline-ms")?
            }
            (_, "--help" | "-h") => return Err(CliError::Usage),
            _ => return Err(CliError::UnknownFlag { flag }),
        }
    }
    Ok(args)
}

fn parse_feeder(value: &str) -> Result<FeederSignal, CliError> {
    let invalid = |v: &str| CliError::Invalid {
        flag: "--feeder",
        value: v.to_string(),
        expected: "cap:KW|tou|congestion[:U]",
    };
    if let Some(kw) = value.strip_prefix("cap:") {
        let kw: f64 = kw.parse().map_err(|_| invalid(value))?;
        let profile = PowerCapProfile::constant(kw).map_err(CliError::Scenario)?;
        return Ok(FeederSignal::Capacity(profile));
    }
    match value {
        "tou" => Ok(FeederSignal::time_of_use(
            smart_han::metrics::TimeOfUseTariff::typical_residential(),
        )),
        "congestion" => Ok(FeederSignal::Congestion { utilization: 0.9 }),
        other => {
            if let Some(u) = other.strip_prefix("congestion:") {
                let utilization: f64 = u.parse().map_err(|_| invalid(value))?;
                Ok(FeederSignal::Congestion { utilization })
            } else {
                Err(invalid(value))
            }
        }
    }
}

fn parse_num<T: std::str::FromStr>(value: &str, flag: &'static str) -> Result<T, CliError> {
    value.parse().map_err(|_| CliError::Invalid {
        flag,
        value: value.to_string(),
        expected: "a number",
    })
}

/// Fails with the first of `flags` that was given: each is a flag name
/// and whether it is present, and `value`/`expected` say why it does
/// not apply.
fn reject_present(
    flags: &[(&'static str, bool)],
    value: &str,
    expected: &'static str,
) -> Result<(), CliError> {
    match flags.iter().find(|(_, present)| *present) {
        Some((flag, _)) => Err(CliError::Invalid {
            flag,
            value: value.to_string(),
            expected,
        }),
        None => Ok(()),
    }
}

fn strategy_by_name(name: &str) -> Strategy {
    match name {
        "coordinated" => Strategy::coordinated(),
        "uncoordinated" => Strategy::Uncoordinated,
        "centralized" => Strategy::Centralized {
            controller: DeviceId(0),
            plan: PlanConfig::default(),
            crash_at: None,
        },
        other => unreachable!("validated earlier: {other}"),
    }
}

fn cost_line(cost: &CostBreakdown) -> String {
    format!(
        "energy {:.2} + demand {:.2} = {:.2}",
        cost.energy_cost,
        cost.demand_charge,
        cost.total()
    )
}

/// Builds the batch-mode observability sink when any obs flag asked for
/// one. Flight auto-dump targets `--flight` so a fault fires the ring to
/// disk mid-run; the final ring is written there again at exit.
fn obs_sink(args: &Args) -> Option<Arc<ObsSink>> {
    args.wants_obs().then(|| {
        Arc::new(ObsSink::new(ObsConfig {
            flight_auto_dump: args.flight.as_ref().map(PathBuf::from),
            trace_spans: args.trace.is_some(),
            ..ObsConfig::default()
        }))
    })
}

/// Writes whichever observability artifacts were requested, after the
/// run(s) feeding `sink` have finished.
fn write_obs_outputs(args: &Args, sink: &ObsSink) -> Result<(), CliError> {
    let io_err = |path: &str| {
        let path = path.to_string();
        move |error| CliError::Io { path, error }
    };
    if let Some(path) = &args.metrics_out {
        std::fs::write(path, sink.exposition()).map_err(io_err(path))?;
    }
    if let Some(path) = &args.trace {
        let trace = sink.trace().expect("trace_spans set when --trace is given");
        trace.write_to(Path::new(path)).map_err(io_err(path))?;
    }
    if let Some(path) = &args.flight {
        sink.flight()
            .dump_to(Path::new(path))
            .map_err(io_err(path))?;
    }
    Ok(())
}

/// Runs one strategy the way `run_single_home` needs it: through the
/// checkpoint API when `--checkpoint`/`--restore` are in play, plainly
/// otherwise. Either way the returned result covers the full timeline —
/// a resumed run's report is byte-identical to the uninterrupted one.
/// An attached sink never changes any of that: observation is not state.
fn run_one(
    args: &Args,
    scenario: &Scenario,
    strategy: Strategy,
    sink: Option<&Arc<ObsSink>>,
) -> Result<StrategyResult, CliError> {
    let mut sim = build_simulation(
        scenario,
        strategy,
        args.scenario.cp(),
        args.engine,
        &args.scenario.faults,
        args.stale_ttl,
    )?;
    if let Some(sink) = sink {
        sim.set_observer(Obs::new(sink.clone()));
    }
    let outcome = if let Some(path) = &args.restore {
        let bytes = std::fs::read(path).map_err(|error| CliError::Io {
            path: path.clone(),
            error,
        })?;
        let checkpoint = Checkpoint::from_bytes(&bytes).map_err(CliError::Checkpoint)?;
        sim.resume(&checkpoint).map_err(CliError::Checkpoint)?
    } else if let Some(path) = &args.checkpoint {
        // Snapshot at the midpoint of the timeline (rounds are 2 s, so
        // `minutes * 30 / 2` rounds in), then keep running: the printed
        // report is the full-run report, the file is the restart point.
        let (outcome, checkpoint) = sim.run_checkpointed(args.scenario.minutes * 15);
        std::fs::write(path, checkpoint.to_bytes()).map_err(|error| CliError::Io {
            path: path.clone(),
            error,
        })?;
        outcome
    } else {
        sim.run()
    };
    Ok(summarize_outcome(outcome, scenario.duration))
}

/// The original one-home path, byte-compatible with earlier releases
/// apart from the new cost columns.
fn run_single_home(args: &Args, scenario: &Scenario) -> Result<(), CliError> {
    if args.checkpoint.is_some() && args.restore.is_some() {
        return Err(CliError::Invalid {
            flag: "--restore",
            value: "with --checkpoint".into(),
            expected: "either --checkpoint or --restore, not both",
        });
    }
    if args.strategy == "compare" {
        reject_present(
            &[
                ("--checkpoint", args.checkpoint.is_some()),
                ("--restore", args.restore.is_some()),
            ],
            "compare",
            "a single strategy (checkpoints hold one simulation's state)",
        )?;
        reject_present(
            &[
                ("--metrics-out", args.metrics_out.is_some()),
                ("--trace", args.trace.is_some()),
                ("--flight", args.flight.is_some()),
            ],
            "compare",
            "a single strategy (observability artifacts cover one simulation)",
        )?;
    }
    reject_present(
        &[("--feeder-trace", args.feeder_trace.is_some())],
        "without --feeder",
        "--feeder SIGNAL (the trace records feeder coordination iterates)",
    )?;
    let named: Vec<(&str, Strategy)> = if args.strategy == "compare" {
        vec![
            ("uncoordinated", Strategy::Uncoordinated),
            ("coordinated", Strategy::coordinated()),
        ]
    } else {
        vec![(args.strategy, strategy_by_name(args.strategy))]
    };

    let sink = obs_sink(args);
    let mut results: Vec<(&str, StrategyResult)> = Vec::new();
    for (name, strategy) in &named {
        let r = run_one(args, scenario, strategy.clone(), sink.as_ref())?;
        results.push((*name, r));
    }
    if let Some(sink) = &sink {
        write_obs_outputs(args, sink)?;
    }

    if args.csv {
        let minutes: Vec<f64> = (0..results[0].1.samples.len()).map(|m| m as f64).collect();
        let series: Vec<(&str, &[f64])> = results
            .iter()
            .map(|(name, r)| (*name, r.samples.as_slice()))
            .collect();
        print!("{}", series_csv("minute", &minutes, &series));
        return Ok(());
    }

    let flags = &args.scenario;
    let workload_desc = if flags.daily {
        "time-of-day household".to_string()
    } else {
        format!("{}/h", flags.rate)
    };
    println!(
        "{} devices x 1 kW, {workload_desc} requests, {} min, seed {} (sampled every {})",
        flags.devices, flags.minutes, flags.seed, SAMPLE_INTERVAL
    );
    let billing = Billing::typical_residential();
    let end = SimTime::ZERO + scenario.duration;
    for (name, r) in &results {
        println!(
            "\n[{name}] peak {:.2} kW | mean {:.2} ± {:.2} kW | misses {} | served {} | \
             divergent rounds {}",
            r.summary.peak,
            r.summary.mean,
            r.summary.std_dev,
            r.outcome.deadline_misses,
            r.outcome.windows_served,
            r.outcome.divergent_rounds,
        );
        let cost = billing.cost(&r.outcome.trace, SimTime::ZERO, end);
        println!("         bill: {}", cost_line(&cost));
        if !flags.faults.is_empty() {
            let res = &r.outcome.resilience;
            println!(
                "         resilience: availability {:.4} | node-down rounds {} | \
                 outage rounds {} | misses while down/during outage {}/{}",
                res.availability(r.outcome.cp.rounds, flags.devices),
                res.down_node_rounds,
                res.outage_rounds,
                res.misses_while_down,
                res.misses_during_outage,
            );
            match res.mean_recovery_rounds() {
                Some(mean) => println!(
                    "         recovery: {} event(s), mean {:.1} rounds, worst {} rounds",
                    res.recoveries.len(),
                    mean,
                    res.worst_recovery_rounds().unwrap_or(0),
                ),
                None => println!("         recovery: no re-agreement events"),
            }
        }
        if let Some(d) = &r.outcome.cp.dissemination {
            println!(
                "         CP: reliability {:.2}%, radio duty cycle {:.1}%",
                d.mean_reliability() * 100.0,
                d.duty_cycle(SimDuration::from_secs(2)) * 100.0
            );
        }
    }
    if results.len() == 2 {
        let peak_red = smart_han::metrics::stats::reduction_percent(
            results[0].1.summary.peak,
            results[1].1.summary.peak,
        );
        let std_red = smart_han::metrics::stats::reduction_percent(
            results[0].1.summary.std_dev,
            results[1].1.summary.std_dev,
        );
        println!("\ncoordination: peak −{peak_red:.0}%, variation −{std_red:.0}%");
    }
    Ok(())
}

/// The `--feeder-trace` artifact: one CSV row per coordination iterate,
/// mirroring the `ConvergenceTrace` the report carries.
fn feeder_trace_csv(report: &FeederReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("iteration,feeder_peak_kw,change_norm_kw\n");
    for it in &report.trace.iterations {
        let _ = writeln!(
            out,
            "{},{:.6},{:.6}",
            it.iteration, it.feeder_peak_kw, it.change_norm_kw
        );
    }
    out
}

fn print_feeder_run(report: &FeederReport, billing: &Billing) {
    println!(
        "\nfeeder signal: {} ({:?} iteration)",
        report.signal, report.iteration
    );
    for it in &report.trace.iterations {
        println!(
            "  iteration {}: feeder peak {:.2} kW, change {:.4} kW",
            it.iteration, it.feeder_peak_kw, it.change_norm_kw
        );
    }
    println!(
        "  stopped: {:?} after {} iteration(s); committed iterate {} \
         (0 = signal-free baseline)",
        report.trace.stop,
        report.iterations(),
        report.selected_iteration,
    );
    println!(
        "  feeder peak: {:.2} kW uncoordinated | {:.2} kW independent | {:.2} kW with signal \
         ({:+.1}% vs independent)",
        report.baseline.feeder_uncoordinated.peak,
        report.baseline.feeder_coordinated.peak,
        report.feeder.peak,
        -report.feeder_peak_vs_independent_percent(),
    );
    println!(
        "  deadline misses under signal: {}",
        report.total_deadline_misses()
    );
    println!(
        "  feeder bill with signal: {}",
        cost_line(&report.feeder_cost(billing))
    );
}

fn run_neighborhood(args: &Args, scenario: &Scenario) -> Result<(), CliError> {
    if args.strategy != "compare" {
        return Err(CliError::Invalid {
            flag: "--strategy",
            value: args.strategy.into(),
            expected: "compare (neighborhood runs always compare)",
        });
    }
    reject_present(
        &[
            ("--stale-ttl", args.stale_ttl.is_some()),
            ("--checkpoint", args.checkpoint.is_some()),
            ("--restore", args.restore.is_some()),
        ],
        "with a neighborhood",
        "a single home (--homes 1, no --feeder)",
    )?;
    // Neighborhood observability covers the feeder coordination run —
    // per-home engines build their simulations internally. Without a
    // signal there is nothing for the sink (or the trace CSV) to record.
    if args.feeder.is_none() {
        reject_present(
            &[
                ("--metrics-out", args.metrics_out.is_some()),
                ("--trace", args.trace.is_some()),
                ("--flight", args.flight.is_some()),
                ("--feeder-trace", args.feeder_trace.is_some()),
            ],
            "with a neighborhood",
            "--feeder SIGNAL (neighborhood observability covers the coordination run)",
        )?;
    }
    let flags = &args.scenario;
    let mut hood = Neighborhood::uniform(
        format!("cli street x{}", args.homes),
        scenario,
        flags.cp(),
        args.homes,
    )?
    .on_engine(args.engine);
    if !flags.faults.is_empty() {
        // Every home suffers the same scripted timeline (homes fail
        // independently inside their own HANs).
        for home in &mut hood.homes {
            home.faults = flags.faults.clone();
        }
    }
    let report = hood.run()?;
    let feeder_run = match &args.feeder {
        Some(signal) => Some(hood.run_with(&FeederPolicy::new(signal.clone()))?),
        None => None,
    };

    if let Some(run) = &feeder_run {
        if let Some(sink) = obs_sink(args) {
            run.publish_obs(&Obs::new(sink.clone()));
            write_obs_outputs(args, &sink)?;
        }
        if let Some(path) = &args.feeder_trace {
            std::fs::write(path, feeder_trace_csv(run)).map_err(|error| CliError::Io {
                path: path.clone(),
                error,
            })?;
        }
    }

    if args.csv {
        let minutes: Vec<f64> = (0..report.feeder_samples_uncoordinated.len())
            .map(|m| m as f64)
            .collect();
        let mut series: Vec<(&str, &[f64])> = vec![
            ("uncoordinated", &report.feeder_samples_uncoordinated),
            ("coordinated", &report.feeder_samples_coordinated),
        ];
        if let Some(run) = &feeder_run {
            series.push(("with_signal", &run.feeder_samples));
        }
        print!("{}", series_csv("minute", &minutes, &series));
        return Ok(());
    }

    println!(
        "{}: {} homes x {} devices, {} min, seeds {}..{}",
        hood.name,
        args.homes,
        flags.devices,
        flags.minutes,
        flags.seed,
        flags.seed.wrapping_add(args.homes as u64 - 1),
    );
    let billing = Billing::typical_residential();
    println!(
        "\n{:<18} {:>9} {:>9} {:>8} {:>10} {:>10}",
        "home", "peak w/o", "peak w/", "misses", "bill w/o", "bill w/"
    );
    for (home, (_, costs)) in report.homes.iter().zip(report.home_costs(&billing)) {
        let c = &home.comparison;
        println!(
            "{:<18} {:>9.2} {:>9.2} {:>8} {:>10.2} {:>10.2}",
            home.name,
            c.uncoordinated.summary.peak,
            c.coordinated.summary.peak,
            c.coordinated.outcome.deadline_misses,
            costs.uncoordinated.total(),
            costs.coordinated.total(),
        );
    }
    let feeder_costs = report.feeder_costs(&billing);
    println!(
        "\nfeeder: peak {:.2} → {:.2} kW (−{:.1}%), coincidence {:.2} → {:.2}",
        report.feeder_uncoordinated.peak,
        report.feeder_coordinated.peak,
        report.feeder_peak_reduction_percent(),
        report.coincidence_factor_uncoordinated(),
        report.coincidence_factor_coordinated(),
    );
    println!(
        "feeder bill: {} → {}",
        cost_line(&feeder_costs.uncoordinated),
        cost_line(&feeder_costs.coordinated),
    );

    if let Some(run) = &feeder_run {
        print_feeder_run(run, &billing);
    }
    Ok(())
}

/// The serve-mode final report, printed when the window completes.
///
/// Deliberately *excludes* the engine event count: a daemon restored
/// from a snapshot does not replay already-executed rounds, so only
/// that counter may differ — everything printed here is byte-identical
/// between an uninterrupted run and a kill/restore one (the daemon
/// smoke test compares these lines verbatim).
fn serve_report(outcome: smart_han::core::SimulationOutcome, minutes: u64) -> String {
    let r = summarize_outcome(outcome, SimDuration::from_mins(minutes));
    format!(
        "serve report: rounds={} digest={:016x} delivered={} served={} misses={} \
         refused={} divergent={} peak_kw={:.3} energy_kwh={:.3}",
        r.outcome.rounds,
        r.outcome.schedule_digest,
        r.outcome.requests_delivered,
        r.outcome.windows_served,
        r.outcome.deadline_misses,
        r.outcome.refused_early_off,
        r.outcome.divergent_rounds,
        r.summary.peak,
        r.outcome.energy_kwh,
    )
}

fn run_serve(args: &Args) -> Result<(), CliError> {
    // Serve holds one simulation, and `prop_online` pins streamed ≡ batch
    // on the ideal and lossy planes only.
    if args.strategy == "compare" {
        return Err(CliError::Invalid {
            flag: "--strategy",
            value: "compare".into(),
            expected: "a single strategy (serve holds one simulation's state)",
        });
    }
    let unserved_cp = match args.scenario.cp {
        CpChoice::Ge {
            p_good_to_bad,
            p_bad_to_good,
        } => Some(format!("ge:{p_good_to_bad},{p_bad_to_good}")),
        CpChoice::Packet => Some("packet".into()),
        CpChoice::Ideal | CpChoice::Lossy(_) => None,
    };
    if let Some(value) = unserved_cp {
        return Err(CliError::Invalid {
            flag: "--cp",
            value,
            expected: "ideal|lossy:P (serve mode)",
        });
    }
    if args.listen.is_none() && args.replay.is_none() && args.restore.is_none() {
        return Err(CliError::Invalid {
            flag: "--listen",
            value: "absent".into(),
            expected: "--listen ADDR, --replay FILE or --restore PATH (serve needs a driver)",
        });
    }
    if args.checkpoint_every_min.is_some() && args.checkpoint.is_none() {
        return Err(CliError::Invalid {
            flag: "--checkpoint-every",
            value: "without --checkpoint".into(),
            expected: "--checkpoint PATH to name the snapshot file",
        });
    }
    // Simulated minutes → rounds: one round per period (2 s).
    let rounds_per_min = 60_000_000 / SimDuration::from_secs(2).as_micros();
    let checkpoint_every_rounds = args
        .checkpoint_every_min
        .map(|m| {
            m.checked_mul(rounds_per_min)
                .map(|rounds| rounds.max(1))
                .ok_or(CliError::Invalid {
                    flag: "--checkpoint-every",
                    value: m.to_string(),
                    expected: "a cadence whose round count fits in u64",
                })
        })
        .transpose()?;
    let scenario = args.scenario.scenario("serve")?;
    let sim = build_simulation(
        &scenario,
        strategy_by_name(args.strategy),
        args.scenario.cp(),
        args.engine,
        &args.scenario.faults,
        args.stale_ttl,
    )?;

    let mut driver = match &args.restore {
        Some(path) => OnlineDriver::load(sim, Path::new(path))?,
        None => OnlineDriver::new(sim),
    };
    // The daemon always carries a sink: METRICS and DUMP answer over the
    // socket, and a `--flight` path arms the fault-triggered auto-dump.
    driver.attach_observability(Arc::new(ObsSink::new(ObsConfig {
        flight_auto_dump: args.flight.as_ref().map(PathBuf::from),
        ..ObsConfig::default()
    })));

    let replay = match &args.replay {
        Some(path) => {
            let spec = std::fs::read_to_string(path).map_err(|error| CliError::Io {
                path: path.clone(),
                error,
            })?;
            smart_han::workload::telemetry::TelemetryEvent::parse_script(&spec)?
        }
        None => Vec::new(),
    };

    let options = ServeOptions {
        listen: args.listen.clone(),
        replay,
        checkpoint_path: args.checkpoint.as_ref().map(PathBuf::from),
        checkpoint_every_rounds,
        pace: if args.manual {
            Pace::Manual
        } else if let Some(us) = args.pace_us {
            Pace::Wall { us_per_round: us }
        } else {
            Pace::Free
        },
    };
    if let Some(addr) = &args.listen {
        eprintln!("hansim serve: listening on {addr}");
    }
    match serve(driver, &options)? {
        Some(outcome) => println!("{}", serve_report(outcome, args.scenario.minutes)),
        None => eprintln!("hansim serve: shut down mid-window (state in last checkpoint)"),
    }
    Ok(())
}

/// Builds the city spec a set of parsed flags describes. Shared by the
/// parent (`hansim city`) and the hidden worker (`hansim city-worker`):
/// both sides derive the spec through this one function, which is what
/// makes the handshake fingerprint a real equivalence check.
fn city_spec(args: &Args) -> Result<CitySpec, CliError> {
    let template = args.scenario.scenario("city")?;
    Ok(CitySpec::uniform(
        format!("cli city {}x{}", args.feeders, args.homes_per_feeder),
        &template,
        args.scenario.cp(),
        args.feeders,
        args.homes_per_feeder,
    )
    .with_seed(args.scenario.seed)
    .with_substation_fanin(args.substation_fanin)
    .with_faults(args.scenario.faults.clone()))
}

/// Spawns `hansim city-worker <index> <count> <city flags…>` children
/// of the current executable, stdout piped back as the worker stream.
/// The original argv tail is passed through verbatim so the worker
/// re-derives the spec from the same flags (fingerprint-checked).
fn process_launcher(
    city_argv: Vec<String>,
) -> impl FnMut(&mp::WorkerTask) -> Result<WorkerConnection, String> {
    move |task| {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = std::process::Command::new(exe)
            .arg("city-worker")
            .arg(task.worker.to_string())
            .arg(task.workers.to_string())
            .args(&city_argv)
            .stdin(std::process::Stdio::null())
            .stdout(std::process::Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn: {e}"))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        Ok(WorkerConnection::new(stdout).with_shutdown(move || {
            // Kill is a no-op on an already-exited child; wait reaps it
            // either way so no fleet run leaves zombies behind.
            let _ = child.kill();
            let _ = child.wait();
        }))
    }
}

/// Runs `hansim city`; `city_argv` is the flag tail `args` was parsed
/// from, passed through verbatim to worker processes.
fn run_city(args: &Args, city_argv: Vec<String>) -> Result<(), CliError> {
    let spec = city_spec(args)?;
    let report = match args.workers {
        None => City::new(spec)?.run()?,
        Some(workers) => {
            let options = MpOptions::new(workers)
                .with_deadline(std::time::Duration::from_millis(args.mp_deadline_ms))
                .with_restart(args.mp_restart);
            let mut launch = process_launcher(city_argv);
            let (report, _stats) = mp::run_city_mp(&spec, &options, &Obs::off(), &mut launch)?;
            report
        }
    };
    print_city_report(&report, args);
    Ok(())
}

/// The hidden worker half of `hansim city --workers N`: re-derives the
/// spec from the pass-through city flags and streams its feeder
/// partition to stdout as the `HANCITY1` protocol. Never invoked by
/// hand — absent from usage on purpose.
fn run_city_worker() -> Result<(), CliError> {
    let mut argv = std::env::args().skip(2);
    let parse_pos = |v: Option<String>, flag: &'static str| -> Result<usize, CliError> {
        let v = v.ok_or(CliError::MissingValue { flag })?;
        parse_num(&v, flag)
    };
    let worker = parse_pos(argv.next(), "city-worker <index>")?;
    let workers = parse_pos(argv.next(), "city-worker <count>")?;
    let args = parse_flags(Mode::City, argv)?;
    let spec = city_spec(&args)?;
    let stdout = std::io::stdout().lock();
    let mut out = SabotagedWriter::from_env(std::io::BufWriter::new(stdout), worker);
    mp::serve_worker(&spec, worker, workers, &mut out).map_err(|e| match e {
        mp::ServeError::Scenario(inner) => CliError::Scenario(inner),
        mp::ServeError::BadWorkerCount { workers, feeders } => {
            CliError::Worker(WorkerError::BadWorkerCount { workers, feeders })
        }
        mp::ServeError::Io(error) => CliError::Io {
            path: "<stdout>".into(),
            error,
        },
    })
}

/// A byte-counting stdout wrapper that lets the CLI test battery script
/// worker failures from the *outside*: `HANSIM_CITY_WORKER_CRASH=I`
/// hard-exits worker `I` a few bytes into its first record frame, and
/// `HANSIM_CITY_WORKER_STALL=I` makes worker `I` hold the pipe open in
/// silence after its handshake. The variant `I:once:PATH` crashes only
/// while the flag file at `PATH` is absent (creating it), so a
/// `--mp-restart` relaunch succeeds. Sabotage exists only on this
/// hidden subcommand's write path — the protocol itself has no test
/// hooks.
struct SabotagedWriter<W: Write> {
    inner: W,
    written: usize,
    crash_at: Option<usize>,
    stall_at: Option<usize>,
}

impl<W: Write> SabotagedWriter<W> {
    fn from_env(inner: W, worker: usize) -> Self {
        let armed = |var: &str, at: usize| -> Option<usize> {
            let spec = std::env::var(var).ok()?;
            let mut parts = spec.splitn(3, ':');
            let index: usize = parts.next()?.parse().ok()?;
            if index != worker {
                return None;
            }
            if let (Some("once"), Some(flag)) = (parts.next(), parts.next()) {
                if std::path::Path::new(flag).exists() {
                    return None;
                }
                let _ = std::fs::write(flag, b"spent");
            }
            Some(at)
        };
        SabotagedWriter {
            inner,
            written: 0,
            crash_at: armed("HANSIM_CITY_WORKER_CRASH", mp::HANDSHAKE_LEN + 10),
            stall_at: armed("HANSIM_CITY_WORKER_STALL", mp::HANDSHAKE_LEN),
        }
    }
}

impl<W: Write> Write for SabotagedWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.written += n;
        if self.crash_at.is_some_and(|at| self.written >= at) {
            let _ = self.inner.flush();
            std::process::exit(17);
        }
        if self.stall_at.is_some_and(|at| self.written >= at) {
            let _ = self.inner.flush();
            std::thread::sleep(std::time::Duration::from_secs(3600));
        }
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Prints the reduced city report — CSV series or the pretty tables.
/// A pure function of `(report, parsed flags)`: nothing here depends on
/// how the report was computed, which is exactly why `--workers N` and
/// the in-process default print identical bytes (pinned by
/// tests/cli_city_mp.rs).
fn print_city_report(report: &CityReport, args: &Args) {
    if args.csv {
        let minutes: Vec<f64> = (0..report.samples_uncoordinated.len())
            .map(|m| m as f64)
            .collect();
        print!(
            "{}",
            series_csv(
                "minute",
                &minutes,
                &[
                    ("uncoordinated", &report.samples_uncoordinated),
                    ("coordinated", &report.samples_coordinated),
                ],
            )
        );
        return;
    }

    println!(
        "{}: {} feeders x {} homes x {} devices = {} devices, {} min, seed {}",
        report.name,
        report.feeders.len(),
        args.homes_per_feeder,
        args.scenario.devices,
        report.devices,
        args.scenario.minutes,
        args.scenario.seed,
    );
    println!(
        "\n{:<8} {:>6} {:>9} {:>9} {:>8} {:>12}",
        "feeder", "homes", "peak w/o", "peak w/", "misses", "coincidence"
    );
    for f in &report.feeders {
        let unco = Summary::of(&f.samples_uncoordinated);
        let coord = Summary::of(&f.samples_coordinated);
        let coincidence = if f.sum_home_peaks_coordinated == 0.0 {
            1.0
        } else {
            coord.peak / f.sum_home_peaks_coordinated
        };
        println!(
            "f{:<7} {:>6} {:>9.2} {:>9.2} {:>8} {:>12.2}",
            f.feeder, f.homes, unco.peak, coord.peak, f.deadline_misses, coincidence,
        );
    }
    println!(
        "\n{:<8} {:>8} {:>9} {:>9} {:>12}",
        "subst.", "feeders", "peak w/o", "peak w/", "coincidence"
    );
    for s in &report.substations {
        println!(
            "s{:<7} {:>8} {:>9.2} {:>9.2} {:>12.2}",
            s.substation,
            s.feeders,
            s.uncoordinated.peak,
            s.coordinated.peak,
            s.coincidence_coordinated,
        );
    }
    let billing = Billing::typical_residential();
    let costs = report.costs(&billing);
    println!(
        "\ncity: peak {:.2} → {:.2} kW (−{:.1}%), coincidence {:.2} → {:.2}",
        report.uncoordinated.peak,
        report.coordinated.peak,
        report.peak_reduction_percent(),
        report.coincidence_factor_uncoordinated(),
        report.coincidence_factor_coordinated(),
    );
    println!(
        "city totals: rounds {} | misses {} | served {} | divergent {} | energy {:.1} kWh",
        report.rounds,
        report.deadline_misses,
        report.windows_served,
        report.divergent_rounds,
        report.energy_coordinated_kwh,
    );
    println!(
        "city bill: {} → {} (save {:.1}%)",
        cost_line(&costs.uncoordinated),
        cost_line(&costs.coordinated),
        costs.savings_percent(),
    );
}

fn main() -> ExitCode {
    let mode = match std::env::args().nth(1).as_deref() {
        Some("serve") => Mode::Serve,
        Some("city") => Mode::City,
        // The hidden worker half of `city --workers N`. Failures go to
        // stderr with a bare exit — the parent's typed error is the
        // user-facing diagnostic, not this.
        Some("city-worker") => {
            return match run_city_worker() {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("city-worker: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        _ => Mode::Batch,
    };
    let skip = if mode == Mode::Batch { 1 } else { 2 };
    let argv: Vec<String> = std::env::args().skip(skip).collect();
    let outcome = parse_flags(mode, argv.iter().cloned()).and_then(|args| match mode {
        Mode::Batch => {
            let scenario = args.scenario.scenario("cli")?;
            if args.homes > 1 || args.feeder.is_some() {
                run_neighborhood(&args, &scenario)
            } else {
                run_single_home(&args, &scenario)
            }
        }
        Mode::Serve => run_serve(&args),
        Mode::City => run_city(&args, argv),
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(&e),
    }
}

fn fail(error: &CliError) -> ExitCode {
    if !matches!(error, CliError::Usage) {
        eprintln!("error: {error}\n");
    }
    eprintln!(
        "usage: hansim [scenario flags] [--strategy coordinated|uncoordinated|centralized|compare] \
         [--engine round|event] [--stale-ttl N] [--checkpoint PATH] [--restore PATH] \
         [--flight FILE] [--homes N] [--feeder cap:KW|tou|congestion[:U]] [--csv] \
         [--metrics-out FILE] [--trace FILE] [--feeder-trace FILE]\n       \
         hansim serve [scenario flags] [--strategy coordinated|uncoordinated|centralized] [--engine round|event] [--stale-ttl N] \
         [--checkpoint PATH] [--restore PATH] [--flight FILE] [--listen ADDR] [--replay FILE] \
         [--checkpoint-every MIN] [--pace-us N] [--manual]\n       \
         hansim city [scenario flags] [--feeders N] [--homes-per-feeder M] \
         [--substation-fanin N] [--workers N] [--mp-restart] [--mp-deadline-ms N] [--csv]\n\
         scenario flags (every mode): [--rate low|moderate|high|N] [--workload poisson|daily] \
         [--cp ideal|lossy:P|ge:PGB,PBG|packet] [--minutes N] [--devices N] [--faults SPEC] \
         [--seed N]"
    );
    ExitCode::FAILURE
}
