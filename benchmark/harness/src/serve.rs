//! The `serve-lossy` daemon's configuration and the in-process replay
//! of a request script through `online::protocol::respond`.
//!
//! A script is one request per line, `<due µs>\t<request>`; the due
//! time is the wall offset at which the open-loop client sends it.

use crate::json::{fold, hash_str, median, process_cpu_s, Obj};
use crate::observer::BenchObserver;
use crate::Args;
use han_core::experiment::{build_simulation, summarize_outcome};
use han_core::fault::FaultPlan;
use han_core::online::protocol::respond;
use han_core::online::OnlineDriver;
use han_core::simulation::HanSimulation;
use han_core::{CpModel, EngineKind, Strategy};
use han_metrics::stats::reduction_percent;
use han_obs::{Obs, ObsConfig, ObsSink};
use han_sim::time::SimDuration;
use han_workload::fleet::DeviceClass;
use han_workload::scenario::{Scenario, Workload};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Simulated window of the daemon (`hansim serve` default).
pub const SERVE_MINUTES: u64 = 350;
/// Devices in the daemon's home (`hansim serve` default).
pub const SERVE_DEVICES: usize = 26;
/// Whole-round miss probability of the daemon's CP (`--cp lossy:0.3`).
pub const SERVE_LOSS: f64 = 0.3;

/// One scripted request.
pub struct Request {
    pub due_us: u64,
    pub line: String,
}

pub fn read_script(path: &str) -> Result<Vec<Request>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let (due, line) = l
                .split_once('\t')
                .ok_or_else(|| format!("script line without a due time: '{l}'"))?;
            Ok(Request {
                due_us: due
                    .parse()
                    .map_err(|_| format!("bad due time in script line '{l}'"))?,
                line: line.to_string(),
            })
        })
        .collect()
}

/// The simulation `hansim serve --manual --cp lossy:0.3 --rate 0
/// --seed <seed>` builds, for the given strategy.
pub fn serve_simulation(seed: u64, strategy: Strategy) -> Result<HanSimulation, String> {
    let scenario = Scenario::builder("serve 0/h")
        .class(DeviceClass::paper(SERVE_DEVICES))
        .workload(Workload::Poisson { rate_per_hour: 0.0 })
        .duration(SimDuration::from_mins(SERVE_MINUTES))
        .seed(seed)
        .build()
        .map_err(|e| e.to_string())?;
    build_simulation(
        &scenario,
        strategy,
        CpModel::LossyRound {
            miss_probability: SERVE_LOSS,
        },
        EngineKind::Round,
        &FaultPlan::empty(),
        None,
    )
    .map_err(|e| e.to_string())
}

/// A service exactly as the daemon holds it: the simulation plus an
/// attached observability sink.
pub fn daemon_like(seed: u64, strategy: Strategy) -> Result<OnlineDriver, String> {
    let mut driver = OnlineDriver::new(serve_simulation(seed, strategy)?);
    driver.attach_observability(Arc::new(ObsSink::new(ObsConfig::default())));
    Ok(driver)
}

/// A reply with its `checkpoint=<path>` token removed, so replies of
/// runs writing to different files compare equal.
pub fn reply_fingerprint(reply: &str) -> u64 {
    let normalised: Vec<&str> = reply
        .split(' ')
        .filter(|tok| !tok.starts_with("checkpoint="))
        .collect();
    hash_str(&normalised.join(" "))
}

/// The `digest=` field of a `STATUS` reply.
pub fn status_digest(reply: &str) -> Option<String> {
    reply
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix("digest="))
        .map(str::to_string)
}

/// Rewrites a `CHECKPOINT <path>` request to write into `dir` instead.
fn redirect(line: &str, dir: &str) -> String {
    match line.split_once(' ') {
        Some((verb, path)) if verb.eq_ignore_ascii_case("CHECKPOINT") => {
            let name = Path::new(path.trim()).file_name().map_or_else(
                || "replay.ckpt".into(),
                |n| n.to_string_lossy().into_owned(),
            );
            format!("CHECKPOINT {dir}/replay-{name}")
        }
        _ => line.to_string(),
    }
}

struct Played {
    replies: Vec<String>,
    handler_us: Vec<f64>,
    wall_s: f64,
    cpu_s: f64,
}

fn play(driver: &mut OnlineDriver, script: &[Request], dir: &str) -> Played {
    let mut replies = Vec::with_capacity(script.len());
    let mut handler_us = Vec::with_capacity(script.len());
    let cpu0 = process_cpu_s();
    let start = Instant::now();
    for request in script {
        let line = redirect(&request.line, dir);
        let t = Instant::now();
        let response = respond(driver, &line);
        handler_us.push(t.elapsed().as_secs_f64() * 1e6);
        replies.push(response.line);
    }
    Played {
        replies,
        handler_us,
        wall_s: start.elapsed().as_secs_f64(),
        cpu_s: process_cpu_s() - cpu0,
    }
}

/// Times `f` `reps` times and returns the median in milliseconds.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// `replay`: plays `--script` in process, as the daemon would, and
/// reports every reply's fingerprint, the handler time of every
/// request, and the final `STATUS` digest.
///
/// * `--restore <file>`: restore that `HANSRV01` snapshot (the
///   daemon's last `CHECKPOINT`) and report the restored digest.
/// * `--traced`: also replay with an observer collecting round-phase
///   spans and counters, alternating with plain replays, and time the
///   snapshot codec.
///
/// Finally the window runs to its end under both strategies (the
/// uncoordinated one fed the same script), for the deadline check and
/// the paper's statistics.
pub fn replay(args: &Args) -> Result<String, String> {
    let seed: u64 = args.num("seed")?;
    let script = read_script(args.str("script")?)?;
    let dir = args.str("work")?.to_string();
    let traced = args.flag("traced");

    let mut driver = daemon_like(seed, Strategy::coordinated())?;
    let played = play(&mut driver, &script, &dir);
    let final_reply = played.replies.last().cloned().unwrap_or_default();
    let errors = played
        .replies
        .iter()
        .filter(|r| r.starts_with("ERR"))
        .count();
    let mut out = Obj::new()
        .int("requests", script.len() as u64)
        .int("errors", errors as u64)
        .str(
            "first_error",
            played
                .replies
                .iter()
                .find(|r| r.starts_with("ERR"))
                .map_or("", String::as_str),
        )
        .str("final_reply", &final_reply)
        .str("digest", &status_digest(&final_reply).unwrap_or_default())
        .strs(
            "fingerprints",
            &played
                .replies
                .iter()
                .map(|r| format!("{:016x}", reply_fingerprint(r)))
                .collect::<Vec<_>>(),
        )
        .nums("handler_us", &played.handler_us)
        .num("wall_s", played.wall_s)
        .num("cpu_s", played.cpu_s);

    if let Ok(path) = args.str("restore") {
        let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
        let restored =
            OnlineDriver::restore(serve_simulation(seed, Strategy::coordinated())?, &bytes)
                .map_err(|e| format!("restore {path}: {e}"))?;
        out = out
            .str(
                "restored_digest",
                &format!("{:016x}", restored.status().digest),
            )
            .bool("snapshot_equal", restored.snapshot() == driver.snapshot());
    }

    if traced {
        // Codec timings on the final service state.
        let snapshot = driver.snapshot();
        let encode_ms = median_ms(15, || {
            std::hint::black_box(driver.snapshot());
        });
        let mut restore_error = None;
        let restore_ms = median_ms(15, || {
            match serve_simulation(seed, Strategy::coordinated())
                .and_then(|sim| OnlineDriver::restore(sim, &snapshot).map_err(|e| e.to_string()))
            {
                Ok(d) => {
                    std::hint::black_box(d);
                }
                Err(e) => restore_error = Some(e),
            }
        });
        if let Some(e) = restore_error {
            return Err(format!("snapshot restore: {e}"));
        }
        // Unobserved against span-observed replays, alternated.
        let mut plain = Vec::new();
        let mut observed = Vec::new();
        let mut observer = Arc::new(BenchObserver::new(true));
        for i in 0..10 {
            let mut sim = serve_simulation(seed, Strategy::coordinated())?;
            if i % 2 == 1 {
                observer = Arc::new(BenchObserver::new(true));
                sim.set_observer(Obs::new(observer.clone()));
            }
            let wall_s = play(&mut OnlineDriver::new(sim), &script, &dir).wall_s;
            if i % 2 == 1 {
                observed.push(wall_s);
            } else {
                plain.push(wall_s);
            }
        }
        out = out
            .int("wire.srv.bytes", snapshot.len() as u64)
            .num("wire.srv.encode_ms", encode_ms)
            .num("wire.srv.restore_ms", restore_ms)
            .num(
                "trace.overhead_pct",
                (median(&observed) / median(&plain) - 1.0) * 100.0,
            )
            .obj("home", observer.home_metrics());
    }

    {
        let mut unco = daemon_like(seed, Strategy::Uncoordinated)?;
        let unco_played = play(&mut unco, &script, &dir);
        let unco_errors = unco_played
            .replies
            .iter()
            .filter(|r| r.starts_with("ERR"))
            .count();
        respond(&mut driver, "ADVANCE end");
        respond(&mut unco, "ADVANCE end");
        let window = SimDuration::from_mins(SERVE_MINUTES);
        let coord = summarize_outcome(driver.into_outcome(), window);
        let unco = summarize_outcome(unco.into_outcome(), window);
        let mut digest = fold(0, coord.outcome.schedule_digest);
        for s in unco.samples.iter().chain(&coord.samples) {
            digest = fold(digest, s.to_bits());
        }
        out = out
            .int("uncoordinated_errors", unco_errors as u64)
            .str("window_digest", &format!("{digest:016x}"))
            .int(
                "misses",
                u64::from(coord.outcome.deadline_misses + unco.outcome.deadline_misses),
            )
            .int(
                "windows",
                u64::from(coord.outcome.windows_served + coord.outcome.deadline_misses),
            )
            .num(
                "peak_reduction_pct",
                reduction_percent(unco.summary.peak, coord.summary.peak),
            )
            .num(
                "variation_reduction_pct",
                reduction_percent(unco.summary.std_dev, coord.summary.std_dev),
            );
    }
    Ok(out.finish())
}
