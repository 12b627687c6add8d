//! The service loop: a single-threaded daemon around [`OnlineDriver`].
//!
//! [`serve`] advances simulated time against the chosen [`Pace`],
//! auto-checkpoints on a simulated-time cadence, and speaks the
//! [protocol](super::protocol) over one `std::net::TcpListener` — no
//! threads, no external dependencies. One client is served at a time
//! (the protocol is request/reply, so a queued second client simply
//! waits); commands interleave with round execution at round
//! granularity, which is exactly the granularity at which injected
//! telemetry can take effect anyway.
//!
//! In replay mode (no listener) the whole telemetry script is ingested
//! up front and the window runs to completion — byte-identical to a
//! socket session that injected the same events before advancing, and
//! to a batch run whose trace carried them from round zero.

use super::driver::OnlineDriver;
use super::ingest::OnlineError;
use super::protocol::{advance_reply, execute, Command, Response};
use crate::simulation::SimulationOutcome;
use han_workload::telemetry::TelemetryEvent;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// How simulated time advances relative to the daemon's wall clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pace {
    /// Run rounds as fast as the host allows, a chunk per loop
    /// iteration (commands still interleave between chunks).
    Free,
    /// Advance only on explicit `ADVANCE` commands — fully
    /// deterministic, the mode the daemon smoke test drives.
    Manual,
    /// One simulated round per `us_per_round` wall microseconds
    /// (`2_000_000` = real time for the paper's 2 s rounds).
    Wall {
        /// Wall microseconds per simulated round.
        us_per_round: u64,
    },
}

/// Everything [`serve`] needs besides the driver.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Socket address to listen on (`None` = replay mode, no socket).
    pub listen: Option<String>,
    /// Telemetry ingested before the loop starts (the `--replay` file).
    pub replay: Vec<TelemetryEvent>,
    /// Where auto- and `CHECKPOINT`-less snapshots go (`None` disables
    /// auto-checkpointing).
    pub checkpoint_path: Option<PathBuf>,
    /// Auto-checkpoint cadence in simulated rounds (`None` disables).
    pub checkpoint_every_rounds: Option<u64>,
    /// How simulated time advances.
    pub pace: Pace,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            listen: None,
            replay: Vec::new(),
            checkpoint_path: None,
            checkpoint_every_rounds: None,
            pace: Pace::Free,
        }
    }
}

/// Rounds advanced per loop iteration under [`Pace::Free`] — small
/// enough that a client command never waits noticeably, large enough
/// that the loop is not dominated by bookkeeping.
const FREE_CHUNK: u64 = 64;

/// Idle sleep between loop iterations when there is nothing to do.
const IDLE_SLEEP: Duration = Duration::from_millis(2);

/// Longest line a client may send, newline excluded. Far above any real
/// command (an `INJECT` of a thousand events is a few tens of kilobytes)
/// but bounded, so a client streaming bytes with no newline gets an
/// `ERR` and is dropped instead of growing the daemon's memory.
const MAX_LINE_BYTES: usize = 64 * 1024;

/// One connected client: the stream plus its partial-line buffer.
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// Advances the driver to `target`, pausing at every auto-checkpoint
/// boundary to snapshot — so the file on disk always captures an exact
/// cadence multiple, and a kill at any point restores to the last one.
fn advance_checkpointed(
    driver: &mut OnlineDriver,
    target: u64,
    opts: &ServeOptions,
    last_auto: &mut u64,
) -> Result<(), OnlineError> {
    let target = target.min(driver.total_rounds());
    if let (Some(path), Some(every)) = (&opts.checkpoint_path, opts.checkpoint_every_rounds) {
        let every = every.max(1);
        while driver.next_round() < target {
            let boundary = (*last_auto + every).min(target);
            driver.advance_to(boundary);
            if driver.next_round() >= *last_auto + every {
                *last_auto = driver.next_round();
                driver.save(path)?;
            }
        }
    } else {
        driver.advance_to(target);
    }
    Ok(())
}

/// Handles one protocol line inside the service loop. Identical to
/// [`respond`](super::protocol::respond) except that `ADVANCE` routes
/// through [`advance_checkpointed`] — manual pacing must honor the
/// auto-checkpoint cadence too, or a killed manually-paced daemon would
/// have nothing to restore from.
fn handle_line(
    driver: &mut OnlineDriver,
    line: &str,
    opts: &ServeOptions,
    last_auto: &mut u64,
) -> Response {
    let result = Command::parse(line).and_then(|cmd| match cmd {
        Command::Advance(rounds) => {
            let target = driver.next_round().saturating_add(rounds);
            advance_checkpointed(driver, target, opts, last_auto)?;
            Ok(advance_reply(driver))
        }
        other => execute(driver, other),
    });
    match result {
        Ok(response) => response,
        Err(e) => Response {
            line: format!("ERR {e}"),
            shutdown: false,
        },
    }
}

/// Runs the service loop to completion (replay mode) or until a client
/// sends `SHUTDOWN` (socket mode). Returns the closed outcome when the
/// simulated window finished, `None` when the daemon was shut down
/// mid-window (state lives on in the last checkpoint).
///
/// # Errors
///
/// [`OnlineError`] from replay ingest, socket setup, or checkpoint I/O.
/// Protocol-level errors never surface here — they become `ERR` replies
/// and the loop continues.
pub fn serve(
    mut driver: OnlineDriver,
    opts: &ServeOptions,
) -> Result<Option<SimulationOutcome>, OnlineError> {
    for event in &opts.replay {
        driver.ingest(*event)?;
    }
    let mut last_auto = driver.next_round();

    let Some(addr) = &opts.listen else {
        // Replay mode: no socket, run the window out.
        let total = driver.total_rounds();
        advance_checkpointed(&mut driver, total, opts, &mut last_auto)?;
        return Ok(Some(driver.into_outcome()));
    };

    let listener = TcpListener::bind(addr.as_str()).map_err(|error| OnlineError::Io {
        path: addr.clone(),
        error: error.to_string(),
    })?;
    listener
        .set_nonblocking(true)
        .map_err(|error| OnlineError::Io {
            path: addr.clone(),
            error: error.to_string(),
        })?;

    let started = Instant::now();
    let mut client: Option<Client> = None;
    let mut shutdown = false;

    while !shutdown {
        // 1. Advance simulated time per the pace policy.
        let before = driver.next_round();
        match opts.pace {
            Pace::Manual => {}
            Pace::Free => {
                advance_checkpointed(&mut driver, before + FREE_CHUNK, opts, &mut last_auto)?;
            }
            Pace::Wall { us_per_round } => {
                let due = (started.elapsed().as_micros() as u64) / us_per_round.max(1);
                advance_checkpointed(&mut driver, due, opts, &mut last_auto)?;
            }
        }
        let advanced = driver.next_round() != before;

        // 2. Accept one client if none is connected.
        if client.is_none() {
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_ok() {
                        client = Some(Client {
                            stream,
                            buf: Vec::new(),
                        });
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(_) => {}
            }
        }

        // 3. Drain whatever the client has sent, line by line.
        let mut served = false;
        if let Some(c) = &mut client {
            let mut chunk = [0u8; 4096];
            let mut drop_client = false;
            loop {
                match c.stream.read(&mut chunk) {
                    Ok(0) => {
                        drop_client = true;
                        break;
                    }
                    Ok(n) => {
                        c.buf.extend_from_slice(&chunk[..n]);
                        if c.buf.len() > MAX_LINE_BYTES {
                            // Serve what is complete before reading on.
                            break;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(_) => {
                        drop_client = true;
                        break;
                    }
                }
            }
            while let Some(pos) = c.buf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = c.buf.drain(..=pos).collect();
                let line = String::from_utf8_lossy(&line);
                let response = handle_line(&mut driver, &line, opts, &mut last_auto);
                served = true;
                if c.stream
                    .write_all(format!("{}\n", response.line).as_bytes())
                    .is_err()
                {
                    drop_client = true;
                }
                if response.shutdown {
                    shutdown = true;
                    break;
                }
            }
            if !shutdown && c.buf.len() > MAX_LINE_BYTES {
                let _ = c
                    .stream
                    .write_all(format!("ERR line exceeds {MAX_LINE_BYTES} bytes\n").as_bytes());
                drop_client = true;
            }
            if drop_client {
                client = None;
            }
        }

        // 4. Nothing moved and nobody talked: sleep instead of spinning.
        if !advanced && !served && !shutdown {
            std::thread::sleep(IDLE_SLEEP);
        }
    }

    if driver.finished() {
        Ok(Some(driver.into_outcome()))
    } else {
        Ok(None)
    }
}
