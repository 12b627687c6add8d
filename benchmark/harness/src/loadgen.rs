//! The open-loop client for `hansim serve`.
//!
//! One connection and one thread that does not sleep while the script
//! runs: it sends every request at its due time whether or not earlier
//! replies have come back (open loop), and between sends polls the
//! socket without blocking, timestamping each reply line as it lands.
//! Spinning costs one core, but keeps the client's own timing clear of
//! the host's wake-up latency, which on a busy virtual machine reaches
//! several milliseconds. The protocol answers in order, so reply `k`
//! belongs to request `k`.
//!
//! Every request is timed from when it was *due*, so a stall in the
//! daemon also counts against the requests queued behind it; the
//! client's own lateness (send time minus due time) is reported beside
//! it, so a late client is not mistaken for a slow daemon.
//!
//! After the script, the client prints its figures and waits on stdin:
//! `metrics` sends `METRICS` and prints the exposition, `shutdown`
//! sends `SHUTDOWN` and exits.

use crate::json::Obj;
use crate::serve::{read_script, reply_fingerprint};
use crate::Args;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// How long to wait for outstanding replies after the last send.
const DRAIN: Duration = Duration::from_secs(10);
/// How long a follow-up command may wait for each reply line.
const FOLLOW_UP: Duration = Duration::from_secs(10);

/// Reply lines off a non-blocking socket, each stamped with the
/// instant its last byte was read.
struct Lines {
    stream: TcpStream,
    buf: Vec<u8>,
    ready: VecDeque<(Instant, String)>,
    closed: bool,
}

impl Lines {
    /// Reads whatever has arrived, queueing every completed line.
    fn poll(&mut self) -> std::io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.closed = true;
                    return Ok(());
                }
                Ok(n) => {
                    let at = Instant::now();
                    self.buf.extend_from_slice(&chunk[..n]);
                    while let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                        let line: Vec<u8> = self.buf.drain(..=pos).collect();
                        let line = String::from_utf8_lossy(&line).trim_end().to_string();
                        self.ready.push_back((at, line));
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) => return Err(e),
            }
        }
    }

    /// The next line, polling for at most [`FOLLOW_UP`].
    fn wait(&mut self) -> Result<String, String> {
        let deadline = Instant::now() + FOLLOW_UP;
        loop {
            self.poll().map_err(|e| e.to_string())?;
            if let Some((_, line)) = self.ready.pop_front() {
                return Ok(line);
            }
            if self.closed {
                return Err("the daemon closed the connection".into());
            }
            if Instant::now() > deadline {
                return Err("no reply in time".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// The next reply: a line, plus the payload lines a counted header
    /// (`OK metrics lines=N`) announces.
    fn reply(&mut self) -> Result<String, String> {
        let mut reply = self.wait()?;
        let count = if reply.starts_with("OK metrics") {
            reply
                .split_whitespace()
                .find_map(|tok| tok.strip_prefix("lines="))
                .and_then(|n| n.parse::<usize>().ok())
                .unwrap_or(0)
        } else {
            0
        };
        for _ in 0..count {
            reply.push('\n');
            reply.push_str(&self.wait()?);
        }
        Ok(reply)
    }
}

/// Writes one request line on the non-blocking socket, spinning while
/// its send buffer is full.
fn send(stream: &mut TcpStream, line: &str, deadline: Instant) -> std::io::Result<()> {
    let bytes = format!("{line}\n");
    let mut rest = bytes.as_bytes();
    while !rest.is_empty() {
        match stream.write(rest) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => rest = &rest[n..],
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if Instant::now() > deadline {
                    return Err(ErrorKind::TimedOut.into());
                }
                std::hint::spin_loop();
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// `loadgen --addr HOST:PORT --script FILE`.
pub fn run(args: &Args) -> Result<String, String> {
    let script = read_script(args.str("script")?)?;
    let addr = args.str("addr")?;
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream.set_nonblocking(true).map_err(|e| e.to_string())?;
    let mut lines = Lines {
        stream: stream.try_clone().map_err(|e| e.to_string())?,
        buf: Vec::new(),
        ready: VecDeque::new(),
        closed: false,
    };

    let expected = script.len();
    let start = Instant::now() + Duration::from_millis(20);
    let due = |i: usize| start + Duration::from_micros(script[i].due_us);
    let deadline = due(expected.saturating_sub(1)) + DRAIN;
    let mut sent: Vec<Instant> = Vec::with_capacity(expected);
    let mut replies: Vec<(Instant, String)> = Vec::with_capacity(expected);
    let mut dropped = false;
    while replies.len() < expected {
        let now = Instant::now();
        if sent.len() < expected && due(sent.len()) <= now {
            sent.push(now);
            if send(&mut stream, &script[sent.len() - 1].line, deadline).is_err() {
                dropped = true;
                break;
            }
            continue;
        }
        if lines.poll().is_err() {
            dropped = true;
            break;
        }
        replies.extend(lines.ready.drain(..));
        if lines.closed {
            dropped = true;
            break;
        }
        if now > deadline {
            break;
        }
        std::hint::spin_loop();
    }

    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let lateness: Vec<f64> = sent
        .iter()
        .enumerate()
        .map(|(i, s)| ms(s.saturating_duration_since(due(i))))
        .collect();
    let latency: Vec<f64> = replies
        .iter()
        .enumerate()
        .map(|(i, (at, _))| ms(at.saturating_duration_since(due(i))))
        .collect();
    let socket: Vec<f64> = replies
        .iter()
        .zip(&sent)
        .map(|((at, _), s)| ms(at.saturating_duration_since(*s)))
        .collect();
    let first_error = replies
        .iter()
        .find(|(_, r)| r.starts_with("ERR"))
        .map_or("", |(_, r)| r.as_str());
    let summary = Obj::new()
        .int("requests", expected as u64)
        .int("sent", sent.len() as u64)
        .int("received", replies.len() as u64)
        .int(
            "outstanding",
            (sent.len() - replies.len().min(sent.len())) as u64,
        )
        .bool("dropped", dropped)
        .int(
            "errors",
            replies.iter().filter(|(_, r)| r.starts_with("ERR")).count() as u64,
        )
        .str("first_error", first_error)
        .str(
            "final_reply",
            replies.last().map_or("", |(_, r)| r.as_str()),
        )
        .strs(
            "fingerprints",
            &replies
                .iter()
                .map(|(_, r)| format!("{:016x}", reply_fingerprint(r)))
                .collect::<Vec<_>>(),
        )
        .nums("latency_ms", &latency)
        .nums("socket_ms", &socket)
        .nums("lateness_ms", &lateness)
        .num(
            "span_s",
            ms(Instant::now().saturating_duration_since(start)) / 1e3,
        );
    println!("{}", summary.finish());
    std::io::stdout().flush().map_err(|e| e.to_string())?;

    // Follow-up commands from the caller, after it has read the
    // daemon's own figures.
    let mut command = String::new();
    while std::io::stdin()
        .read_line(&mut command)
        .map_err(|e| e.to_string())?
        > 0
    {
        let verb = match command.trim() {
            "metrics" => "METRICS",
            "shutdown" => "SHUTDOWN",
            other => return Err(format!("unknown follow-up command '{other}'")),
        };
        command.clear();
        send(&mut stream, verb, Instant::now() + FOLLOW_UP).map_err(|e| e.to_string())?;
        let reply = lines.reply()?;
        if verb == "SHUTDOWN" {
            return Ok(Obj::new().str("shutdown", &reply).finish());
        }
        println!("{}", Obj::new().str("metrics", &reply).finish());
        std::io::stdout().flush().map_err(|e| e.to_string())?;
    }
    Ok(Obj::new().finish())
}
