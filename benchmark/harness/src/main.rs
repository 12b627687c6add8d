//! Benchmark harness for the smart-HAN workspace.
//!
//! `benchmark/run.py` drives this binary. Each subcommand does one job
//! in its own process and prints one JSON object as the last line of
//! its standard output:
//!
//! | subcommand | job |
//! |---|---|
//! | `setup`   | times repeated builds of a workload's inputs and program state |
//! | `batch`   | runs `home-packet` or `city-ideal` repeatedly for `--seconds` |
//! | `replay`  | replays a daemon request script in process through `protocol::respond` |
//! | `probe`   | times each layer's public functions (per-layer metrics) |
//! | `loadgen` | open-loop client that plays a request script against `hansim serve` |
//! | `speed`   | the host's speed calibration (see `speed.rs`) |
//!
//! Nothing here instruments the program: every figure is either a time
//! taken around a public call, or a counter or span the program already
//! publishes through `han_obs`.

mod json;
mod layers;
mod loadgen;
mod observer;
mod serve;
mod speed;
mod workloads;

use std::collections::HashMap;
use std::process::ExitCode;

/// `--key value` options and bare `--flag`s after the subcommand.
pub struct Args {
    values: HashMap<String, String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut values = HashMap::new();
        let mut it = raw.iter().peekable();
        while let Some(key) = it.next() {
            let key = key
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --option, got '{key}'"))?;
            let value = match it.peek() {
                Some(v) if !v.starts_with("--") => it.next().cloned().unwrap_or_default(),
                _ => String::from("1"),
            };
            values.insert(key.to_string(), value);
        }
        Ok(Args { values })
    }

    /// A required string option.
    pub fn str(&self, key: &str) -> Result<&str, String> {
        self.values
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{key}"))
    }

    /// A required numeric option.
    pub fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        let raw = self.str(key)?;
        raw.parse()
            .map_err(|_| format!("--{key}: cannot parse '{raw}'"))
    }

    /// A numeric option with a default.
    pub fn num_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        if self.values.contains_key(key) {
            self.num(key)
        } else {
            Ok(default)
        }
    }

    /// Whether a bare flag was given.
    pub fn flag(&self, key: &str) -> bool {
        self.values.contains_key(key)
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = raw.split_first() else {
        eprintln!("usage: han-perfbench <setup|batch|replay|probe|loadgen|speed> [--option value]...");
        return ExitCode::from(2);
    };
    let result = Args::parse(rest).and_then(|args| match command.as_str() {
        "setup" => workloads::setup(&args),
        "batch" => workloads::batch(&args),
        "replay" => serve::replay(&args),
        "probe" => layers::probe(&args),
        "loadgen" => loadgen::run(&args),
        "speed" => speed::speed(&args),
        other => Err(format!("unknown subcommand '{other}'")),
    });
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("han-perfbench {command}: {e}");
            ExitCode::FAILURE
        }
    }
}
