//! A minimal JSON object writer (the harness has no serde), and the
//! small numeric helpers the reports share.

use std::fmt::Write as _;

/// Builds one flat-or-nested JSON object, key by key.
#[derive(Default)]
pub struct Obj {
    body: String,
}

impl Obj {
    pub fn new() -> Obj {
        Obj::default()
    }

    fn key(&mut self, key: &str) {
        if !self.body.is_empty() {
            self.body.push_str(", ");
        }
        let _ = write!(self.body, "{}: ", quote(key));
    }

    /// A number; non-finite values become `null`.
    pub fn num(mut self, key: &str, value: f64) -> Obj {
        self.key(key);
        self.body.push_str(&number(value));
        self
    }

    pub fn int(mut self, key: &str, value: u64) -> Obj {
        self.key(key);
        let _ = write!(self.body, "{value}");
        self
    }

    pub fn bool(mut self, key: &str, value: bool) -> Obj {
        self.key(key);
        self.body.push_str(if value { "true" } else { "false" });
        self
    }

    pub fn str(mut self, key: &str, value: &str) -> Obj {
        self.key(key);
        self.body.push_str(&quote(value));
        self
    }

    pub fn nums(mut self, key: &str, values: &[f64]) -> Obj {
        self.key(key);
        let items: Vec<String> = values.iter().map(|&v| number(v)).collect();
        let _ = write!(self.body, "[{}]", items.join(", "));
        self
    }

    pub fn strs(mut self, key: &str, values: &[String]) -> Obj {
        self.key(key);
        let items: Vec<String> = values.iter().map(|v| quote(v)).collect();
        let _ = write!(self.body, "[{}]", items.join(", "));
        self
    }

    /// A nested object.
    pub fn obj(mut self, key: &str, value: Obj) -> Obj {
        self.key(key);
        self.body.push_str(&value.finish());
        self
    }

    pub fn finish(self) -> String {
        format!("{{{}}}", self.body)
    }
}

fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".into()
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// 64-bit order-sensitive fold (the same rotate-xor-multiply step the
/// program uses for its schedule digests).
pub fn fold(digest: u64, value: u64) -> u64 {
    (digest.rotate_left(5) ^ value).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// FNV-1a over a string, for reply fingerprints.
pub fn hash_str(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// This process's user plus system CPU time, in seconds, from
/// `/proc/self/stat` (clock ticks of 1/100 s, the Linux `USER_HZ`).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// This process's peak resident set (`VmHWM` in `/proc/self/status`),
/// in MB. It counts this program image only: the resident set of the
/// process that spawned it is not inherited, as `ru_maxrss` would be.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))?
                .split_whitespace()
                .next()?
                .parse::<u64>()
                .ok()
        })
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// The calling thread's CPU time, in seconds, from
/// `/proc/thread-self/schedstat` (nanoseconds on the CPU).
pub fn thread_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .map_or(0.0, |ns| ns as f64 / 1e9)
}

/// The median of a sample (0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}
