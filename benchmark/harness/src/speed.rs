//! Host speed calibration.
//!
//! On a shared virtual machine the CPU's speed drifts: the container
//! this benchmark was written on ran the same packet-CP home anywhere
//! between 1.8 and 3.3 s, in slow and fast phases lasting from seconds
//! to over a minute. A figure measured in one 30-second run then
//! depends on the phase it landed in more than on the program.
//!
//! Batch work is therefore timed between runs of [`calibrate`], a
//! fixed kernel that belongs to the benchmark (not the program, so a
//! change to the program never moves it), and its times are scaled by
//! [`REFERENCE_S`] over the kernel's time: the figure the work would
//! have shown at the reference speed; so are the set-up builds, and
//! the daemon's CPU time, by `speed` calibrations taken just before and
//! after its session. The kernel's fastest of five short runs is taken,
//! so a single preemption does not count as a slow phase. The raw
//! figures are reported beside the scaled ones.

use crate::json::{median, Obj};
use crate::Args;
use std::hint::black_box;
use std::time::Instant;

/// [`calibrate`] at the reference speed: the median this kernel took on
/// the 2-vCPU container the benchmark was written on.
pub const REFERENCE_S: f64 = 0.0028;

/// One run of the kernel: xorshift, a 32 KiB table and some float
/// work, the mix of a simulation's inner loops.
fn kernel() -> f64 {
    let start = Instant::now();
    let mut table = vec![0u64; 4096];
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 1.0f64;
    for i in 0..400_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = (x as usize) & 4095;
        table[slot] = table[slot].wrapping_add(x);
        if x & 1 == 0 {
            acc = acc * 1.000_000_1 + (i as f64).sqrt() * 1e-9;
        }
    }
    black_box((table, acc));
    start.elapsed().as_secs_f64()
}

/// The kernel's fastest of five runs, in seconds, on `threads` threads
/// at once (their mean), so a multi-threaded workload is calibrated on
/// every core it uses.
pub fn calibrate(threads: usize) -> f64 {
    let fastest = || (0..5).map(|_| kernel()).fold(f64::INFINITY, f64::min);
    if threads <= 1 {
        return fastest();
    }
    let times: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(fastest)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("calibration thread panicked"))
            .collect()
    });
    times.iter().sum::<f64>() / times.len() as f64
}

/// The factor that scales a time measured between calibrations
/// `before` and `after` to the reference speed.
pub fn factor(before: f64, after: f64) -> f64 {
    REFERENCE_S / ((before + after) / 2.0)
}

/// Calibrations per `speed` call; it reports their median.
const SPEED_REPS: usize = 21;

/// `speed`: the host's calibration now, for work timed outside this
/// process (the daemon's CPU time), and the reference it scales to.
pub fn speed(_args: &Args) -> Result<String, String> {
    let samples: Vec<f64> = (0..SPEED_REPS).map(|_| calibrate(1)).collect();
    Ok(Obj::new()
        .num("calibration_s", median(&samples))
        .num("reference_s", REFERENCE_S)
        .finish())
}
