//! The host fingerprint recorded next to every result, and process
//! memory. Recorded only, never gated: it explains why two hosts read
//! differently, it does not normalise anything.

use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

/// Who ran the numbers.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// Online CPUs (`available_parallelism`).
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc -V` of the toolchain on `PATH`.
    pub rustc: String,
    /// Seconds the fixed calibration kernel took in this process
    /// (median of three).
    pub calibration_s: f64,
}

impl Fingerprint {
    /// Probes the host. Cheap (the kernel runs ~10 ms).
    pub fn probe() -> Fingerprint {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        let rustc = Command::new("rustc")
            .arg("-V")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
            .unwrap_or_else(|| "unknown".to_owned());
        let mut runs = [0.0; 3];
        for r in &mut runs {
            *r = calibration_kernel();
        }
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu_model,
            rustc,
            calibration_s: crate::stats::median(&runs),
        }
    }

    /// One human-readable line.
    pub fn line(&self) -> String {
        format!(
            "host: nproc={} cpu=\"{}\" rustc=\"{}\" calibration_s={:.6}",
            self.nproc, self.cpu_model, self.rustc, self.calibration_s
        )
    }
}

/// A fixed integer kernel (xorshift feeding an FNV-1a fold, 2^22
/// rounds): dependent arithmetic with no memory traffic, so it tracks
/// the core's clock and nothing else.
fn calibration_kernel() -> f64 {
    let start = Instant::now();
    let mut x: u64 = black_box(0x9e37_79b9_7f4a_7c15);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for _ in 0..(1u32 << 22) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        h = (h ^ (x & 0xff)).wrapping_mul(0x0100_0000_01b3);
    }
    black_box(h);
    start.elapsed().as_secs_f64()
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
