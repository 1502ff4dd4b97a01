//! What the benchmark reads from the operating system: process CPU time,
//! peak resident memory, and a scratch directory inside the checkout.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, which is 100 on every
/// supported architecture.
const TICKS_PER_SECOND: f64 = 100.0;

/// CPU seconds (user + system, all threads, exited ones included) this
/// process has used. 0 where `/proc` is not available.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let Some(rest) = stat.rsplit_once(')').map(|(_, rest)| rest) else {
        return 0.0;
    };
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (tick() + tick()) as f64 / TICKS_PER_SECOND
}

/// Peak resident set size (`VmHWM`) in MiB. 0 where `/proc` is not
/// available.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The directory the benchmark may write under: Cargo's target directory
/// (the driver points it inside the checkout), else `target`.
pub fn output_root() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("bench_e2e")
}

/// A fresh, empty directory for one storage namespace. Removed by
/// [`remove_work_dirs`].
pub fn fresh_work_dir(label: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = work_root().join(format!("{label}-{n}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn work_root() -> PathBuf {
    output_root().join(format!("work-{}", std::process::id()))
}

/// Deletes everything [`fresh_work_dir`] handed out in this process.
pub fn remove_work_dirs() {
    let _ = std::fs::remove_dir_all(work_root());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_sane() {
        if !std::path::Path::new("/proc/self/stat").exists() {
            return;
        }
        assert!(peak_rss_mib() > 0.0);
        // Burn CPU until the tick counter moves (bounded, for a loaded box).
        let before = cpu_seconds();
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while cpu_seconds() <= before && start.elapsed().as_secs() < 10 {
            for _ in 0..1_000_000 {
                x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
            }
        }
        assert!(cpu_seconds() > before, "cpu time did not advance");
    }

    #[test]
    fn work_dirs_are_distinct_and_under_the_output_root() {
        let (a, b) = (fresh_work_dir("t"), fresh_work_dir("t"));
        assert_ne!(a, b);
        assert!(a.starts_with(output_root()));
    }
}
