//! Sample statistics, the timing loop every probe shares, and the two
//! `/proc/self` readers behind `cpu_ms_per_req` and `peak_rss_mb`.

use std::time::{Duration, Instant};

/// The `p`-th percentile (0–100) by nearest rank; sorts in place.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    samples.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 50.0)
}

pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// A timed value with the number of samples behind it.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub value: f64,
    pub n: usize,
}

/// Fewest calls a probe makes however short its budget. It keeps an
/// expensive probe (a whole-application run) honest under a short
/// `--seconds`; `--smoke` lowers it to one.
pub const MIN_CALLS: usize = 5;

/// Call `f` — which returns the seconds it measured — until `budget` is
/// spent, at least `min_calls` and at most `MAX_CALLS` times (the cap
/// keeps a nanosecond-scale probe from spinning). Every per-layer timing
/// is the median of these samples.
pub fn sample_secs(budget: Duration, min_calls: usize, mut f: impl FnMut() -> f64) -> Vec<f64> {
    const MAX_CALLS: usize = 2000;
    let deadline = Instant::now() + budget;
    let mut samples = Vec::new();
    while samples.len() < MAX_CALLS && (samples.len() < min_calls || Instant::now() < deadline) {
        samples.push(f());
    }
    samples
}

/// Seconds one call of `f` takes.
pub fn secs(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// Median of [`sample_secs`] with `f` timing itself.
pub fn median_secs(budget: Duration, min_calls: usize, f: impl FnMut() -> f64) -> Timed {
    let mut s = sample_secs(budget, min_calls, f);
    Timed {
        value: median(&mut s),
        n: s.len(),
    }
}

/// Process CPU time (user + system) in seconds, from `/proc/self/stat`.
///
/// The kernel reports clock ticks; `USER_HZ` is 100 on every Linux
/// platform Rust supports, and std has no `sysconf` to ask.
pub fn cpu_seconds() -> f64 {
    const USER_HZ: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = stat.rsplit_once(')').expect("stat has a command name").1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the line, 12 and 13 here.
    let ticks = |i: usize| fields[i].parse::<f64>().expect("tick count");
    (ticks(11) + ticks(12)) / USER_HZ
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 50.0), 50.0);
        assert_eq!(percentile(&mut v, 95.0), 95.0);
        assert_eq!(percentile(&mut v, 100.0), 100.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 1.0);
    }

    #[test]
    fn sampling_honours_its_floor() {
        let t = median_secs(Duration::ZERO, MIN_CALLS, || secs(|| {}));
        assert_eq!(t.n, 5);
    }
}
