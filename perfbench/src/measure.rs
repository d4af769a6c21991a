//! Host-side measurement: process CPU time and peak RSS from `/proc/self`,
//! order statistics, seeded shuffling, and result digests.

use simstate::Fnv1a;

/// Clock ticks per second of the `/proc/<pid>/stat` time fields. Linux
/// reports them in `USER_HZ`, which is 100 on every supported platform.
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of the whole process, every thread it ever
/// ran included (`/proc/self/stat` fields 14 and 15).
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    // The command name (field 2) may contain spaces; fields after it are
    // space-separated, starting with field 3 (state).
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| format!("malformed /proc/self/stat field {}", i + 3))
    };
    // Fields 14 (utime) and 15 (stime) sit at offsets 11 and 12 from field 3.
    Ok((ticks(11)? + ticks(12)?) / USER_HZ)
}

/// Resident-set high-water mark of the process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle pair for even counts; 0 for no samples).
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest whole percentile that still leaves at least ten samples
/// above it, and its nearest-rank value: `(value, percentile)`. With ten
/// samples or fewer no such percentile exists and the maximum is returned
/// as percentile 100.
pub fn tail(xs: &[f64]) -> (f64, u32) {
    let v = sorted(xs);
    let n = v.len();
    if n <= 10 {
        return (v.last().copied().unwrap_or(0.0), 100);
    }
    let p = (100 * (n - 10) / n) as u32;
    // Nearest rank: the smallest k with k >= p% of n; n - k >= 10 holds.
    let k = (p as usize * n).div_ceil(100).max(1);
    (v[k - 1], p)
}

/// Run `setup` `n` times (at least once) and keep the last result, with
/// the seconds each run took. Each result is dropped before the next set-up
/// starts, so peak memory is that of one set-up.
pub fn repeat_setup<T>(n: usize, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut timed = || {
        let t = std::time::Instant::now();
        let value = setup();
        (value, t.elapsed().as_secs_f64())
    };
    let (mut kept, first) = timed();
    let mut times = vec![first];
    for _ in 1..n {
        drop(kept);
        let (value, secs) = timed();
        kept = value;
        times.push(secs);
    }
    (kept, times)
}

/// How many fixed-size passes fill a run of `seconds`, given the nominal
/// host time of one pass. The count depends on the arguments only, so
/// every run of a workload does the same work and reports over the same
/// number of samples.
pub fn passes(seconds: f64, pass_seconds: f64) -> usize {
    ((seconds / pass_seconds).round() as usize).max(1)
}

/// Deterministic SplitMix64 stream: the benchmark's only randomness, used
/// to order points from the `--seed` argument.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// FNV-1a digest of labelled results, independent of the order they were
/// produced in: entries are sorted by label before hashing, so the digest
/// changes only when a simulated outcome does.
pub fn digest(entries: &[(String, String)]) -> u64 {
    let mut sorted: Vec<&(String, String)> = entries.iter().collect();
    sorted.sort();
    let mut h = Fnv1a::new();
    for (label, rendered) in sorted {
        h.update(label.as_bytes());
        h.update(b"\0");
        h.update(rendered.as_bytes());
        h.update(b"\n");
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // 100 samples: p90 leaves exactly ten above it.
        assert_eq!(tail(&xs), (90.0, 90));
        let xs: Vec<f64> = (1..=36).map(f64::from).collect();
        let (v, p) = tail(&xs);
        assert_eq!(p, 72);
        assert!(xs.iter().filter(|&&x| x > v).count() >= 10);
    }

    #[test]
    fn repeat_setup_times_every_run_and_keeps_the_last() {
        let mut calls = 0;
        let (last, times) = repeat_setup(3, || {
            calls += 1;
            calls
        });
        assert_eq!((last, times.len()), (3, 3));
        assert_eq!(repeat_setup(0, || 7).1.len(), 1);
    }

    #[test]
    fn passes_and_shuffle_are_deterministic() {
        assert_eq!(passes(10.0, 3.3), 3);
        assert_eq!(passes(10.0, 40.0), 1);
        let mut a: Vec<u32> = (0..20).collect();
        let mut b = a.clone();
        Rng::new(7).shuffle(&mut a);
        Rng::new(7).shuffle(&mut b);
        assert_eq!(a, b);
        let mut c: Vec<u32> = (0..20).collect();
        Rng::new(8).shuffle(&mut c);
        assert_ne!(a, c);
    }

    #[test]
    fn digest_ignores_order() {
        let a = vec![("x".to_string(), "1".to_string()), ("y".to_string(), "2".to_string())];
        let b = vec![a[1].clone(), a[0].clone()];
        assert_eq!(digest(&a), digest(&b));
        let c = vec![("x".to_string(), "1".to_string()), ("y".to_string(), "3".to_string())];
        assert_ne!(digest(&a), digest(&c));
    }

    #[test]
    fn proc_readers_work() {
        assert!(cpu_seconds().is_ok());
        assert!(peak_rss_mb().is_ok_and(|mb| mb > 0.0));
    }
}
