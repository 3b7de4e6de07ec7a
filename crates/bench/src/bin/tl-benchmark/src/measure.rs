//! Measuring from outside the program: sample statistics, process CPU
//! time and peak memory from `/proc`, the host-speed calibration kernel,
//! the output digest, and a timing decorator for the priority policy.

use simcore::SimTime;
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::time::Instant;
use tensorlights::{Assignment, JobTrafficInfo, PriorityPolicy};
use tl_dl::SimOutput;

/// Median and quartiles of a sample, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

/// Summarise `values` the way Python's `statistics.quantiles(values, n=4)`
/// does (the default "exclusive" method), so the quartiles printed here
/// match the ones computed over runs. One value is its own quartiles; an
/// empty sample summarises to NaN.
pub fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let q = |i: usize| -> f64 {
        match n {
            0 => f64::NAN,
            1 => v[0],
            _ => {
                let m = i * (n + 1);
                let j = (m / 4).clamp(1, n - 1);
                let delta = m as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            }
        }
    };
    Summary {
        n,
        q1: q(1),
        median: q(2),
        q3: q(3),
    }
}

/// User plus system CPU time of this process, every thread that has run
/// in it included, in seconds. `/proc/self/stat` counts in `USER_HZ`
/// ticks, which Linux fixes at 100 per second.
pub fn process_cpu_secs() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The calibration kernel's time on the reference host. End-to-end times
/// are reported in seconds of a host that runs the kernel in exactly this
/// long.
pub const CALIBRATION_REF_S: f64 = 0.15;

/// Rounds of the calibration kernel: about 0.15 s on the reference host.
const CALIBRATION_ROUNDS: u64 = 150;

/// A fixed, std-only kernel timed between repetitions to measure how fast
/// the host runs right now. On a shared host that speed drifts by tens of
/// percent over tens of seconds, far more than the changes the benchmark
/// must resolve; dividing by it cancels much of the drift. The kernel does
/// what the simulator spends its time on (binary-heap pushes and pops, a
/// float pass over a vector, hash-map inserts and removals) over about two
/// megabytes, allocated once so that timing it neither allocates nor moves
/// the process's peak memory after the first run. Its work is the same in
/// every process: nothing in it depends on the repository's code or on a
/// random hash seed.
pub struct Calibration {
    weights: Vec<f64>,
    rates: Vec<f64>,
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
}

impl Calibration {
    const KEYS: u64 = 1 << 16;

    pub fn new() -> Self {
        let mut rng = xorshift(1);
        Calibration {
            weights: (0..Self::KEYS)
                .map(|_| 0.5 + (rng() % 1000) as f64 / 1000.0)
                .collect(),
            rates: vec![0.0; Self::KEYS as usize],
            heap: BinaryHeap::with_capacity(8192),
            map: HashMap::with_capacity_and_hasher(48_000, Default::default()),
        }
    }

    /// Run the kernel once; its wall time in seconds.
    pub fn time(&mut self) -> f64 {
        let started = Instant::now();
        let mut rng = xorshift(2);
        let mut acc = 0.0;
        self.map.clear();
        for round in 0..CALIBRATION_ROUNDS {
            for i in 0..8192 {
                self.heap.push(Reverse((rng() % 100_000, i)));
            }
            while let Some(Reverse((t, _))) = self.heap.pop() {
                acc += t as f64;
            }
            let total: f64 = self.weights.iter().sum();
            for (r, w) in self.rates.iter_mut().zip(&self.weights) {
                *r = 1e10 * w / total;
            }
            acc += self.rates.iter().copied().fold(f64::INFINITY, f64::min);
            for i in 0..4096 {
                self.map.insert(rng() % Self::KEYS, i + round);
            }
            self.map.retain(|k, _| k % 3 != 0);
            acc += self.map.len() as f64;
        }
        std::hint::black_box(acc);
        started.elapsed().as_secs_f64()
    }
}

/// A xorshift64 stream: the same numbers in every process.
fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    }
}

/// FNV-1a over the little-endian bytes of `words`.
pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Digest of what a simulation computed: its end time and, per job, the
/// completion instant, JCT bits, iterations and global steps. Event and
/// allocator counters are left out, since an optimisation may change them
/// without changing a result.
pub fn digest(out: &SimOutput) -> u64 {
    let jobs = out.jobs.iter().flat_map(|j| {
        [
            j.completion.map_or(u64::MAX, SimTime::as_nanos),
            j.jct_secs().map_or(0, f64::to_bits),
            j.iterations,
            j.global_steps,
        ]
    });
    fnv1a(std::iter::once(out.end_time.as_nanos()).chain(jobs))
}

/// Calls into the policy under test and the time `assign` took.
#[derive(Debug, Default)]
pub struct PolicyCalls {
    pub assign: u64,
    pub assign_s: f64,
    pub jobs_assigned: u64,
    pub next_update: Cell<u64>,
}

/// Wraps the policy under test and times each call into it, so the
/// policy layer is measured without adding spans to the program.
pub struct TimedPolicy<'a> {
    inner: &'a mut dyn PriorityPolicy,
    pub calls: PolicyCalls,
}

impl<'a> TimedPolicy<'a> {
    pub fn new(inner: &'a mut dyn PriorityPolicy) -> Self {
        TimedPolicy {
            inner,
            calls: PolicyCalls::default(),
        }
    }
}

impl PriorityPolicy for TimedPolicy<'_> {
    fn assign(&mut self, now: SimTime, jobs: &[JobTrafficInfo]) -> Assignment {
        let started = Instant::now();
        let assignment = self.inner.assign(now, jobs);
        self.calls.assign_s += started.elapsed().as_secs_f64();
        self.calls.assign += 1;
        self.calls.jobs_assigned += jobs.len() as u64;
        assignment
    }

    fn next_update(&self, now: SimTime) -> Option<SimTime> {
        let calls = &self.calls.next_update;
        calls.set(calls.get() + 1);
        self.inner.next_update(now)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&ten);
        assert_eq!((s.n, s.q1, s.median, s.q3), (10, 2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates beyond a sample this small.
        let s = summarize(&[2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        assert_eq!(summarize(&[4.0]).median, 4.0);
        assert!(summarize(&[]).median.is_nan());
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a([]), 0xcbf2_9ce4_8422_2325);
        // FNV-1a 64 of the eight bytes 01 00 00 00 00 00 00 00.
        assert_eq!(fnv1a([1]), 0x89cd_3129_1d2a_efa4);
        assert_ne!(fnv1a([1, 2]), fnv1a([2, 1]));
    }

    #[test]
    fn proc_readers_report_this_process() {
        assert!(peak_rss_mb() > 0.0);
        let spin = Instant::now();
        while spin.elapsed() < Duration::from_millis(30) {
            std::hint::black_box(spin.elapsed());
        }
        assert!(process_cpu_secs() > 0.0);
    }
}
