//! Host-speed correction of timings.
//!
//! The benchmark runs on shared virtual machines whose speed drifts, by up
//! to 2× within tens of seconds and between states that last minutes. A
//! median inside one run cannot average out a drift that spans the run, so
//! every timing is reported in *reference-host seconds*: its wall time
//! multiplied by [`REFERENCE_S`] over the time a fixed kernel took when it
//! ran just before and just after the timed interval (the mean of the two
//! readings). The kernel is the benchmark's own code — pointer chasing
//! over a 2 MiB permutation, a branchy bytecode loop and string-keyed map
//! inserts, chosen because its time tracked the pipeline's across host
//! slow-downs more closely than a pure map/sort or bitset loop — and calls
//! no repository code, so a change to the pipeline cannot move it. It runs
//! between operations, not while the timed work runs (`edit_daemon` pauses
//! its clients for it; in its post-window checks, one thread per client, a
//! thread's readings can overlap the other thread's build, as the builds
//! overlap each other). The wall-clock figures and the readings are on the
//! detail line.

use crate::{median, num, Json, Rng};
use std::collections::HashMap;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Seconds one reading takes on the reference host: about the median
/// reading on a calm 2-core virtual machine (Intel Xeon), so that corrected
/// figures there read close to wall time. A timing multiplied by this over
/// the readings around it is in reference-host seconds.
pub const REFERENCE_S: f64 = 0.4e-3;

/// Timed kernel runs per reading, after one untimed run that brings the
/// kernel's data back into the caches the pipeline's work evicted.
const KERNEL_RUNS: usize = 3;

/// A reading younger than this is reused as the next interval's start.
const FRESH: Duration = Duration::from_millis(5);

/// Entries of the permutation the kernel chases (2 MiB of `u32`).
const PERMUTATION: usize = 1 << 19;

fn permutation() -> &'static [u32] {
    static NEXT: OnceLock<Vec<u32>> = OnceLock::new();
    NEXT.get_or_init(|| {
        let mut rng = Rng::new(5, 8);
        let mut next: Vec<u32> = (0..PERMUTATION as u32).collect();
        for i in (1..PERMUTATION).rev() {
            next.swap(i, rng.below(i as u64 + 1) as usize);
        }
        next
    })
}

/// One run of the reference kernel; returns its seconds.
fn kernel() -> f64 {
    let next = permutation();
    let t = Instant::now();
    let mut rng = Rng::new(5, 9);
    let mut at = 0u32;
    for _ in 0..6_000 {
        at = next[at as usize];
    }
    let code: Vec<u8> = (0..4096).map(|_| rng.below(6) as u8).collect();
    let mut acc = [0i64; 4];
    for step in 0..30_000usize {
        match code[step & 4095] {
            0 => acc[0] = acc[0].wrapping_add(acc[1] ^ step as i64),
            1 => acc[1] = acc[1].wrapping_mul(3).wrapping_sub(acc[2]),
            2 => acc[2] ^= acc[0] >> 3,
            3 if acc[3] & 1 == 0 => acc[3] = acc[3].wrapping_add(7),
            3 => acc[3] = acc[3].wrapping_sub(acc[0]),
            4 => acc.swap(0, 2),
            _ => acc[1] = acc[1].rotate_left(5),
        }
    }
    let mut map = HashMap::new();
    for i in 0..1_500u64 {
        *map.entry(format!("g{}", rng.below(800))).or_insert(0u64) += i;
    }
    std::hint::black_box((at, acc, map));
    t.elapsed().as_secs_f64()
}

/// Readings of the reference kernel, taken between timed intervals.
#[derive(Debug, Clone)]
pub struct Probe {
    /// Threads that run the kernel at once for a reading.
    threads: usize,
    last: f64,
    at: Instant,
    /// Every reading, in seconds.
    pub readings: Vec<f64>,
}

impl Default for Probe {
    fn default() -> Probe {
        Probe::new()
    }
}

impl Probe {
    /// A probe with its first reading taken now.
    pub fn new() -> Probe {
        Probe::parallel(1)
    }

    /// A probe whose readings run the kernel on `threads` threads at once,
    /// for timings of work that keeps that many cores busy: a host whose
    /// cores slow each other down shows it only when they are all busy.
    pub fn parallel(threads: usize) -> Probe {
        let mut p = Probe { threads, last: 0.0, at: Instant::now(), readings: Vec::new() };
        p.read();
        p
    }

    fn read(&mut self) -> f64 {
        let runs = || -> Vec<f64> {
            kernel();
            (0..KERNEL_RUNS).map(|_| kernel()).collect()
        };
        let mut all = Vec::new();
        std::thread::scope(|scope| {
            let others: Vec<_> = (1..self.threads).map(|_| scope.spawn(runs)).collect();
            all.extend(runs());
            for h in others {
                all.extend(h.join().expect("probe thread panicked"));
            }
        });
        self.last = median(&all);
        self.at = Instant::now();
        self.readings.push(self.last);
        self.last
    }

    /// Takes a reading unless the last one is fresh, so that it can start
    /// the next timed interval.
    pub fn fresh(&mut self) {
        if self.at.elapsed() > FRESH {
            self.read();
        }
    }

    /// Takes a reading and returns the factor that turns wall seconds of
    /// the interval since the previous reading into reference-host seconds.
    pub fn factor(&mut self) -> f64 {
        let before = self.last;
        let after = self.read();
        2.0 * REFERENCE_S / (before + after)
    }

    /// Adds another probe's readings (a worker thread's) to this one's.
    pub fn merge(&mut self, other: Probe) {
        self.readings.extend(other.readings);
    }

    /// The readings for the detail line: count, median, least and most.
    pub fn detail(&self) -> Json {
        let fold = |f: fn(f64, f64) -> f64, init| self.readings.iter().copied().fold(init, f);
        Json::Object(vec![
            ("reference_s".into(), num(REFERENCE_S)),
            ("readings".into(), Json::UInt(self.readings.len() as u64)),
            ("reading_median_s".into(), num(median(&self.readings))),
            ("reading_min_s".into(), num(fold(f64::min, f64::INFINITY))),
            ("reading_max_s".into(), num(fold(f64::max, 0.0))),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_steady_host_gives_a_factor_near_its_readings_ratio() {
        let mut p = Probe::new();
        let f = p.factor();
        let expected = REFERENCE_S / p.readings[1];
        assert!(f > 0.0 && f.is_finite());
        assert!((f / expected - 1.0).abs() < 0.5, "factor {f}, readings {:?}", p.readings);
    }
}
