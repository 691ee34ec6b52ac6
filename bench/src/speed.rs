//! The speed meter: how fast is the measured CPU running *right now*?
//!
//! The reference host has several speeds (`README.md`, *The host*): for
//! seconds at a time everything CPU-bound on a vCPU takes 1.3–1.8 times
//! as long, no steal time is reported, and fast and slow spells alternate
//! at second scale for tens of minutes. A run that straddles them
//! measures the host, not the program. So every 10 ms a fixed piece of
//! work — the probe — is timed on the measured CPU by the *CPU time of
//! the thread that runs it*, which no preemption lengthens, and every
//! timing a workload takes is divided by how much slower than on the
//! reference host at its best the probes around it were.
//!
//! Who runs the probe depends on who has the CPU. While it has idle time
//! (`fleet_mix`'s open loop, parts of set-ups) a thread of the lowest
//! scheduling class does: it only ever runs when nothing else wants the
//! CPU and is preempted the moment anything does, so it takes nothing
//! from the programs under test — and it keeps the vCPU from halting,
//! which on this host costs a 30–100 µs hypervisor wake-up per op. While
//! the CPU is saturated (closed loops, `nvc train`) that thread starves,
//! and the load generator runs the probe itself between two ops
//! ([`SpeedMeter::sample_if_due`]): 0.6 % of the CPU, the same on every
//! commit.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::procfs;

/// At most one probe per period.
const PERIOD_US: u64 = 10_000;

/// A probe's neighbours within this distance are averaged with it.
const SMOOTH_US: f64 = 25_000.0;

/// What the probe takes on the reference host at its best, in
/// microseconds. A constant, not the run's own minimum, so that a run
/// which never sees the host at its best is corrected like any other; on
/// another host class it is merely the unit slowdowns are in. Changing
/// the probe or this number re-bases every timing metric.
const REFERENCE_PROBE_US: f64 = 17.8;

const FLOATS: usize = 4096;

/// The probe's inputs: two cache-resident float vectors.
struct Work {
    a: Vec<f32>,
    b: Vec<f32>,
}

impl Work {
    fn new() -> Work {
        Work {
            a: (0..FLOATS).map(|i| (i % 97) as f32 * 0.01).collect(),
            b: (0..FLOATS).map(|i| (i % 89) as f32 * 0.02).collect(),
        }
    }

    /// Vectorised multiply-adds, bound by the core's execution units and
    /// first-level cache — what a busy neighbour on the same physical
    /// core takes away. (A probe with a branchy byte scan beside it read
    /// 12 % apart from one process to the next with the code and data
    /// layout, which the programs' own speed did not follow; a
    /// cache-missing pointer chase beside it explained nothing more.)
    fn run(&self) {
        for round in 0..48 {
            let mut acc = [0f32; 16];
            for (x, y) in self.a.chunks_exact(16).zip(self.b.chunks_exact(16)) {
                for k in 0..16 {
                    acc[k] += x[k] * y[k] + round as f32;
                }
            }
            std::hint::black_box(acc);
        }
    }
}

/// One timed probe: CPU time of the thread that ran it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// When it ended, microseconds from the meter's origin.
    pub t_us: f64,
    pub probe_us: f64,
}

struct Shared {
    origin: Instant,
    work: Work,
    samples: Mutex<Vec<Sample>>,
    /// End of the latest probe, whoever ran it.
    last_us: AtomicU64,
    stop: AtomicBool,
}

impl Shared {
    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    fn sample_if_due(&self) {
        let now = self.now_us() as u64;
        let last = self.last_us.load(Ordering::Relaxed);
        // Whoever moves `last_us` on runs this period's probe.
        if now < last + PERIOD_US
            || self
                .last_us
                .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
                .is_err()
        {
            return;
        }
        // The fastest of three: the first run finds the caches cold after
        // 10 ms of somebody else's work, and a timer tick may land in any.
        let probe_us = (0..3)
            .map(|_| {
                let cpu0 = procfs::thread_cpu_ns();
                self.work.run();
                procfs::thread_cpu_ns() - cpu0
            })
            .min()
            .expect("three runs") as f64
            * 1e-3;
        let t_us = self.now_us();
        // A probe that sat preempted for long (the idle-class thread
        // under a saturated CPU) has no one time to be filed under.
        if t_us - now as f64 <= 60.0 * probe_us {
            // A push leaves the vector valid at every step, so a poisoned
            // lock is still good to use.
            self.samples
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(Sample { t_us, probe_us });
        }
    }
}

/// Runs for as long as it lives; see the module text.
pub struct SpeedMeter {
    shared: Arc<Shared>,
    idle_thread: Option<std::thread::JoinHandle<()>>,
}

impl SpeedMeter {
    /// Starts the idle-class sampler on the calling thread's CPU set
    /// (the harness is pinned to one CPU before any thread exists).
    pub fn start() -> Result<SpeedMeter, String> {
        let shared = Arc::new(Shared {
            origin: Instant::now(),
            work: Work::new(),
            samples: Mutex::new(Vec::with_capacity(8192)),
            last_us: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        });
        let theirs = Arc::clone(&shared);
        let (ready, is_ready) = std::sync::mpsc::channel();
        let idle_thread = std::thread::spawn(move || {
            let demoted = procfs::demote_to_idle_class();
            let failed = demoted.is_err();
            let _ = ready.send(demoted);
            // At normal priority it would compete with the servers.
            if failed {
                return;
            }
            while !theirs.stop.load(Ordering::Relaxed) {
                theirs.sample_if_due();
                std::hint::spin_loop();
            }
        });
        let meter = SpeedMeter {
            shared,
            idle_thread: Some(idle_thread),
        };
        match is_ready.recv() {
            Ok(Ok(())) => Ok(meter),
            Ok(Err(e)) => Err(format!("cannot start the idle-class sampler: {e}")),
            Err(_) => Err("the idle-class sampler died".to_string()),
        }
    }

    /// Microseconds since the meter started: the time base of its samples.
    pub fn now_us(&self) -> f64 {
        self.shared.now_us()
    }

    /// `t` on the meter's time base.
    pub fn at_us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.shared.origin)
            .as_secs_f64()
            * 1e6
    }

    /// Runs a probe on the calling thread if none ran in the last period.
    /// Call between two ops of a loop that saturates the CPU.
    pub fn sample_if_due(&self) {
        self.shared.sample_if_due();
    }

    /// What was sampled so far.
    pub fn series(&self) -> Series {
        let samples = self
            .shared
            .samples
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        Series::new(samples)
    }
}

impl Drop for SpeedMeter {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.idle_thread.take() {
            let _ = thread.join();
        }
    }
}

/// A run's probes in time order, each as a slowdown: the mean probe time
/// within [`SMOOTH_US`] of it, over the reference host's best.
#[derive(Debug, Clone, Default)]
pub struct Series {
    t_us: Vec<f64>,
    slowdown: Vec<f64>,
}

impl Series {
    pub fn new(mut samples: Vec<Sample>) -> Series {
        samples.sort_by(|a, b| a.t_us.total_cmp(&b.t_us));
        let (mut lo, mut hi, mut sum) = (0, 0, 0.0);
        let slowdown = samples
            .iter()
            .map(|s| {
                while hi < samples.len() && samples[hi].t_us <= s.t_us + SMOOTH_US {
                    sum += samples[hi].probe_us;
                    hi += 1;
                }
                while samples[lo].t_us < s.t_us - SMOOTH_US {
                    sum -= samples[lo].probe_us;
                    lo += 1;
                }
                sum / (hi - lo) as f64 / REFERENCE_PROBE_US
            })
            .collect();
        Series {
            t_us: samples.iter().map(|s| s.t_us).collect(),
            slowdown,
        }
    }

    pub fn len(&self) -> usize {
        self.t_us.len()
    }

    /// Index of the sample nearest to `t_us`.
    fn nearest(&self, t_us: f64) -> Option<usize> {
        let after = self.t_us.partition_point(|&t| t < t_us);
        match (after.checked_sub(1), (after < self.len()).then_some(after)) {
            (Some(a), Some(b)) => Some(if t_us - self.t_us[a] <= self.t_us[b] - t_us {
                a
            } else {
                b
            }),
            (a, b) => a.or(b),
        }
    }

    /// By what factor work that slows by `sensitivity` of what the probe
    /// slows by (1: exactly like it; 0: it waits on a timer) ran slower
    /// at sample `i` than on the reference host at its best.
    fn factor(&self, i: usize, sensitivity: f64) -> f64 {
        1.0 + sensitivity * (self.slowdown[i] - 1.0)
    }

    /// A duration that ended at `t_us`, as it would have been on the
    /// reference host at its best (unchanged when nothing was sampled).
    pub fn at_best(&self, duration: f64, t_us: f64, sensitivity: f64) -> f64 {
        match self.nearest(t_us) {
            Some(i) => duration / self.factor(i, sensitivity),
            None => duration,
        }
    }

    /// The share of the interval's length that work of `sensitivity`
    /// would have needed on the reference host at its best: the mean of
    /// `1 ÷ factor` over the samples in it (the nearest one if none is).
    pub fn share_at_best(&self, t0_us: f64, t1_us: f64, sensitivity: f64) -> f64 {
        let lo = self.t_us.partition_point(|&t| t < t0_us);
        let hi = self.t_us.partition_point(|&t| t <= t1_us);
        if lo >= hi {
            return self.at_best(1.0, (t0_us + t1_us) / 2.0, sensitivity);
        }
        (lo..hi)
            .map(|i| 1.0 / self.factor(i, sensitivity))
            .sum::<f64>()
            / (hi - lo) as f64
    }

    /// Mean slowdown of the probe over the interval.
    pub fn mean_slowdown(&self, t0_us: f64, t1_us: f64) -> f64 {
        1.0 / self.share_at_best(t0_us, t1_us, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Probes every 10 ms: at the reference speed for the first second,
    /// 1.4 times slower after.
    fn two_speeds() -> Series {
        Series::new(
            (0..200)
                .map(|i| Sample {
                    t_us: i as f64 * 10_000.0,
                    probe_us: REFERENCE_PROBE_US * if i < 100 { 1.0 } else { 1.4 },
                })
                .collect(),
        )
    }

    #[test]
    fn durations_are_brought_back_by_what_the_probe_says() {
        let s = two_speeds();
        let (fast, slow) = (300_000.0, 1_700_000.0);
        // Work as sensitive as the probe: 70 µs measured slow is 50 µs.
        assert!((s.at_best(70.0, slow, 1.0) - 50.0).abs() < 1e-9);
        // Half of it waiting on a timer: 60 µs measured slow is 50 µs.
        assert!((s.at_best(60.0, slow, 0.5) - 50.0).abs() < 1e-9);
        // At the reference speed nothing changes, whatever the sensitivity.
        assert!((s.at_best(50.0, fast, 0.7) - 50.0).abs() < 1e-9);
        // Before the first and after the last sample: the nearest one.
        assert!((s.at_best(50.0, -5.0, 1.0) - 50.0).abs() < 1e-9);
        assert!((s.at_best(70.0, 9e9, 1.0) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn an_interval_across_both_speeds_is_weighted_by_time() {
        let s = two_speeds();
        // 0.5 s fast + 0.5 s slow: half the time counts 1, half 1/1.4.
        let share = s.share_at_best(500_000.0, 1_499_999.0, 1.0);
        assert!((share - (0.5 + 0.5 / 1.4)).abs() < 0.01, "{share}");
        assert!((s.share_at_best(100_000.0, 400_000.0, 1.0) - 1.0).abs() < 1e-9);
        // An interval between two samples takes the nearest one's.
        let share = s.share_at_best(1_701_000.0, 1_702_000.0, 1.0);
        assert!((share - 1.0 / 1.4).abs() < 1e-9);
        assert!((s.mean_slowdown(1_500_000.0, 1_900_000.0) - 1.4).abs() < 1e-9);
    }

    #[test]
    fn an_empty_series_changes_nothing() {
        let s = Series::new(Vec::new());
        assert_eq!(s.at_best(42.0, 5.0, 1.0), 42.0);
        assert_eq!(s.share_at_best(0.0, 10.0, 1.0), 1.0);
    }

    #[test]
    fn a_live_meter_samples_at_its_period_by_cpu_time() {
        let meter = SpeedMeter::start().expect("SCHED_IDLE needs no privilege");
        let until = Instant::now() + std::time::Duration::from_millis(200);
        while Instant::now() < until {
            meter.sample_if_due();
        }
        let series = meter.series();
        assert!(
            (10..=25).contains(&series.len()),
            "{} samples",
            series.len()
        );
        // Whatever this host and build are (an unoptimised probe is a
        // hundred times slower), the probe took some time.
        let slowdown = series.mean_slowdown(0.0, 1e9);
        assert!(slowdown.is_finite() && slowdown > 0.0, "{slowdown}");
    }
}
