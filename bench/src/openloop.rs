//! Open-loop load: operations are sent on a schedule whether or not the
//! previous one has been answered, and each is timed from when it was
//! *due* — so the wait a stall imposes on the operations queued behind it
//! is counted, not hidden.

use std::time::{Duration, Instant};

use crate::synth::Rng;

/// Time source of a schedule runner (the tests drive a fake one).
pub trait Clock {
    /// Microseconds since the schedule's origin.
    fn now_us(&mut self) -> f64;
    /// Blocks until `now_us() >= t_us` (returns at once if it already is).
    fn sleep_until_us(&mut self, t_us: f64);
}

pub struct WallClock(pub Instant);

impl Clock for WallClock {
    fn now_us(&mut self) -> f64 {
        self.0.elapsed().as_secs_f64() * 1e6
    }

    fn sleep_until_us(&mut self, t_us: f64) {
        let wait = t_us - self.now_us();
        if wait > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(wait * 1e-6));
        }
    }
}

/// When one operation was due, sent and answered (µs from the origin).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpTiming {
    pub due_us: f64,
    pub start_us: f64,
    pub end_us: f64,
}

impl OpTiming {
    /// What a user who arrived at `due_us` waited.
    pub fn latency_us(&self) -> f64 {
        self.end_us - self.due_us
    }

    /// How late the generator sent it.
    pub fn late_us(&self) -> f64 {
        self.start_us - self.due_us
    }
}

/// `n` arrival times of a Poisson process of `rate_per_s`, ascending.
pub fn poisson_schedule(rng: &mut Rng, n: usize, rate_per_s: f64) -> Vec<f64> {
    let mean_gap_us = 1e6 / rate_per_s;
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            t += rng.exponential(mean_gap_us);
            t
        })
        .collect()
}

/// Runs `op(i)` for every entry of `due_us` in order, never before it is
/// due and as soon as possible after, on the calling thread.
pub fn run_open(
    due_us: &[f64],
    clock: &mut impl Clock,
    mut op: impl FnMut(usize, &mut dyn Clock),
) -> Vec<OpTiming> {
    due_us
        .iter()
        .enumerate()
        .map(|(i, &due_us)| {
            clock.sleep_until_us(due_us);
            let start_us = clock.now_us();
            op(i, clock);
            OpTiming {
                due_us,
                start_us,
                end_us: clock.now_us(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A clock that only moves when told to.
    struct FakeClock(f64);

    impl Clock for FakeClock {
        fn now_us(&mut self) -> f64 {
            self.0
        }
        fn sleep_until_us(&mut self, t_us: f64) {
            self.0 = self.0.max(t_us);
        }
    }

    #[test]
    fn a_stalled_op_delays_the_ops_queued_behind_it() {
        // Due every 100 µs; service takes 10 µs, except op 1 stalls 350.
        let due = [100.0, 200.0, 300.0, 400.0, 500.0, 600.0];
        let service = [10.0, 350.0, 10.0, 10.0, 10.0, 10.0];
        let mut clock = FakeClock(0.0);
        let t = run_open(&due, &mut clock, |i, c| {
            let until = c.now_us() + service[i];
            c.sleep_until_us(until);
        });
        let lat: Vec<f64> = t.iter().map(OpTiming::latency_us).collect();
        // Op 1 ends at 550. Ops 2–4 were due at 300/400/500 but start at
        // 550/560/570: their latency counts the queueing. Op 5 is clear.
        assert_eq!(lat, [10.0, 350.0, 260.0, 170.0, 80.0, 10.0]);
        let late: Vec<f64> = t.iter().map(OpTiming::late_us).collect();
        assert_eq!(late, [0.0, 0.0, 250.0, 160.0, 70.0, 0.0]);
        // A closed loop would have reported 10 µs for every op but one.
    }

    #[test]
    fn poisson_schedule_is_seeded_ascending_and_on_rate() {
        let a = poisson_schedule(&mut Rng::new(5), 20_000, 1000.0);
        let b = poisson_schedule(&mut Rng::new(5), 20_000, 1000.0);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        let seconds = a.last().unwrap() * 1e-6;
        assert!(
            (seconds - 20.0).abs() < 0.6,
            "20 000 ops at 1 000/s took {seconds}s"
        );
    }
}
