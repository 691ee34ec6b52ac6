//! Exhaustive search over the action grid.
//!
//! §2.3: finding supervised labels "is necessary to run a brute-force
//! search on all the possible VFs and IFs" — 35 compile-and-run cycles per
//! loop, which is why the paper limits it to a 5,000-sample subset and
//! why PPO's 35× sample efficiency matters.

use nvc_rl::ActionDims;

/// Evaluates every action and returns `(best_action, best_reward)`.
///
/// `eval` is called exactly `dims.total()` times, mirroring the 35
/// compilations per loop the paper pays.
///
/// # Panics
///
/// Panics if the action space is empty.
pub fn brute_force_best(
    dims: ActionDims,
    mut eval: impl FnMut((usize, usize)) -> f64,
) -> ((usize, usize), f64) {
    let mut best: Option<((usize, usize), f64)> = None;
    for v in 0..dims.n_vf {
        for i in 0..dims.n_if {
            let r = eval((v, i));
            if best.is_none_or(|(_, br)| r > br) {
                best = Some(((v, i), r));
            }
        }
    }
    best.expect("non-empty action space")
}

#[cfg(test)]
mod tests {
    use super::*;

    const DIMS: ActionDims = ActionDims { n_vf: 7, n_if: 5 };

    #[test]
    fn finds_the_maximum() {
        let (best, r) = brute_force_best(DIMS, |(v, i)| {
            -((v as f64 - 4.0).powi(2) + (i as f64 - 2.0).powi(2))
        });
        assert_eq!(best, (4, 2));
        assert_eq!(r, 0.0);
    }

    #[test]
    fn evaluates_every_cell_once() {
        let mut calls = 0;
        brute_force_best(DIMS, |_| {
            calls += 1;
            0.0
        });
        assert_eq!(calls, 35);
    }

    #[test]
    fn ties_keep_first_found() {
        let (best, _) = brute_force_best(DIMS, |_| 1.0);
        assert_eq!(best, (0, 0));
    }
}
