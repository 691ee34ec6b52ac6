//! `hub_cold`: one node serving the paper-size model, every request a
//! never-seen loop shape.
//!
//! Embed forward, policy forward, the nn kernels at the paper's shapes
//! and the batcher do the work; the cache is probed and bypassed. `lat`
//! (depth 1) exposes the flush-deadline wait, `cap` (depth 8) exposes
//! batch fill. A cache or envelope optimisation predicts no change here.

use crate::fixtures::{Fixtures, COLD_SHAPES, COLD_WARMUP, PAPER_SEED};
use crate::server::Server;
use crate::synth::Rng;

use super::{run_single_hub, sizes, Ctx, Measured, SingleHub};

/// The never-seen shapes in the order this seed sends them. At the
/// committed scale every seed sends the whole cold slice, in its own
/// order; smaller runs send a prefix of that order.
pub fn order(ctx: &Ctx<'_>) -> Vec<usize> {
    let mut cold: Vec<usize> = COLD_SHAPES.map(Fixtures::shape).collect();
    Rng::new(ctx.seed).shuffle(&mut cold);
    cold
}

pub fn run(ctx: &Ctx<'_>) -> Result<Measured, String> {
    let cold = order(ctx);
    let lat_ops = ctx.count(sizes::COLD_LAT_OPS);
    let cap_ops = ctx.count(sizes::COLD_CAP_OPS);
    let warmup: Vec<usize> = COLD_WARMUP.map(Fixtures::shape).collect();
    let seed = PAPER_SEED.to_string();
    let run = run_single_hub(
        ctx,
        SingleHub {
            spawn: &|| {
                Server::spawn(
                    "hub_cold",
                    &ctx.paper_node,
                    &["--listen", "127.0.0.1:0", "--seed", &seed],
                    &ctx.out_dir,
                )
            },
            table: "paper",
            // Set-up: spawn → listening → 256 shapes decided, so lazy
            // initialisation is over before the clock starts.
            setup_fill: &warmup,
            setups: ctx.setups(5),
            lat_order: cold[..lat_ops].to_vec(),
            cap_order: cold[lat_ops..lat_ops + cap_ops].to_vec(),
            // A traced run sends a tenth of the never-seen shapes, so
            // there are fresh ones left for one more phase.
            two_cpu_order: match ctx.trace {
                true => cold[lat_ops + cap_ops..lat_ops + 2 * cap_ops].to_vec(),
                false => Vec::new(),
            },
        },
    )?;
    let mut m = run.m;
    // Every op must have reached the model.
    for (phase, d, ops) in [
        ("lat", run.lat_delta, lat_ops),
        ("cap", run.cap_delta, cap_ops),
    ] {
        m.require(
            d.misses == ops as f64 && d.hits == 0.0 && d.batched_loops == ops as f64,
            || {
                format!(
                    "hub_cold {phase}: {ops} ops gave {} misses, {} hits, {} batched loops",
                    d.misses, d.hits, d.batched_loops
                )
            },
        );
    }
    Ok(m)
}
