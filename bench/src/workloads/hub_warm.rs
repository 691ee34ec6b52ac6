//! `hub_warm`: one `nvc hub`, every request a cache hit.
//!
//! The envelope — transport, JSON, frontend, cache probe — does all the
//! work and the model none. This is where a front cache, an
//! allocation-free hit path or `writev` must show, and where an
//! observability change's overhead shows. A kernel optimisation predicts
//! no change here.

use crate::fixtures::Fixtures;
use crate::server::Server;
use crate::synth::Rng;

use super::{run_single_hub, sizes, Ctx, Measured, SingleHub};

/// The first `n` sources the run sends: uniform seeded draws from the
/// warm pool, so every one is a cache hit.
pub fn draws(ctx: &Ctx<'_>, n: usize) -> Vec<usize> {
    let pool = Fixtures::warm_pool();
    let mut rng = Rng::new(ctx.seed);
    (0..n).map(|_| pool[rng.below(pool.len())]).collect()
}

pub fn run(ctx: &Ctx<'_>) -> Result<Measured, String> {
    let pool = Fixtures::warm_pool();
    let lat_ops = ctx.count(sizes::WARM_LAT_OPS);
    let cap_ops = ctx.count(sizes::WARM_CAP_OPS);
    let two_cpu_ops = if ctx.trace { cap_ops } else { 0 };
    let mut order = draws(ctx, lat_ops + cap_ops + two_cpu_ops);
    let two_cpu_order = order.split_off(lat_ops + cap_ops);
    let cap_order = order.split_off(lat_ops);
    let model = format!("prod={}", ctx.fixture("ckpt_A"));
    let run = run_single_hub(
        ctx,
        SingleHub {
            spawn: &|| {
                Server::spawn(
                    "hub_warm",
                    &ctx.nvc,
                    &["hub", "--model", &model, "--listen", "127.0.0.1:0"],
                    &ctx.out_dir,
                )
            },
            table: "A",
            // Set-up: spawn → listening → cache cold-filled with the pool.
            setup_fill: &pool,
            setups: ctx.setups(5),
            lat_order: order,
            cap_order,
            two_cpu_order,
        },
    )?;
    let mut m = run.m;
    // The model must have been idle: no batch formed, no probe missed.
    for (phase, d) in [("lat", run.lat_delta), ("cap", run.cap_delta)] {
        m.require(d.batches == 0.0 && d.misses == 0.0, || {
            format!(
                "hub_warm {phase}: {} model batches and {} cache misses in a timed phase",
                d.batches, d.misses
            )
        });
    }
    Ok(m)
}
