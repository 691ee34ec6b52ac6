//! Figure 5: reward mean and training loss for different learning rates,
//! FCNN architectures and batch sizes (§4).
//!
//! Batch sizes are the paper's {500, 1000, 4000} divided by 8 to fit the
//! reduced-scale harness.

use neurovectorizer::experiments::{fig5_sweep, Scale};
use nv_bench::print_series;

fn main() {
    let series = fig5_sweep(Scale::bench());
    print_series(
        "Figure 5: hyperparameter sweep (lr / architecture / batch)",
        &series,
    );
    println!("\npaper: lr=5e-5 reaches the maximum reward fastest; lr=5e-3 never");
    println!("reaches it; architectures differ little; smaller batches converge");
    println!("with fewer samples.");
}
