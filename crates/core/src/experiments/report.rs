//! `nvc experiment <id|all>`: every figure printed in the paper's format.
//!
//! One entry point at one size — [`Scale::bench`], seed 17, no options —
//! so two runs print the same bytes. Figures 7–9, the headline numbers and
//! the ranker extension read one trained model; `all` trains it once.

use std::cell::OnceCell;
use std::io::{self, Write};

use nvc_datasets::eval::eval_benchmarks;
use nvc_machine::TargetConfig;

use super::{
    ext_ranker_comparison, ext_reward_shaping, fig1_dot_product_grid, fig2_bruteforce_suite,
    fig5_sweep, fig6_action_spaces, fig7_comparison, fig8_polybench, fig9_mibench,
    headline_summary, train_framework, ComparisonData, Scale, SweepSeries,
};
use crate::env::VectorizeEnv;
use crate::framework::NeuroVectorizer;

/// The experiment ids, in the order `all` prints them.
pub const IDS: [&str; 10] = [
    "fig1",
    "fig2",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "headline",
    "ext_ranker",
    "ext_reward_shaping",
];

/// Runs experiment `id` (one of [`IDS`], or `all` for each in turn) and
/// writes its table to `out`. An unknown `id` is an
/// [`io::ErrorKind::InvalidInput`] error naming the ids.
pub fn run(id: &str, out: &mut dyn Write) -> io::Result<()> {
    let shared = OnceCell::new();
    let ids = if id == "all" { &IDS[..] } else { &[id] };
    ids.iter().try_for_each(|id| run_one(id, &shared, out))
}

/// The model Figures 7–9, the headline numbers and the ranker extension
/// all read, and the environment it was trained on.
type Trained = (NeuroVectorizer, VectorizeEnv);

fn train() -> Trained {
    let scale = Scale::bench();
    eprintln!(
        "training PPO ({} kernels, {} iterations)…",
        scale.train_kernels, scale.iterations
    );
    let (nv, env, stats) = train_framework(scale);
    if let Some(last) = stats.last() {
        eprintln!(
            "final reward mean on the training pool: {:.3}",
            last.reward_mean
        );
    }
    (nv, env)
}

fn run_one(id: &str, shared: &OnceCell<Trained>, out: &mut dyn Write) -> io::Result<()> {
    let trained = || shared.get_or_init(train);
    let scale = Scale::bench();
    match id {
        "fig1" => print_fig1(out),
        "fig2" => print_fig2(out),
        // Batch sizes are the paper's {500, 1000, 4000} divided by 8
        // to fit the reduced scale.
        "fig5" => print_series(
            out,
            "Figure 5: hyperparameter sweep (lr / architecture / batch)",
            &fig5_sweep(scale),
            "lr=5e-5 reaches the maximum reward fastest; lr=5e-3 never\n\
             reaches it; architectures differ little; smaller batches converge\n\
             with fewer samples.",
        ),
        "fig6" => print_series(
            out,
            "Figure 6: action-space definitions",
            &fig6_action_spaces(scale),
            "the discrete action space performs the best.",
        ),
        "fig7" => {
            let (nv, env) = trained();
            print_comparison(
                out,
                "Figure 7: 12 benchmarks x 7 methods (speedup over baseline)",
                &fig7_comparison(nv, env, &eval_benchmarks()),
                "RL 2.67x, NNS 2.65x, DT 2.47x, Polly 1.17x, random < 1x,\n\
                 RL within 3% of brute force.",
            )
        }
        "fig8" => print_comparison(
            out,
            "Figure 8: PolyBench (speedup over baseline)",
            &fig8_polybench(&trained().0),
            "RL 2.08x baseline and 1.16x vs Polly; RL wins 3 of 6;\n\
             Polly wins the large-trip-count kernels; RL+Polly reaches 2.92x.",
        ),
        "fig9" => print_comparison(
            out,
            "Figure 9: MiBench (speedup over baseline)",
            &fig9_mibench(&trained().0),
            "RL >= Polly >= baseline on every program; average 1.1x\n\
             because loops are a minor fraction of these programs.",
        ),
        "headline" => {
            let (nv, env) = trained();
            let h = headline_summary(
                &fig7_comparison(nv, env, &eval_benchmarks()),
                &fig8_polybench(nv),
                &fig9_mibench(nv),
            );
            writeln!(
                out,
                "== Headline numbers ==\n\
                 RL average speedup (Figure 7 set): {:.2}x   (paper: 2.67x)\n\
                 brute-force average:               {:.2}x\n\
                 RL / brute force:                  {:.1}%   (paper: 97%)\n\
                 per-suite average range:           {:.2}x - {:.2}x   (paper: 1.29x - 4.73x)",
                h.rl_average,
                h.brute_force_average,
                h.rl_vs_brute_force * 100.0,
                h.range.0,
                h.range.1
            )
        }
        "ext_ranker" => {
            let (nv, env) = trained();
            print_comparison(
                out,
                "Extension (§5): learned cost-model ranker vs PPO policy",
                &ext_ranker_comparison(nv, env, &eval_benchmarks(), scale.seed),
                "proposed as future work — \"equivalent to learning a new cost\n\
                 model\" that, unlike NNS and decision trees, trains end-to-end.",
            )
        }
        "ext_reward_shaping" => print_reward_shaping(out),
        other => {
            let ids = IDS.join(", ");
            let message = format!("unknown experiment `{other}` (one of: {ids}, all)");
            Err(io::Error::new(io::ErrorKind::InvalidInput, message))
        }
    }
}

/// Figure 1: dot-product kernel performance for every (VF, IF),
/// normalized to the baseline cost model (§2.1).
fn print_fig1(out: &mut dyn Write) -> io::Result<()> {
    let data = fig1_dot_product_grid(&TargetConfig::i7_8559u());
    writeln!(
        out,
        "== Figure 1: dot product VF x IF grid (normalized to baseline) ==\n\
         baseline decision: {}\n\
         baseline over scalar: {:.2}x   (paper: 2.6x)",
        data.baseline, data.baseline_over_scalar
    )?;
    write!(out, "{:>6}", "VF\\IF")?;
    for i in &data.ifs {
        write!(out, "{i:>9}")?;
    }
    writeln!(out)?;
    for (vf, row) in data.vfs.iter().zip(&data.normalized) {
        write!(out, "{vf:>6}")?;
        for &v in row {
            let mark = if v > 1.0 { "*" } else { " " };
            write!(out, "{v:>8.3}{mark}")?;
        }
        writeln!(out)?;
    }
    writeln!(
        out,
        "\nbest: {} at {:.3}x over baseline  (paper: (VF=64, IF=8) at ~1.2x)\n\
         {} of {} configurations beat the baseline  (paper: 26 of 35)",
        data.best.0,
        data.best.1,
        data.better_than_baseline(),
        data.vfs.len() * data.ifs.len()
    )
}

/// Figure 2: brute-force optimum vs the baseline cost model over the
/// vectorizer test suite (§2.1).
fn print_fig2(out: &mut dyn Write) -> io::Result<()> {
    let entries = fig2_bruteforce_suite(&TargetConfig::i7_8559u());
    writeln!(
        out,
        "== Figure 2: brute-force best / baseline, vectorizer test suite ==\n\
         {:<30}{:>12}",
        "test", "speedup"
    )?;
    let mut max: f64 = 0.0;
    let mut sum = 0.0;
    for e in &entries {
        writeln!(out, "{:<30}{:>12.3}", e.name, e.best_over_baseline)?;
        max = max.max(e.best_over_baseline);
        sum += e.best_over_baseline.ln();
    }
    writeln!(
        out,
        "\ngeomean {:.3}x, max {:.3}x   (paper: every test >= 1.0x, up to ~1.5x)",
        (sum / entries.len() as f64).exp(),
        max
    )
}

/// §3.4 extension: reward shaping with compile time. "One can allow a
/// long compilation time but penalize for it" — the trade-off curve
/// between execution reward and compile cost.
fn print_reward_shaping(out: &mut dyn Write) -> io::Result<()> {
    let mut scale = Scale::bench();
    scale.iterations = 15; // three full trainings below
    let rows = ext_reward_shaping(scale, &[0.0, 0.25, 1.0]);
    writeln!(
        out,
        "== Extension (§3.4): compile-time-aware reward ==\n\
         {:>8} {:>14} {:>18}",
        "weight", "exec_reward", "compile/baseline"
    )?;
    for r in &rows {
        writeln!(
            out,
            "{:>8.2} {:>14.4} {:>18.3}",
            r.weight, r.exec_reward, r.compile_ratio
        )?;
    }
    writeln!(
        out,
        "\nhigher weights steer the agent toward cheaper-to-compile factors\n\
         at a small execution-reward cost."
    )
}

/// Prints a comparison table (benchmarks × methods) with a geomean row,
/// then what the paper reports.
fn print_comparison(
    out: &mut dyn Write,
    title: &str,
    data: &ComparisonData,
    paper: &str,
) -> io::Result<()> {
    writeln!(out, "\n== {title} ==")?;
    write!(out, "{:<28}", "benchmark")?;
    for m in &data.methods {
        write!(out, "{m:>14}")?;
    }
    writeln!(out)?;
    for (bi, b) in data.benchmarks.iter().enumerate() {
        write!(out, "{b:<28}")?;
        for column in &data.speedups {
            write!(out, "{:>14.3}", column[bi])?;
        }
        writeln!(out)?;
    }
    write!(out, "{:<28}", "geomean")?;
    for m in &data.methods {
        write!(out, "{:>14.3}", data.average(m))?;
    }
    writeln!(out, "\n\npaper: {paper}")
}

/// Prints learning-curve series (Figures 5–6 style), then what the paper
/// reports.
fn print_series(
    out: &mut dyn Write,
    title: &str,
    series: &[SweepSeries],
    paper: &str,
) -> io::Result<()> {
    writeln!(out, "\n== {title} ==")?;
    for s in series {
        writeln!(out, "-- {}", s.label)?;
        writeln!(
            out,
            "{:>10} {:>14} {:>14} {:>12}",
            "steps", "reward_mean", "total_loss", "entropy"
        )?;
        for p in &s.points {
            writeln!(
                out,
                "{:>10} {:>14.4} {:>14.4} {:>12.4}",
                p.steps, p.reward_mean, p.loss, p.entropy
            )?;
        }
    }
    writeln!(out, "\npaper: {paper}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn print_comparison_does_not_panic() {
        let d = ComparisonData {
            benchmarks: vec!["k".into()],
            methods: vec!["baseline".into(), "rl".into()],
            speedups: vec![vec![1.0], vec![2.5]],
        };
        print_comparison(&mut io::sink(), "test", &d, "nothing").unwrap();
    }
}
