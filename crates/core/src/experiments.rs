//! Drivers that regenerate every figure of the paper.
//!
//! Each function returns plain data; [`report`] — `nvc experiment
//! <id|all>`, README § *Experiments* — prints it in the paper's format.
//! Everything is deterministic given the [`Scale`] seed.
//!
//! | Paper artifact | Function |
//! |---|---|
//! | Figure 1 (dot-product VF×IF grid) | [`fig1_dot_product_grid`] |
//! | Figure 2 (brute force vs baseline on the test suite) | [`fig2_bruteforce_suite`] |
//! | Figure 5 (hyperparameter sweep) | `fig5_sweep` |
//! | Figure 6 (action spaces) | `fig6_action_spaces` |
//! | Figure 7 (12 benchmarks × 7 methods) | [`fig7_comparison`] |
//! | Figure 8 (PolyBench) | [`fig8_polybench`] |
//! | Figure 9 (MiBench) | [`fig9_mibench`] |
//! | Headline numbers | `headline_summary` |
//! | §5 ranking network (extension) | `ext_ranker_comparison` |
//! | §3.4 reward shaping (extension) | `ext_reward_shaping` |
//!
//! Figures 7–9 and the ranker are column lists over one method-by-kernel
//! driver, `compare`. Every method embeds a loop as training does, from
//! its own statement (`Compiler::front_end_sampled`); serving embeds the
//! outermost nest, which moves Figure 8 (ROADMAP item 1 (a)).

use serde::{Deserialize, Serialize};

use nvc_agents::{brute_force_best, DecisionTree, NnsAgent, RandomAgent};
use nvc_datasets::{generator, mibench, polybench, suite, Kernel};
use nvc_embed::PathSample;
use nvc_ir::LoweredLoop;
use nvc_machine::TargetConfig;
use nvc_rl::{ActionSpaceKind, BanditEnv, IterStats};
use nvc_vectorizer::{ActionSpace, VectorDecision, Vectorizer};

use crate::compiler::{CompileError, Compiler, LoopDecision, ProgramTiming};
use crate::env::VectorizeEnv;
use crate::framework::{NeuroVectorizer, NvConfig};

pub mod report;

// ---------------------------------------------------------------------
// Scale
// ---------------------------------------------------------------------

/// Experiment sizing. The paper's full scale (5,000 training samples,
/// 500k steps) runs for hours on the original Ray cluster; the `bench`
/// scale is what `nvc experiment` runs — all ten tables in under half a
/// minute — and `smoke` exists for the test suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Scale {
    /// Number of generated training kernels.
    pub(crate) train_kernels: usize,
    /// PPO iterations.
    pub(crate) iterations: usize,
    /// Environment steps per iteration (PPO train batch).
    pub(crate) train_batch: usize,
    /// Master seed.
    pub(crate) seed: u64,
}

impl Scale {
    /// Test-suite scale: seconds.
    pub fn smoke() -> Self {
        Scale {
            train_kernels: 24,
            iterations: 8,
            train_batch: 192,
            seed: 17,
        }
    }

    /// The scale of `nvc experiment`.
    pub(crate) fn bench() -> Self {
        Scale {
            train_kernels: 160,
            iterations: 30,
            train_batch: 512,
            seed: 17,
        }
    }
}

/// Builds the framework + training environment at a given scale and
/// trains it. Returns the trained framework, the environment and the
/// learning curve.
pub fn train_framework(scale: Scale) -> (NeuroVectorizer, VectorizeEnv, Vec<IterStats>) {
    let mut cfg = NvConfig::fast().with_seed(scale.seed);
    cfg.ppo.train_batch = scale.train_batch;
    let mut kernels = generator::generate(scale.seed, scale.train_kernels);
    // The §4.1 combined experiment runs the agent on Polly-transformed
    // code, so the training distribution must include tile-shaped loops:
    // append Polly-lite transforms of the nest-heavy kernels.
    let mut extra = Vec::new();
    for k in kernels
        .iter()
        .filter(|k| k.family == "matmul" || k.family == "memset2d")
    {
        if let Ok((src, report)) = nvc_polly::optimize_source(&k.source) {
            if !report.is_noop() {
                let mut t = k.clone();
                t.name = format!("{}_polly", k.name);
                t.source = src;
                extra.push(t);
            }
        }
    }
    kernels.extend(extra);
    let mut env = VectorizeEnv::new(kernels, cfg.target.clone(), &cfg.embed);
    let mut nv = NeuroVectorizer::new(cfg);
    let stats = nv.train(&mut env, scale.iterations);
    (nv, env, stats)
}

// ---------------------------------------------------------------------
// Figure 1
// ---------------------------------------------------------------------

/// Figure 1 data: kernel-level performance of every `(VF, IF)` on the
/// §2.1 dot product, normalized to the baseline cost model's choice.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridData {
    /// VF axis.
    pub vfs: Vec<u32>,
    /// IF axis.
    pub ifs: Vec<u32>,
    /// `normalized[vi][ii]` = baseline_time / time(vf, if).
    pub normalized: Vec<Vec<f64>>,
    /// What the baseline chose.
    pub baseline: VectorDecision,
    /// Best configuration and its normalized performance.
    pub best: (VectorDecision, f64),
    /// Baseline speedup over fully scalar code (paper: 2.6×).
    pub baseline_over_scalar: f64,
}

impl GridData {
    /// How many configurations beat the baseline (paper: 26 of 35).
    pub fn better_than_baseline(&self) -> usize {
        self.normalized
            .iter()
            .flatten()
            .filter(|&&x| x > 1.0)
            .count()
    }
}

/// Regenerates Figure 1.
pub fn fig1_dot_product_grid(target: &TargetConfig) -> GridData {
    let kernel = dot_product_kernel();
    let compiler = Compiler::new(target.clone());
    let baseline_t = compiler
        .run_baseline(&kernel)
        .expect("dot product compiles");
    let scalar_t = compiler.run_scalar(&kernel).expect("dot product compiles");
    let baseline_decision = baseline_decision_of(&compiler, &kernel);

    let vfs = target.vf_candidates();
    // Figure 1 sweeps IF up to 8 (7 × 5 = 35 points counting IF=1..8 plus
    // VF row 1): the paper's grid is VF ∈ {1..64} × IF ∈ {1..8}.
    let ifs: Vec<u32> = target
        .if_candidates()
        .into_iter()
        .filter(|&i| i <= 8)
        .collect();
    let mut normalized = Vec::new();
    let mut best = (VectorDecision::scalar(), 0.0);
    for &vf in &vfs {
        let mut row = Vec::new();
        for &ifc in &ifs {
            let t = compiler
                .run_with(&kernel, |_| {
                    LoopDecision::Pragma(VectorDecision::new(vf, ifc))
                })
                .expect("compiles");
            let norm = baseline_t.total_cycles / t.total_cycles;
            if norm > best.1 {
                best = (VectorDecision::new(vf, ifc), norm);
            }
            row.push(norm);
        }
        normalized.push(row);
    }
    GridData {
        vfs,
        ifs,
        normalized,
        baseline: baseline_decision,
        best,
        baseline_over_scalar: scalar_t.total_cycles / baseline_t.total_cycles,
    }
}

fn dot_product_kernel() -> Kernel {
    Kernel::new(
        "dot_product",
        "motivation",
        "int vec[512] __attribute__((aligned(16)));
int kernel() {
    int sum = 0;
    for (int i = 0; i < 512; i++) {
        sum += vec[i] * vec[i];
    }
    return sum;
}",
        nvc_ir::ParamEnv::new(),
    )
}

fn baseline_decision_of(compiler: &Compiler, kernel: &Kernel) -> VectorDecision {
    let loops = compiler.front_end(kernel).expect("front end");
    compiler.vectorizer().baseline_decision(&loops[0].ir)
}

// ---------------------------------------------------------------------
// Figure 2
// ---------------------------------------------------------------------

/// One suite entry: kernel name and the brute-force optimum normalized to
/// the baseline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SuiteEntry {
    /// Kernel name.
    pub name: String,
    /// Best achievable speedup over the baseline decision.
    pub best_over_baseline: f64,
}

/// Regenerates Figure 2: exhaustive search over the vectorizer test
/// suite.
pub fn fig2_bruteforce_suite(target: &TargetConfig) -> Vec<SuiteEntry> {
    let compiler = Compiler::new(target.clone());
    let space = ActionSpace::for_target(target);
    suite::llvm_suite()
        .into_iter()
        .filter_map(|k| {
            let baseline = compiler.run_baseline(&k).ok()?.total_cycles;
            let mut best = f64::INFINITY;
            for d in space.iter() {
                let t = compiler
                    .run_with(&k, |_| LoopDecision::Pragma(d))
                    .ok()?
                    .total_cycles;
                if t < best {
                    best = t;
                }
            }
            Some(SuiteEntry {
                name: k.name.clone(),
                best_over_baseline: baseline / best,
            })
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figures 5 and 6
// ---------------------------------------------------------------------

/// A labelled learning curve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct SweepSeries {
    /// Legend label (e.g. "lr=5e-5").
    pub(crate) label: String,
    /// Per-iteration statistics.
    pub(crate) points: Vec<IterStats>,
}

fn run_sweep_config(scale: Scale, cfg: NvConfig, label: String) -> SweepSeries {
    let kernels = generator::generate(scale.seed, scale.train_kernels);
    let mut env = VectorizeEnv::new(kernels, cfg.target.clone(), &cfg.embed);
    let mut nv = NeuroVectorizer::new(cfg);
    let points = nv.train(&mut env, scale.iterations);
    SweepSeries { label, points }
}

/// Regenerates Figure 5: learning-rate, architecture and batch-size
/// sweeps. The axes match the paper (lr ∈ {5e-5, 5e-4, 5e-3},
/// FCNN ∈ {64×64, 128×128, 256×256}, batch ∈ {500, 1000, 4000}); batch
/// sizes are divided by 8 at `bench`/`smoke` scale.
pub(crate) fn fig5_sweep(scale: Scale) -> Vec<SweepSeries> {
    let mut out = Vec::new();
    // Learning rates (paper values).
    for lr in [5e-5f32, 5e-4, 5e-3] {
        let mut cfg = NvConfig::fast().with_seed(scale.seed);
        cfg.ppo.train_batch = scale.train_batch;
        cfg.ppo.lr = lr;
        out.push(run_sweep_config(scale, cfg, format!("lr={lr:.0e}")));
    }
    // Architectures (paper values).
    for hidden in [vec![64, 64], vec![128, 128], vec![256, 256]] {
        let mut cfg = NvConfig::fast().with_seed(scale.seed);
        cfg.ppo.train_batch = scale.train_batch;
        cfg.ppo.hidden = hidden.clone();
        out.push(run_sweep_config(
            scale,
            cfg,
            format!("fcnn={}x{}", hidden[0], hidden[1]),
        ));
    }
    // Batch sizes (paper values ÷ 8 at reduced scale).
    for batch in [500usize, 1000, 4000] {
        let mut cfg = NvConfig::fast().with_seed(scale.seed);
        cfg.ppo.train_batch = (batch / 8).max(32);
        out.push(run_sweep_config(scale, cfg, format!("batch={batch}")));
    }
    out
}

/// Regenerates Figure 6: discrete vs continuous action spaces.
pub(crate) fn fig6_action_spaces(scale: Scale) -> Vec<SweepSeries> {
    [
        (ActionSpaceKind::Discrete, "discrete"),
        (ActionSpaceKind::Continuous1D, "continuous-1d"),
        (ActionSpaceKind::Continuous2D, "continuous-2d"),
    ]
    .into_iter()
    .map(|(kind, label)| {
        let mut cfg = NvConfig::fast().with_seed(scale.seed);
        cfg.ppo.train_batch = scale.train_batch;
        cfg.ppo.action_space = kind;
        run_sweep_config(scale, cfg, label.to_string())
    })
    .collect()
}

// ---------------------------------------------------------------------
// Figures 7–9: methods by kernel
// ---------------------------------------------------------------------

/// Per-method speedups over the baseline on each benchmark.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComparisonData {
    /// Benchmark names (rows).
    pub benchmarks: Vec<String>,
    /// Method names (columns), in plotting order.
    pub methods: Vec<String>,
    /// `speedups[m][b]` = method m's speedup over baseline on benchmark b.
    pub speedups: Vec<Vec<f64>>,
}

impl ComparisonData {
    /// Geometric-mean speedup of a method across benchmarks.
    pub fn average(&self, method: &str) -> f64 {
        let Some(mi) = self.methods.iter().position(|m| m == method) else {
            return f64::NAN;
        };
        let xs = &self.speedups[mi];
        (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
    }
}

/// One column of a method-by-kernel table: the method's name and how it
/// runs a kernel — [`column()`] pairs a compiler (plain or Polly) with a
/// per-loop decision, [`on_sample`] with one from the loop's sample.
type Column<'a> = (
    &'static str,
    Box<dyn FnMut(&Kernel) -> Result<ProgramTiming, CompileError> + 'a>,
);

/// The column `name` that compiles under `compiler`, deciding each loop
/// with `decide`.
fn column<'a>(
    name: &'static str,
    compiler: &'a Compiler,
    mut decide: impl FnMut(&LoweredLoop) -> LoopDecision + 'a,
) -> Column<'a> {
    (name, Box::new(move |k| compiler.run_with(k, &mut decide)))
}

/// The method-by-kernel driver behind Figures 7–9 and the ranker
/// extension. A row is every kernel `base` compiles (the others are
/// skipped), and an entry is baseline cycles over the column's cycles; a
/// column whose compile fails reads 1.0, the baseline's own speedup.
/// Methods come out in column order, and each kernel runs every column
/// before the next kernel starts.
fn compare(kernels: &[Kernel], base: &Compiler, mut columns: Vec<Column<'_>>) -> ComparisonData {
    let mut benchmarks = Vec::new();
    let mut speedups = vec![Vec::new(); columns.len()];
    for k in kernels {
        let Ok(b) = base.run_baseline(k) else {
            continue;
        };
        benchmarks.push(k.name.clone());
        for ((_, run), row) in columns.iter_mut().zip(&mut speedups) {
            let t = run(k).map_or(b.total_cycles, |t| t.total_cycles);
            row.push(b.total_cycles / t);
        }
    }
    ComparisonData {
        benchmarks,
        methods: columns.iter().map(|(name, _)| name.to_string()).collect(),
        speedups,
    }
}

/// The column `name` that compiles under `compiler`, deciding each loop
/// from its own sample (`Compiler::front_end_sampled`); a loop whose
/// text does not parse alone keeps the baseline decision.
fn on_sample<'a>(
    name: &'static str,
    compiler: &'a Compiler,
    nv: &'a NeuroVectorizer,
    mut pick: impl FnMut(&PathSample) -> VectorDecision + 'a,
) -> Column<'a> {
    let cfg = &nv.config().embed;
    (
        name,
        Box::new(move |k| {
            compiler.run_sampled(k, cfg, |s| {
                s.map_or(LoopDecision::Baseline, |s| LoopDecision::Pragma(pick(s)))
            })
        }),
    )
}

/// [`on_sample`] for an agent that maps the loop's code vector to a
/// `(vf_idx, if_idx)` pair.
fn on_embedding<'a>(
    name: &'static str,
    compiler: &'a Compiler,
    nv: &'a NeuroVectorizer,
    space: &'a ActionSpace,
    pick: impl Fn(&[f32]) -> (usize, usize) + 'a,
) -> Column<'a> {
    on_sample(name, compiler, nv, move |s| {
        let (v, i) = pick(&nv.encode_batch(&[s])[0]);
        space.decision_from_pair(v, i)
    })
}

/// The trained policy's column `name` under `compiler`.
fn rl<'a>(
    name: &'static str,
    compiler: &'a Compiler,
    nv: &'a NeuroVectorizer,
    space: &'a ActionSpace,
) -> Column<'a> {
    on_sample(name, compiler, nv, move |s| nv.decide(s, space))
}

/// The plain and the Polly compiler for `nv`'s target, and its action
/// space.
fn compilers(nv: &NeuroVectorizer) -> (Compiler, Compiler, ActionSpace) {
    let target = &nv.config().target;
    let plain = Compiler::new(target.clone());
    let polly = plain.clone().with_polly();
    (plain, polly, ActionSpace::for_target(target))
}

/// The baseline cost model's decision, on every loop.
fn keep_baseline(_: &LoweredLoop) -> LoopDecision {
    LoopDecision::Baseline
}

/// Regenerates Figure 7: the trained framework plus random search, Polly,
/// NNS, decision trees and brute force on the 12 held-out benchmarks.
pub fn fig7_comparison(
    nv: &NeuroVectorizer,
    train_env: &VectorizeEnv,
    benchmarks: &[Kernel],
) -> ComparisonData {
    let (plain, polly, space) = compilers(nv);
    let dims = train_env.action_dims();

    // Supervised agents: trained embeddings + brute-force labels from the
    // training environment (§3.5).
    let labels = train_env.brute_force_labels();
    let mut nns = NnsAgent::new();
    let mut dt_features = Vec::new();
    let mut dt_labels = Vec::new();
    // One segmented encoder forward over the whole training pool — the
    // same entry point training and serving batch through.
    let pool: Vec<&PathSample> = train_env.contexts().iter().map(|c| &*c.sample).collect();
    for (i, e) in nv.encode_batch(&pool).into_iter().enumerate() {
        nns.insert(e.clone(), labels[i]);
        dt_features.push(e);
        dt_labels.push(labels[i].0 * dims.n_if + labels[i].1);
    }
    let tree = DecisionTree::fit(&dt_features, &dt_labels);
    let mut random = RandomAgent::new(nv.config().seed.wrapping_add(1));

    compare(
        benchmarks,
        &plain,
        vec![
            column("baseline", &plain, keep_baseline),
            column("random", &plain, |_| {
                let (v, i) = random.act(dims);
                LoopDecision::Pragma(space.decision_from_pair(v, i))
            }),
            column("polly", &polly, keep_baseline),
            on_embedding("decision_tree", &plain, nv, &space, |e| {
                let flat = tree.predict(e);
                (flat / dims.n_if, flat % dims.n_if)
            }),
            on_embedding("nns", &plain, nv, &space, |e| nns.predict(e)),
            rl("rl", &plain, nv, &space),
            // Brute force: per-loop independent search.
            column("brute_force", &plain, |l| {
                let (best, _) = brute_force_best(dims, |(v, i)| {
                    let c = plain
                        .vectorizer()
                        .compile(&l.ir, space.decision_from_pair(v, i));
                    -c.nest_cycles(&l.ir)
                });
                LoopDecision::Pragma(space.decision_from_pair(best.0, best.1))
            }),
        ],
    )
}

// ---------------------------------------------------------------------
// Figures 8 and 9
// ---------------------------------------------------------------------

/// Regenerates Figure 8: PolyBench under baseline / Polly / RL /
/// RL+Polly.
pub fn fig8_polybench(nv: &NeuroVectorizer) -> ComparisonData {
    let (plain, polly, space) = compilers(nv);
    compare(
        &polybench::polybench(),
        &plain,
        vec![
            column("baseline", &plain, keep_baseline),
            column("polly", &polly, keep_baseline),
            rl("rl", &plain, nv, &space),
            rl("rl+polly", &polly, nv, &space),
        ],
    )
}

/// Regenerates Figure 9: MiBench-style programs under baseline / Polly /
/// RL.
pub fn fig9_mibench(nv: &NeuroVectorizer) -> ComparisonData {
    let (plain, polly, space) = compilers(nv);
    compare(
        &mibench::mibench(),
        &plain,
        vec![
            column("baseline", &plain, keep_baseline),
            column("polly", &polly, keep_baseline),
            rl("rl", &plain, nv, &space),
        ],
    )
}

// ---------------------------------------------------------------------
// Headline numbers
// ---------------------------------------------------------------------

/// The abstract's headline numbers, measured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct Headline {
    /// Geomean RL speedup on the Figure-7 benchmarks (paper: 2.67×).
    pub(crate) rl_average: f64,
    /// Geomean brute-force speedup (the oracle).
    pub(crate) brute_force_average: f64,
    /// RL as a fraction of brute force (paper: 97%).
    pub(crate) rl_vs_brute_force: f64,
    /// Min and max per-suite average speedup (paper: 1.29×–4.73×).
    pub(crate) range: (f64, f64),
}

/// Computes the headline numbers from the Figure 7–9 data.
pub(crate) fn headline_summary(
    fig7: &ComparisonData,
    fig8: &ComparisonData,
    fig9: &ComparisonData,
) -> Headline {
    let rl7 = fig7.average("rl");
    let bf = fig7.average("brute_force");
    let rl8 = fig8.average("rl+polly").max(fig8.average("rl"));
    let rl9 = fig9.average("rl");
    let mut suite_avgs = [rl7, rl8, rl9];
    suite_avgs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    Headline {
        rl_average: rl7,
        brute_force_average: bf,
        rl_vs_brute_force: rl7 / bf,
        range: (suite_avgs[0], suite_avgs[2]),
    }
}

// ---------------------------------------------------------------------
// Extensions (§3.4 reward shaping, §5 ranking network)
// ---------------------------------------------------------------------

/// §5 extension: trains the reward-ranking network (a learned cost model)
/// on the training pool's brute-force grid and evaluates it on the
/// Figure-7 benchmarks next to the RL policy.
pub(crate) fn ext_ranker_comparison(
    nv: &NeuroVectorizer,
    train_env: &VectorizeEnv,
    benchmarks: &[Kernel],
    seed: u64,
) -> ComparisonData {
    use nvc_agents::Ranker;
    use rand::SeedableRng;

    let (plain, _, space) = compilers(nv);
    let dims = train_env.action_dims();

    // Label the full grid of the training pool: (embedding, action) →
    // reward. This is the supervised dataset the §5 network needs.
    let mut data = Vec::new();
    let pool: Vec<&PathSample> = train_env.contexts().iter().map(|c| &*c.sample).collect();
    for (i, e) in nv.encode_batch(&pool).into_iter().enumerate() {
        for v in 0..dims.n_vf {
            for f in 0..dims.n_if {
                let r = train_env
                    .reward_of_decision(i, space.decision_from_pair(v, f))
                    .max(-2.0); // clip outliers for regression stability
                data.push((e.clone(), v * dims.n_if + f, r));
            }
        }
    }
    let mut ranker = Ranker::new(nv.config().embed.code_dim, dims, seed);
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    ranker.fit(&data, &mut rng);

    compare(
        benchmarks,
        &plain,
        vec![
            column("baseline", &plain, keep_baseline),
            on_embedding("ranker", &plain, nv, &space, |e| ranker.predict(e)),
            rl("rl", &plain, nv, &space),
        ],
    )
}

/// One row of the §3.4 reward-shaping ablation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct ShapingRow {
    /// Compile-time penalty weight.
    pub(crate) weight: f64,
    /// Mean greedy execution reward after training.
    pub(crate) exec_reward: f64,
    /// Mean compile time of the greedy decisions, normalized to baseline.
    pub(crate) compile_ratio: f64,
}

/// §3.4 extension: sweeps the compile-time penalty weight and reports the
/// execution-reward / compile-time trade-off the paper describes.
pub(crate) fn ext_reward_shaping(scale: Scale, weights: &[f64]) -> Vec<ShapingRow> {
    let mut out = Vec::new();
    for &w in weights {
        let mut cfg = NvConfig::fast().with_seed(scale.seed);
        cfg.ppo.train_batch = scale.train_batch;
        let kernels = generator::generate(scale.seed, scale.train_kernels);
        let mut env =
            VectorizeEnv::new(kernels, cfg.target.clone(), &cfg.embed).with_compile_weight(w);
        let mut nv = NeuroVectorizer::new(cfg);
        nv.train(&mut env, scale.iterations);

        // Greedy evaluation: pure execution reward + compile ratio.
        let plain = VectorizeEnv::new(
            env.kernels().to_vec(),
            nv.config().target.clone(),
            &nv.config().embed,
        );
        let vz = Vectorizer::new(nv.config().target.clone());
        let mut exec = 0.0;
        let mut compile_ratio = 0.0;
        for (i, ctx) in plain.contexts().iter().enumerate() {
            let d = nv.decide(&ctx.sample, plain.space());
            exec += plain.reward_of_decision(i, d);
            let c = vz.compile(&ctx.lowered.ir, d);
            compile_ratio += c.compile_ms / ctx.baseline_compile_ms;
        }
        let n = plain.contexts().len() as f64;
        out.push(ShapingRow {
            weight: w,
            exec_reward: exec / n,
            compile_ratio: compile_ratio / n,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_shape_matches_paper() {
        let data = fig1_dot_product_grid(&TargetConfig::i7_8559u());
        assert_eq!(data.vfs.len(), 7);
        assert_eq!(data.ifs.len(), 4); // IF ∈ {1,2,4,8}
                                       // Paper: baseline picks (4,2); most configurations beat it; best
                                       // uses wide factors; baseline is ~2.6× over scalar.
        assert_eq!(data.baseline, VectorDecision::new(4, 2));
        assert!(
            data.better_than_baseline() >= 14,
            "only {} of 28 beat baseline",
            data.better_than_baseline()
        );
        assert!(data.best.1 > 1.0 && data.best.1 < 2.0);
        assert!((2.0..3.2).contains(&data.baseline_over_scalar));
    }

    #[test]
    fn fig2_bruteforce_never_loses() {
        let entries = fig2_bruteforce_suite(&TargetConfig::i7_8559u());
        assert!(entries.len() >= 14);
        for e in &entries {
            assert!(
                e.best_over_baseline >= 1.0 - 1e-9,
                "{}: brute force lost ({})",
                e.name,
                e.best_over_baseline
            );
        }
        // And improvements exist (paper: up to ~1.5×).
        let max = entries
            .iter()
            .map(|e| e.best_over_baseline)
            .fold(0.0, f64::max);
        assert!(max > 1.1, "no headroom found: max={max}");
    }

    #[test]
    fn compare_skips_unbuilt_kernels_and_reads_failed_columns_as_one() {
        let plain = Compiler::new(TargetConfig::i7_8559u());
        let broken = Kernel::new("broken", "test", "void f( {", nvc_ir::ParamEnv::new());
        let kernels = [broken.clone(), dot_product_kernel()];
        let d = compare(
            &kernels,
            &plain,
            vec![
                column("scalar", &plain, |_| {
                    LoopDecision::Pragma(VectorDecision::scalar())
                }),
                (
                    "fails",
                    Box::new(|_| plain.run_with(&broken, keep_baseline)),
                ),
                column("baseline", &plain, keep_baseline),
            ],
        );
        assert_eq!(d.benchmarks, ["dot_product"]);
        assert_eq!(d.methods, ["scalar", "fails", "baseline"]);
        assert!(d.speedups[0][0] < 1.0, "scalar beat the baseline");
        assert_eq!(d.speedups[1], [1.0]);
        assert_eq!(d.speedups[2], [1.0]);
    }

    #[test]
    fn comparison_average_is_geomean() {
        let d = ComparisonData {
            benchmarks: vec!["a".into(), "b".into()],
            methods: vec!["m".into()],
            speedups: vec![vec![1.0, 4.0]],
        };
        assert!((d.average("m") - 2.0).abs() < 1e-9);
        assert!(d.average("missing").is_nan());
    }
}
