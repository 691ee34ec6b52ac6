//! Determinism guarantees: every stochastic component is seeded, so the
//! figures regenerate bit-identically (CI `cmp`s two runs of `nvc
//! experiment all`).

use neurovectorizer::experiments::{fig1_dot_product_grid, fig2_bruteforce_suite};
use neurovectorizer::{NeuroVectorizer, NvConfig, VectorizeEnv};
use nvc_datasets::{generator, suite};
use nvc_machine::TargetConfig;
use nvc_rl::ActionSpaceKind;

/// Serializes every test that constructs a [`NeuroVectorizer`]:
/// construction re-asserts the process-global kernel mode from its
/// config, and the mode is not bitwise-neutral — a sibling flipping it
/// mid-run would change low-order bits under a bitwise assertion.
/// Poisoning is ignored so one failed test doesn't cascade.
static MODEL_KNOBS: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn lock_model_knobs() -> std::sync::MutexGuard<'static, ()> {
    MODEL_KNOBS.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn generator_streams_are_reproducible() {
    assert_eq!(generator::generate(0, 64), generator::generate(0, 64));
    assert_ne!(generator::generate(0, 64), generator::generate(1, 64));
    // The fixed suite is pinned forever.
    assert_eq!(suite::llvm_suite(), suite::llvm_suite());
}

#[test]
fn environment_rewards_are_reproducible() {
    let cfg = NvConfig::fast();
    let build = || VectorizeEnv::new(generator::generate(9, 12), cfg.target.clone(), &cfg.embed);
    let a = build();
    let b = build();
    assert_eq!(a.contexts().len(), b.contexts().len());
    for i in 0..a.contexts().len() {
        for d in a.space().iter() {
            assert_eq!(a.reward_of_decision(i, d), b.reward_of_decision(i, d));
        }
    }
}

#[test]
fn training_is_reproducible_per_seed() {
    let _guard = lock_model_knobs();
    let run = |seed: u64| {
        let cfg = NvConfig::fast().with_seed(seed);
        let mut env = VectorizeEnv::new(generator::generate(3, 12), cfg.target.clone(), &cfg.embed);
        let mut nv = NeuroVectorizer::new(cfg);
        let stats = nv.train(&mut env, 3);
        stats
            .iter()
            .map(|s| (s.reward_mean, s.loss))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(21), run(21));
    assert_ne!(run(21), run(22));
}

/// "Bits unchanged", pinned in-tree: training in-process exactly as
/// `nvc train --kernels 256 --iterations 30 --seed {1,2}` does must write
/// the committed `bench/fixtures/ckpt_A` / `ckpt_B` byte for byte — every
/// f32 of every weight after 480 strict-mode updates through the forward,
/// backward and optimizer kernels. A kernel change that reorders one
/// reduction, regroups one per-segment gradient sum or rounds one `tanh`
/// differently fails here before the benchmark's fixtures do.
///
/// Strict `tanh` calls no libm (it is fdlibm's `tanhf` computed in
/// lanes), so like the bench fixtures this pin depends on the host's
/// libm only through the strict calls left: `expf` in the segment
/// softmax, in the policy heads' softmax and log-softmax (forward and
/// backward), in the PPO ratio (`Graph::exp`) and in the collector's
/// categorical draw, and `logf` in the log-softmax and that draw's
/// log-probability. A libm that rounds one of those differently needs
/// `bench/run.sh fixtures` regenerated, not a code fix.
///
/// A minute unoptimized, so debug builds skip it; CI runs it in release.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "60 training iterations: run with --release"
)]
fn training_reproduces_the_committed_bench_checkpoints() {
    let _guard = lock_model_knobs();
    for (seed, fixture) in [(1, "ckpt_A"), (2, "ckpt_B")] {
        let cfg = NvConfig::fast().with_seed(seed);
        let pool = generator::generate(seed, 256);
        let mut env = VectorizeEnv::new(pool, cfg.target.clone(), &cfg.embed);
        let mut nv = NeuroVectorizer::new(cfg);
        nv.train(&mut env, 30);
        let path = format!("{}/bench/fixtures/{fixture}", env!("CARGO_MANIFEST_DIR"));
        let committed = std::fs::read_to_string(&path).expect("committed checkpoint");
        assert!(
            nv.checkpoint() == committed,
            "seed {seed} no longer trains to {path}"
        );
    }
}

#[test]
fn figure_data_is_reproducible() {
    let t = TargetConfig::i7_8559u();
    assert_eq!(fig1_dot_product_grid(&t), fig1_dot_product_grid(&t));
    assert_eq!(fig2_bruteforce_suite(&t), fig2_bruteforce_suite(&t));
}

/// The strict determinism bar, end to end: a full train ➝ checkpoint ➝
/// serve run must be **bitwise**-equal from run to run, for all three
/// action spaces. Equal checkpoints mean every f32 of every weight
/// matches after training; equal served decisions mean the batched
/// serving path (its worker threads included) agrees too.
#[test]
fn train_then_serve_is_bitwise_equal_across_thread_matrix() {
    let _guard = lock_model_knobs();
    for kind in [
        ActionSpaceKind::Discrete,
        ActionSpaceKind::Continuous1D,
        ActionSpaceKind::Continuous2D,
    ] {
        let run = || {
            // Strict mode's bar. Fast mode's own bar — decision
            // equivalence — is the kernel mode axis test below.
            let mut cfg = NvConfig::fast().with_seed(19);
            cfg.ppo.action_space = kind;
            cfg.ppo.train_batch = 24;
            cfg.ppo.minibatch = 8;
            cfg.ppo.epochs = 2;
            let mut env =
                VectorizeEnv::new(generator::generate(7, 6), cfg.target.clone(), &cfg.embed);
            let mut nv = NeuroVectorizer::new(cfg);
            let stats: Vec<(u64, u64)> = nv
                .train(&mut env, 2)
                .iter()
                .map(|s| (s.reward_mean.to_bits(), s.loss.to_bits()))
                .collect();
            let checkpoint = nv.checkpoint();
            let samples: Vec<_> = env.contexts().iter().map(|c| c.sample.clone()).collect();
            let handle = nv.serve();
            let decisions: Vec<(usize, usize)> = samples
                .iter()
                .map(|s| handle.decide_sample(s).expect("serve decision").0)
                .collect();
            handle.shutdown();
            (stats, checkpoint, decisions)
        };

        assert_eq!(run(), run(), "train-then-serve diverged for {kind:?}");
    }
}

/// The kernel mode axis of the same train ➝ checkpoint ➝ serve matrix:
/// strict mode is the bitwise anchor (serving the same checkpoint twice
/// reproduces identical decisions), and restoring that checkpoint into a
/// **fast**-mode server must reproduce the *decisions* exactly. Fast
/// kernels reassociate reductions, so intermediate f32s may differ in
/// low bits — decision equivalence, not bit equality, is fast mode's
/// contract (the ε bound itself is `tests/fast_parity.rs`).
#[test]
fn kernel_mode_fast_serving_is_decision_identical_to_strict() {
    let _guard = lock_model_knobs();
    let mut cfg = NvConfig::fast().with_seed(19);
    cfg.ppo.train_batch = 24;
    cfg.ppo.minibatch = 8;
    cfg.ppo.epochs = 2;
    let mut env = VectorizeEnv::new(generator::generate(7, 6), cfg.target.clone(), &cfg.embed);
    let mut nv = NeuroVectorizer::new(cfg.clone());
    nv.train(&mut env, 2);
    let checkpoint = nv.checkpoint();
    let samples: Vec<_> = env.contexts().iter().map(|c| c.sample.clone()).collect();

    let serve_decisions = |mode: nvc_nn::KernelMode| {
        let mut m = NeuroVectorizer::new(cfg.clone().with_kernel_mode(mode));
        m.restore(&checkpoint).expect("restore");
        let handle = m.serve();
        let decisions: Vec<(usize, usize)> = samples
            .iter()
            .map(|s| handle.decide_sample(s).expect("serve decision").0)
            .collect();
        handle.shutdown();
        decisions
    };

    let strict = serve_decisions(nvc_nn::KernelMode::Strict);
    assert_eq!(
        serve_decisions(nvc_nn::KernelMode::Strict),
        strict,
        "strict serving must be reproducible"
    );
    assert_eq!(
        serve_decisions(nvc_nn::KernelMode::Fast),
        strict,
        "fast-mode serving changed a decision"
    );
    nvc_nn::kernels::set_kernel_mode(nvc_nn::KernelMode::Strict);
}

/// Observability must be a pure observer: the same seeded train ➝
/// checkpoint ➝ serve run with span tracing *and* kernel profiling
/// enabled is bitwise-equal to the run with both off. Tracing writes to
/// a lock-free ring and profiling bumps relaxed atomics — neither may
/// touch an f32. (Timing fields of `IterStats` are excluded: wall-clock
/// is the one thing observability is allowed to observe.)
#[test]
fn observability_on_and_off_are_bitwise_equal() {
    let _guard = lock_model_knobs();
    let run = || {
        let mut cfg = NvConfig::fast().with_seed(29);
        cfg.ppo.train_batch = 24;
        cfg.ppo.minibatch = 8;
        cfg.ppo.epochs = 2;
        let mut env = VectorizeEnv::new(generator::generate(5, 6), cfg.target.clone(), &cfg.embed);
        let mut nv = NeuroVectorizer::new(cfg);
        let stats: Vec<(u64, u64)> = nv
            .train(&mut env, 2)
            .iter()
            .map(|s| (s.reward_mean.to_bits(), s.loss.to_bits()))
            .collect();
        let checkpoint = nv.checkpoint();
        let samples: Vec<_> = env.contexts().iter().map(|c| c.sample.clone()).collect();
        let handle = nv.serve();
        let decisions: Vec<(usize, usize)> = samples
            .iter()
            .map(|s| handle.decide_sample(s).expect("serve decision").0)
            .collect();
        handle.shutdown();
        (stats, checkpoint, decisions)
    };

    let off = run();
    nvc_obs::enable_tracing();
    nvc_obs::set_ops_enabled(true);
    let on = run();
    nvc_obs::disable_tracing();
    nvc_obs::set_ops_enabled(false);
    nvc_obs::reset_ops();
    assert_eq!(on, off, "observability changed a bit of the run");
}

#[test]
fn inference_is_pure() {
    let _guard = lock_model_knobs();
    let cfg = NvConfig::fast().with_seed(33);
    let env = VectorizeEnv::new(generator::generate(8, 8), cfg.target.clone(), &cfg.embed);
    let nv = NeuroVectorizer::new(cfg);
    let space = env.space();
    for ctx in env.contexts() {
        let d1 = nv.decide(&ctx.sample, space);
        let d2 = nv.decide(&ctx.sample, space);
        assert_eq!(d1, d2);
        let e1 = nv.encode_batch(&[&ctx.sample]);
        let e2 = nv.encode_batch(&[&ctx.sample]);
        assert_eq!(e1, e2);
    }
}
