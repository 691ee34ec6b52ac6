//! Property-based tests over the whole stack: for arbitrary generated
//! kernels and arbitrary agent decisions, the pipeline never panics, the
//! legality clamp holds, and performance invariants are respected.

use proptest::prelude::*;

use neurovectorizer::{Compiler, LoopDecision};
use nvc_datasets::generator;
use nvc_frontend::{inject_pragmas_at, parse_translation_unit, print_translation_unit, LoopPragma};
use nvc_ir::{legal_max_vf, lower_innermost_loops};
use nvc_machine::TargetConfig;
use nvc_vectorizer::{ActionSpace, VectorDecision, Vectorizer};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any generated kernel, any decision: compile-and-run is total and
    /// produces finite positive cycles.
    #[test]
    fn compile_never_panics(seed in 0u64..5000, vf_exp in 0u32..7, if_exp in 0u32..5) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let k = generator::generate_one(&mut rng, (seed % 16) as usize);
        let compiler = Compiler::default();
        let d = VectorDecision::new(1 << vf_exp, 1 << if_exp);
        let t = compiler.run_with(&k, |_| LoopDecision::Pragma(d)).unwrap();
        prop_assert!(t.total_cycles.is_finite());
        prop_assert!(t.total_cycles > 0.0);
    }

    /// The legality clamp: whatever the agent requests, the compiled
    /// decision never exceeds the dependence-analysis bound or the target
    /// maxima.
    #[test]
    fn clamp_invariant(seed in 0u64..5000, vf in 1u32..=4096, if_ in 1u32..=4096) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let k = generator::generate_one(&mut rng, (seed % 16) as usize);
        let tu = parse_translation_unit(&k.source).unwrap();
        let loops = lower_innermost_loops(&tu, &k.source, &k.env).unwrap();
        let target = TargetConfig::i7_8559u();
        let vz = Vectorizer::new(target.clone());
        for l in &loops {
            let c = vz.compile(&l.ir, VectorDecision::new(vf, if_));
            prop_assert!(c.decision.vf <= legal_max_vf(&l.ir));
            prop_assert!(c.decision.vf <= target.max_vf);
            prop_assert!(c.decision.if_ <= target.max_if);
            prop_assert!(c.decision.vf.is_power_of_two());
            prop_assert!(c.decision.if_.is_power_of_two());
        }
    }

    /// Work conservation: a vectorized loop never processes fewer elements
    /// than the trip count (blocks × block + remainder == trip).
    #[test]
    fn iteration_split_conserves_elements(seed in 0u64..5000, vf_exp in 0u32..7, if_exp in 0u32..5) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let k = generator::generate_one(&mut rng, (seed % 16) as usize);
        let tu = parse_translation_unit(&k.source).unwrap();
        let loops = lower_innermost_loops(&tu, &k.source, &k.env).unwrap();
        let vz = Vectorizer::new(TargetConfig::i7_8559u());
        for l in &loops {
            let c = vz.compile(&l.ir, VectorDecision::new(1 << vf_exp, 1 << if_exp));
            let covered = c.shape.blocks * c.shape.elems_per_block + c.shape.remainder_elems;
            prop_assert_eq!(covered, l.ir.trip.count());
        }
    }

    /// Printer fixpoint on arbitrary generated kernels: print ∘ parse is
    /// idempotent.
    #[test]
    fn printer_roundtrip(seed in 0u64..5000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let k = generator::generate_one(&mut rng, (seed % 16) as usize);
        let tu1 = parse_translation_unit(&k.source).unwrap();
        let p1 = print_translation_unit(&tu1);
        let tu2 = parse_translation_unit(&p1).unwrap();
        let p2 = print_translation_unit(&tu2);
        prop_assert_eq!(p1, p2);
    }

    /// Pragma injection commutes with compilation: injecting (vf, if) into
    /// the source and re-extracting yields the same clamped decision as
    /// passing the decision directly.
    #[test]
    fn pragma_injection_equals_direct_decision(seed in 0u64..5000, vf_exp in 0u32..7, if_exp in 0u32..5) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let k = generator::generate_one(&mut rng, (seed % 16) as usize);
        let d = VectorDecision::new(1 << vf_exp, 1 << if_exp);

        // Direct path.
        let compiler = Compiler::default();
        let direct = compiler.run_with(&k, |_| LoopDecision::Pragma(d)).unwrap();

        // Source-injection path: inject above every innermost loop.
        let tu = parse_translation_unit(&k.source).unwrap();
        let pragma = LoopPragma {
            vectorize_width: d.vf,
            interleave_count: d.if_,
        };
        let sites: Vec<_> = nvc_frontend::extract_loops(&tu, &k.source)
            .into_iter()
            .filter(|l| l.is_innermost)
            .map(|l| (l.span.line, l.span.col, pragma))
            .collect();
        let src = inject_pragmas_at(&k.source, &sites);
        let tu2 = parse_translation_unit(&src).unwrap();
        let lowered = lower_innermost_loops(&tu2, &src, &k.env).unwrap();
        let vz = Vectorizer::new(TargetConfig::i7_8559u());
        // Each injected loop must clamp to the same decision the direct
        // path used.
        for (l, report) in lowered.iter().zip(direct.loops.iter()) {
            let clamped = nvc_vectorizer::clamp_decision(&l.ir, d, vz.target());
            prop_assert_eq!(clamped, report.decision);
        }
    }

    /// Monotonicity-of-work: doubling the trip count of a simple copy
    /// never makes it faster in total cycles.
    #[test]
    fn more_work_costs_more(n_exp in 6u32..12, vf_exp in 0u32..4) {
        let n = 1u64 << n_exp;
        let make = |n: u64| nvc_datasets::Kernel::new(
            "copy", "t",
            format!("float a[8192]; float b[8192];\nvoid f() {{ for (int i = 0; i < {n}; i++) {{ a[i] = b[i]; }} }}"),
            nvc_ir::ParamEnv::new(),
        );
        let compiler = Compiler::default();
        let d = VectorDecision::new(1 << vf_exp, 2);
        let t1 = compiler.run_with(&make(n), |_| LoopDecision::Pragma(d)).unwrap();
        let t2 = compiler.run_with(&make(n * 2), |_| LoopDecision::Pragma(d)).unwrap();
        prop_assert!(t2.total_cycles >= t1.total_cycles);
    }

    /// The action space decodes every flat index into in-range factors.
    #[test]
    fn action_space_total(idx in 0usize..35) {
        let space = ActionSpace::for_target(&TargetConfig::i7_8559u());
        let d = space.decision(idx);
        prop_assert!(d.vf <= 64 && d.if_ <= 16);
        prop_assert_eq!(space.index_of(d), Some(idx));
    }
}
