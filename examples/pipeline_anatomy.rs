//! Anatomy of one kernel's trip through the pipeline.
//!
//! Walks the paper's §2.1 dot-product kernel through every stage —
//! parsing, loop extraction, lowering, dependence analysis, path-context
//! embedding input, baseline decision, the VF×IF landscape, and the
//! machine model's bottleneck attribution — printing the artifacts a
//! compiler engineer would want to inspect.
//!
//! ```text
//! cargo run --release --example pipeline_anatomy
//! ```

use nvc_embed::extract_path_contexts;
use nvc_frontend::{extract_loops, for_each_loop, parse_translation_unit};
use nvc_ir::{analyze_dependences, lower_innermost_loops, ParamEnv};
use nvc_machine::TargetConfig;
use nvc_vectorizer::{VectorDecision, Vectorizer};

const SRC: &str = "int vec[512] __attribute__((aligned(16)));
int example1() {
    int sum = 0;
    for (int i = 0; i < 512; i++) {
        sum += vec[i] * vec[i];
    }
    return sum;
}";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("=== source ===\n{SRC}\n");

    // Stage 1: parse + loop extraction.
    let tu = parse_translation_unit(SRC)?;
    let loops = extract_loops(&tu, SRC);
    println!("=== extraction ===");
    for l in &loops {
        println!(
            "loop #{} in `{}`: depth {}, innermost: {}, header line {}",
            l.loop_index, l.function, l.depth, l.is_innermost, l.header_line
        );
    }

    // Stage 2: lowering to the loop IR.
    let lowered = lower_innermost_loops(&tu, SRC, &ParamEnv::new())?;
    let ir = &lowered[0].ir;
    println!("\n=== loop IR ===");
    println!(
        "induction: {} (trip {:?}, step {})",
        ir.ind_var, ir.trip, ir.step
    );
    println!(
        "body: {} instructions, {} memory access sites",
        ir.body.len(),
        ir.accesses.len()
    );
    for (i, a) in ir.accesses.iter().enumerate() {
        println!(
            "  access {i}: {}[{:?} + {}] {} ({}aligned)",
            a.array,
            a.kind,
            a.offset,
            if a.is_store { "store" } else { "load" },
            if a.aligned { "" } else { "mis" },
        );
    }
    for r in &ir.reductions {
        println!("  reduction: `{}` {:?} over {}", r.var, r.kind, r.ty);
    }

    // Stage 3: dependence analysis (the legality clamp for pragmas).
    let dep = analyze_dependences(ir);
    println!("\n=== dependences ===\nlegal max VF: {}", dep.max_vf);

    // Stage 4: the observation the agent sees — the loop's own statement,
    // read off the translation unit of stage 1 as training reads it
    // (`Compiler::front_end_sampled`). Only a loop that uses a macro
    // defined outside it would be parsed again (`nvc_embed::sample_stmt`).
    let mut stmt = None;
    for_each_loop(&tu, &mut |l| {
        if l.is_innermost {
            stmt = stmt.or(Some(l.stmt));
        }
    });
    let stmt = stmt.ok_or("no innermost loop")?;
    let paths = extract_path_contexts(stmt, 8);
    println!("\n=== code2vec path contexts (first 8) ===");
    for p in &paths {
        println!("  ({}, {}, {})", p.start, p.path, p.end);
    }

    // Stage 5: baseline decision and the landscape.
    let vz = Vectorizer::new(TargetConfig::i7_8559u());
    let baseline = vz.baseline_decision(ir);
    let base = vz.compile(ir, baseline);
    println!("\n=== decisions ===");
    println!(
        "baseline cost model picks {} → {:.0} cycles (bottleneck: {:?})",
        baseline, base.timing.cycles, base.timing.bottleneck
    );
    for d in [
        VectorDecision::new(1, 1),
        VectorDecision::new(8, 2),
        VectorDecision::new(16, 4),
        VectorDecision::new(64, 8),
        VectorDecision::new(64, 16),
    ] {
        let c = vz.compile(ir, d);
        println!(
            "  {}: {:>7.0} cycles  II={:>6.2}  remainder={:>5.0}cy  bottleneck {:?}",
            d, c.timing.cycles, c.timing.ii, c.timing.remainder_cycles, c.timing.bottleneck
        );
    }
    println!("\nNote how the huge block (64×16 = 1024 > 512 iterations) collapses");
    println!("into a pure scalar remainder — the over-vectorization failure the");
    println!("agent must learn to avoid, and why the compile-time penalty exists.");
    Ok(())
}
