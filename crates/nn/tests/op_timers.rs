//! Kernel profiling hooks: the hot tensor/graph ops report into
//! `nvc_obs`'s per-op aggregate timers when (and only when) profiling is
//! enabled. Runs as its own test binary so the process-global ops flag
//! cannot race the unit tests.

use nvc_nn::{Graph, ParamStore, Segments, Tensor};
use nvc_obs::{ops_snapshot, reset_ops, set_ops_enabled, Op};

fn calls(op: Op) -> u64 {
    ops_snapshot()
        .into_iter()
        .find(|s| s.op == op)
        .map(|s| s.calls)
        .unwrap_or(0)
}

/// Runs one tiny forward that touches every instrumented op family.
fn exercise() -> Vec<f32> {
    let mut store = ParamStore::new(7);
    let table = store.param(
        "table",
        Tensor::from_vec(4, 3, (0..12).map(|i| i as f32).collect()),
    );
    let w = store.param("w", Tensor::from_vec(3, 2, vec![0.5; 6]));
    let b = store.param("b", Tensor::from_vec(1, 2, vec![0.1, -0.1]));

    let mut g = Graph::new(&store);
    let rows = g.gather_param_rows(table, &[0, 2, 1, 3]);
    let wn = g.param(w);
    let bn = g.param(b);
    let lin = g.linear(rows, wn, bn);
    let h = g.tanh(lin);
    let segs = Segments::from_lens([2, 2]);
    let scores = g.input(Tensor::from_vec(4, 1, vec![0.3, -0.2, 1.0, 0.5]));
    let attn = g.segment_softmax_rows(scores, &segs);
    let pooled = g.segment_weighted_sum(attn, h, &segs);
    let proj = g.input(Tensor::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]));
    let out = g.matmul(pooled, proj);
    g.value(out).data().to_vec()
}

#[test]
fn op_timers_count_when_enabled_and_stay_silent_when_disabled() {
    // Disabled: nothing records, whatever NVC_OPS says.
    set_ops_enabled(false);
    reset_ops();
    let baseline = exercise();
    for stat in ops_snapshot() {
        assert_eq!(
            stat.calls, 0,
            "{:?} recorded while profiling was off",
            stat.op
        );
        assert_eq!(stat.total_ns, 0);
    }

    // Enabled: every instrumented family that the forward touches shows up.
    set_ops_enabled(true);
    reset_ops();
    let timed = exercise();
    for op in [
        Op::Gather,
        Op::Linear,
        Op::SegmentSoftmax,
        Op::SegmentWeightedSum,
        Op::MatMul,
        Op::Tanh,
    ] {
        assert!(calls(op) > 0, "{op:?} ran but its timer stayed at zero");
    }

    // Profiling must not perturb the math: bitwise-identical output.
    assert_eq!(
        baseline.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
        timed.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
        "op timers changed the forward's numerics"
    );

    // Leave the process-global flag the way we found it.
    set_ops_enabled(false);
    reset_ops();
}
