//! `train`'s budget, from the program's own instruments: with op timing
//! on, every journal line ends with what each kernel family and each
//! update-path step cost in that iteration, and those lines account for
//! the iteration — at least 85 % of `collect_us + update_us`, and never
//! more than all of it (no timed op runs inside another).
//!
//! The op aggregates are process-wide, so this is the only test in its
//! binary.

use std::sync::{Arc, Mutex};

use neurovectorizer::{NeuroVectorizer, NvConfig, VectorizeEnv};
use nvc_datasets::generator;
use nvc_serve::Json;

#[derive(Clone, Default)]
struct Sink(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for Sink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn keys(line: &Json) -> Vec<&str> {
    match line {
        Json::Obj(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("journal line is not an object: {other:?}"),
    }
}

const ALWAYS: [&str; 9] = [
    "iter",
    "steps",
    "reward_mean",
    "loss",
    "policy_loss",
    "value_loss",
    "entropy",
    "collect_us",
    "update_us",
];

#[test]
fn op_lines_account_for_a_training_iteration() {
    // `nvc train`'s configuration (strict whatever the environment asks).
    let cfg = NvConfig::fast()
        .with_seed(1)
        .with_kernel_mode(nvc_nn::KernelMode::Strict);
    let minibatches = cfg.ppo.epochs * cfg.ppo.train_batch.div_ceil(cfg.ppo.minibatch);
    let mut env = VectorizeEnv::new(generator::generate(1, 256), cfg.target.clone(), &cfg.embed);
    let mut nv = NeuroVectorizer::new(cfg);
    let sink = Sink::default();
    nv.set_train_journal(Some(nvc_obs::Journal::from_writer(Box::new(sink.clone()))));

    nvc_obs::set_ops_enabled(true);
    nv.train(&mut env, 4);
    nvc_obs::set_ops_enabled(false);
    nv.train(&mut env, 1);

    let text = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
    let lines: Vec<Json> = text
        .lines()
        .map(|l| Json::parse(l).expect("journal line parses"))
        .collect();
    assert_eq!(lines.len(), 5);

    // Timing off: the line is what it always was.
    assert_eq!(keys(&lines[4]), ALWAYS);

    // Timing on: the same fields in the same order, then the budget. The
    // first iteration also grows the arena, so the share is taken over
    // the ones after it.
    let (mut timed_us, mut wall_us) = (0.0, 0.0);
    for line in &lines[..4] {
        let mut expected = ALWAYS.to_vec();
        expected.extend(["ops", "op_counters"]);
        assert_eq!(keys(line), expected);
        let num = |key: &str| line.get(key).and_then(Json::as_f64).expect("numeric field");
        let wall = num("collect_us") + num("update_us");
        let Some(Json::Obj(ops)) = line.get("ops") else {
            panic!("ops is not an object");
        };
        let of = |op: &Json, field: &str| op.get(field).and_then(Json::as_f64).expect("op field");
        let timed: f64 = ops.iter().map(|(_, op)| of(op, "total_us")).sum();
        // The two phase times are whole microseconds, rounded down.
        assert!(
            timed <= wall + 2.0,
            "ops sum to {timed} µs of a {wall} µs iteration: a timer ran inside another"
        );
        for (name, calls) in [
            ("optim_step", minibatches),
            ("segment_matmul_tn", 2 * minibatches),
            ("reward", 256),
        ] {
            let op = line.get("ops").and_then(|o| o.get(name));
            assert_eq!(
                op.map(|op| of(op, "calls")),
                Some(calls as f64),
                "{name} calls"
            );
        }
        for name in ["scatter", "matmul_nt", "tanh", "gather", "dedup"] {
            assert!(ops.iter().any(|(k, _)| k == name), "no {name} line");
        }
        let rows = |key: &str| {
            line.get("op_counters")
                .and_then(|c| c.get(key))
                .and_then(Json::as_f64)
                .expect("row counter")
        };
        let (looked_up, projected) = (
            rows("embed_context_rows_total"),
            rows("embed_projected_rows_total"),
        );
        assert!(
            projected > 0.0 && projected < looked_up,
            "a batch's loops share context rows: {projected} of {looked_up} projected"
        );
        if num("iter") > 1.0 {
            timed_us += timed;
            wall_us += wall;
        }
    }
    assert!(
        timed_us >= 0.85 * wall_us,
        "op lines cover {:.1} % of the iterations ({timed_us:.0} of {wall_us:.0} µs)",
        100.0 * timed_us / wall_us
    );
}
