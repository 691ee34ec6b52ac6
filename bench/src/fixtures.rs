//! Committed inputs and expected outputs: checkpoints, the source
//! catalog (generator pool + synthesized shapes) and one expected
//! decision table per checkpoint the workloads can be served by.
//!
//! `regen` rebuilds everything from seeds; `check` proves the committed
//! files are still what those seeds give on the current code, so a stale
//! fixture fails in a second instead of after three minutes of timing.

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::ops::Range;
use std::path::{Path, PathBuf};

use neurovectorizer::{Compiler, LoopDecision, NeuroVectorizer, NvConfig};
use nvc_datasets::{generator, Kernel};
use nvc_embed::{extract_loop_samples, EmbedConfig};
use nvc_ir::ParamEnv;
use nvc_nn::KernelMode;
use nvc_serve::{sample_key, Json};
use nvc_vectorizer::{ActionSpace, VectorDecision};

use crate::synth;
use crate::workloads::sizes;

pub const POOL_SEED: u64 = 2020;
pub const POOL_SIZE: usize = 512;
pub const SHAPE_SEED: u64 = 0x5EED_CAFE;

/// Disjoint slices of `shapes.jsonl`, by what a workload uses them for.
/// Each is exactly as long as its workload needs at the committed
/// `run_seconds` (`BENCHMARK.json`; see `workloads::sizes`), so that at that scale every
/// seed sends the same *set* of never-seen shapes in a different order
/// and the deterministic metrics do not depend on the seed.
pub const WARM_SHAPES: Range<usize> = 0..sizes::WARM_SHAPES;
pub const COLD_WARMUP: Range<usize> = WARM_SHAPES.end..WARM_SHAPES.end + sizes::COLD_WARMUP;
pub const COLD_SHAPES: Range<usize> =
    COLD_WARMUP.end..COLD_WARMUP.end + sizes::COLD_LAT_OPS + sizes::COLD_CAP_OPS;
pub const FLEET_MISSES: Range<usize> = COLD_SHAPES.end..COLD_SHAPES.end + sizes::FLEET_MISS_OPS;
pub const SHAPE_COUNT: usize = FLEET_MISSES.end;

/// Seed of the untrained paper-size model `paper_node` serves.
pub const PAPER_SEED: u64 = 3;

/// How the committed `ckpt_A` / `ckpt_B` were trained (`nvc train`).
pub const CKPT_TRAIN_ARGS: [(&str, u64); 2] = [("ckpt_A", 1), ("ckpt_B", 2)];
const CKPT_KERNELS: usize = 256;
const CKPT_ITERATIONS: usize = 30;

/// Seeds for which `expected_train.tsv` commits what the `train` workload
/// must produce: the evaluation-set geomean of the checkpoint `nvc train`
/// writes, at the full, the traced (1/10) and the smoke (1/100) iteration
/// count. The driver's seeds are its own, so for those the geomean is
/// reported and bounded but has nothing to be equal to.
pub const TRAIN_REFERENCE_SEEDS: [u64; 2] = [1, 2];
const TRAIN_REFERENCE_SCALES: [f64; 3] = [1.0, 0.1, 0.01];

/// The model configuration `nvc hub` serves checkpoints with.
pub fn fast_config() -> NvConfig {
    NvConfig::fast().with_kernel_mode(KernelMode::Strict)
}

/// The model configuration `paper_node` serves.
pub fn paper_config() -> NvConfig {
    NvConfig::paper()
        .with_seed(PAPER_SEED)
        .with_kernel_mode(KernelMode::Strict)
}

/// One checkpoint's expected decisions: a row of `(vf, if)` per catalog
/// source, one pair per innermost loop in source order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    pub checkpoint_hash: u64,
    pub rows: Vec<Vec<(u32, u32)>>,
}

impl Expected {
    fn compute(nv: &NeuroVectorizer, sources: &[String]) -> Expected {
        let space = ActionSpace::for_target(&nv.config().target);
        let rows = sources
            .iter()
            .map(|src| {
                extract_loop_samples(src, &nv.config().embed)
                    .expect("catalog sources parse")
                    .iter()
                    .map(|site| {
                        let d = nv.decide(&site.sample, &space);
                        (d.vf, d.if_)
                    })
                    .collect()
            })
            .collect();
        Expected {
            checkpoint_hash: nv.checkpoint_hash(),
            rows,
        }
    }

    fn render(&self) -> String {
        let mut out = format!("# checkpoint_hash {:016x}\n", self.checkpoint_hash);
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(|(v, i)| format!("{v}:{i}")).collect();
            let _ = writeln!(out, "{}", cells.join("\t"));
        }
        out
    }

    fn parse(text: &str) -> Result<Expected, String> {
        let mut lines = text.lines();
        let checkpoint_hash = lines
            .next()
            .and_then(|l| l.strip_prefix("# checkpoint_hash "))
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or("expected table: missing `# checkpoint_hash` header")?;
        let rows = lines
            .map(|line| {
                line.split('\t')
                    .filter(|c| !c.is_empty())
                    .map(|cell| {
                        let (v, i) = cell.split_once(':')?;
                        Some((v.parse().ok()?, i.parse().ok()?))
                    })
                    .collect::<Option<Vec<(u32, u32)>>>()
                    .ok_or_else(|| format!("expected table: bad row `{line}`"))
            })
            .collect::<Result<_, _>>()?;
        Ok(Expected {
            checkpoint_hash,
            rows,
        })
    }
}

/// Everything a workload needs from `bench/fixtures`.
pub struct Fixtures {
    pub dir: PathBuf,
    /// Catalog sources: the generator pool, then the shapes.
    pub sources: Vec<String>,
    /// The same catalog as compilable kernels (source + run-time
    /// parameter values), for the machine-model speed-up.
    pub kernels: Vec<Kernel>,
    /// Expected tables by name: `A`, `B`, `paper`.
    pub expected: HashMap<&'static str, Expected>,
    /// `(seed, iterations)` → evaluation geomean of the checkpoint the
    /// `train` workload writes, for the reference seeds.
    pub train_geomeans: HashMap<(u64, usize), f64>,
}

impl Fixtures {
    /// Catalog index of shape `i`.
    pub fn shape(i: usize) -> usize {
        POOL_SIZE + i
    }

    /// Catalog indices of the warm pool: every pool source and the warm
    /// shapes.
    pub fn warm_pool() -> Vec<usize> {
        (0..POOL_SIZE)
            .chain(WARM_SHAPES.map(Fixtures::shape))
            .collect()
    }

    /// The table a response stamped `hash` must agree with.
    pub fn table_for(&self, hash: u64) -> Option<&Expected> {
        self.expected.values().find(|e| e.checkpoint_hash == hash)
    }

    /// Loads the committed files and runs the cheap consistency checks
    /// (row counts, pool sources equal to the generator's, checkpoint
    /// files hashing to their tables' stamps).
    pub fn load(dir: &Path) -> Result<Fixtures, String> {
        let read = |name: &str| {
            std::fs::read_to_string(dir.join(name))
                .map_err(|e| format!("{}: {e}", dir.join(name).display()))
        };
        let json_strings = |name: &str| -> Result<Vec<String>, String> {
            read(name)?
                .lines()
                .map(|l| match Json::parse(l) {
                    Ok(Json::Str(s)) => Ok(s),
                    _ => Err(format!("{name}: every line must be one JSON string")),
                })
                .collect()
        };
        let pool = json_strings("pool.jsonl")?;
        let bodies = json_strings("shapes.jsonl")?;
        if pool.len() != POOL_SIZE || bodies.len() != SHAPE_COUNT {
            return Err(format!(
                "fixtures hold {} pool sources and {} shapes, expected {POOL_SIZE} and {SHAPE_COUNT}; run `bench fixtures --regen`",
                pool.len(),
                bodies.len()
            ));
        }
        let mut kernels = generator::generate(POOL_SEED, POOL_SIZE);
        if kernels.iter().map(|k| &k.source).ne(pool.iter()) {
            return Err(
                "pool.jsonl differs from nvc_datasets::generator output; run `bench fixtures --regen`"
                    .into(),
            );
        }
        kernels.extend(bodies.iter().enumerate().map(|(i, body)| {
            Kernel::new(
                format!("shape_{i}"),
                "synth",
                synth::shape_source(body),
                ParamEnv::new().with("n", synth::SHAPE_TRIP).with("s", 3),
            )
        }));
        let sources: Vec<String> = kernels.iter().map(|k| k.source.clone()).collect();

        let mut expected = HashMap::new();
        for name in ["A", "B", "paper"] {
            let table = Expected::parse(&read(&format!("expected_{name}.tsv"))?)?;
            if table.rows.len() != sources.len() {
                return Err(format!(
                    "expected_{name}.tsv has {} rows for {} sources",
                    table.rows.len(),
                    sources.len()
                ));
            }
            expected.insert(name, table);
        }
        for (file, _) in CKPT_TRAIN_ARGS {
            let table = &expected[&file["ckpt_".len()..]];
            let hash = nvc_nn::serialize::checkpoint_hash_text(&read(file)?)
                .map_err(|e| format!("{file}: {e}"))?;
            if hash != table.checkpoint_hash {
                return Err(format!(
                    "{file} hashes to {hash:016x} but its table is stamped {:016x}",
                    table.checkpoint_hash
                ));
            }
        }
        let train_geomeans = read("expected_train.tsv")?
            .lines()
            .filter(|l| !l.starts_with('#'))
            .map(|line| {
                let cells: Vec<&str> = line.split('\t').collect();
                match cells[..] {
                    [seed, iterations, geomean] => seed
                        .parse()
                        .ok()
                        .zip(iterations.parse().ok())
                        .zip(geomean.parse().ok()),
                    _ => None,
                }
                .ok_or_else(|| format!("expected_train.tsv: bad row `{line}`"))
            })
            .collect::<Result<_, _>>()?;
        Ok(Fixtures {
            dir: dir.to_path_buf(),
            sources,
            kernels,
            expected,
            train_geomeans,
        })
    }

    /// Machine-model speed-up of serving `loops` (header line, VF, IF)
    /// for catalog source `idx` over the compiler's own baseline — the
    /// paper's metric.
    pub fn speedup(&self, compiler: &Compiler, idx: usize, loops: &[(u32, u32, u32)]) -> f64 {
        kernel_speedup(compiler, &self.kernels[idx], loops)
    }
}

/// `run_baseline ÷ run_with(decision per loop)` for one kernel. `loops`
/// holds `(header line, VF, IF)`; a loop without an entry keeps the
/// baseline's decision.
pub fn kernel_speedup(compiler: &Compiler, kernel: &Kernel, loops: &[(u32, u32, u32)]) -> f64 {
    let base = compiler
        .run_baseline(kernel)
        .expect("catalog kernels compile")
        .total_cycles;
    let served = compiler
        .run_with(kernel, |l| {
            match loops.iter().find(|(line, _, _)| *line == l.header_line) {
                Some(&(_, vf, if_)) => LoopDecision::Pragma(VectorDecision::new(vf, if_)),
                None => LoopDecision::Baseline,
            }
        })
        .expect("catalog kernels compile")
        .total_cycles;
    base / served
}

/// The filter `regen` applies to the synthesizer's stream: a shape is
/// kept when it extracts to exactly one loop sample and lowers under
/// both model configurations, and repeats no earlier sample key.
struct ShapeFilter {
    embeds: [EmbedConfig; 2],
    seen: [HashSet<u64>; 2],
}

impl ShapeFilter {
    fn new(pool: &[Kernel]) -> Self {
        let embeds = [fast_config().embed, paper_config().embed];
        let mut filter = ShapeFilter {
            embeds,
            seen: [HashSet::new(), HashSet::new()],
        };
        // Pool keys count as seen, so the warm pool's key count is exact.
        for k in pool {
            for (embed, seen) in filter.embeds.iter().zip(filter.seen.iter_mut()) {
                for site in extract_loop_samples(&k.source, embed).expect("pool parses") {
                    seen.insert(sample_key(&site.sample));
                }
            }
        }
        filter
    }

    fn admit(&mut self, source: &str) -> bool {
        let mut keys = [0u64; 2];
        for (key, embed) in keys.iter_mut().zip(&self.embeds) {
            match extract_loop_samples(source, embed).as_deref() {
                Ok([site]) => *key = sample_key(&site.sample),
                _ => return false,
            }
        }
        let lowers = nvc_frontend::parse_translation_unit(source)
            .ok()
            .and_then(|tu| {
                nvc_ir::lower_innermost_loops(&tu, source, &ParamEnv::new().with("n", 1024)).ok()
            })
            .is_some_and(|loops| loops.len() == 1);
        if !lowers
            || keys
                .iter()
                .zip(&self.seen)
                .any(|(k, seen)| seen.contains(k))
        {
            return false;
        }
        for (k, seen) in keys.iter().zip(self.seen.iter_mut()) {
            seen.insert(*k);
        }
        true
    }
}

/// The loop-body expression of a synthesized source (inverse of
/// [`synth::shape_source`]).
fn body_of(source: &str) -> &str {
    let start = source.find("a[i] = ").expect("synthesized shape") + "a[i] = ".len();
    let end = source.rfind("; }").expect("synthesized shape");
    &source[start..end]
}

fn synthesize_shapes(pool: &[Kernel]) -> Vec<String> {
    let mut filter = ShapeFilter::new(pool);
    synth::shapes(SHAPE_SEED)
        .filter(|src| filter.admit(src))
        .take(SHAPE_COUNT)
        .map(|src| body_of(&src).to_string())
        .collect()
}

fn render_json_lines(items: impl IntoIterator<Item = impl AsRef<str>>) -> String {
    let mut out = String::new();
    for item in items {
        out.push_str(&Json::from(item.as_ref()).render());
        out.push('\n');
    }
    out
}

fn restored(checkpoint: &Path) -> Result<NeuroVectorizer, String> {
    let text = std::fs::read_to_string(checkpoint)
        .map_err(|e| format!("{}: {e}", checkpoint.display()))?;
    let mut nv = NeuroVectorizer::new(fast_config());
    nv.restore(&text)
        .map_err(|e| format!("{}: {e}", checkpoint.display()))?;
    Ok(nv)
}

/// `nvc train` to completion, writing its checkpoint to `out`.
fn nvc_train(
    nvc: &Path,
    kernels: usize,
    iterations: usize,
    seed: u64,
    out: &Path,
) -> Result<(), String> {
    let status = std::process::Command::new(nvc)
        .args(["train", "--kernels", &kernels.to_string()])
        .args(["--iterations", &iterations.to_string()])
        .args(["--seed", &seed.to_string(), "--out"])
        .arg(out)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("spawn {}: {e}", nvc.display()))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!(
            "`nvc train --seed {seed} --iterations {iterations}` failed: {status}"
        ))
    }
}

/// Rebuilds every fixture file from its seed. `nvc` is the release
/// binary that trains the checkpoints.
pub fn regen(dir: &Path, nvc: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let write = |name: &str, text: String| {
        std::fs::write(dir.join(name), text).map_err(|e| format!("write {name}: {e}"))
    };
    for (file, seed) in CKPT_TRAIN_ARGS {
        nvc_train(nvc, CKPT_KERNELS, CKPT_ITERATIONS, seed, &dir.join(file))?;
    }
    // What the `train` workload must produce for the reference seeds.
    let mut train = String::from("# seed\titerations\teval_speedup_geomean\n");
    let scratch = dir.join("train_reference.ckpt.tmp");
    for seed in TRAIN_REFERENCE_SEEDS {
        for scale in TRAIN_REFERENCE_SCALES {
            let iterations = ((sizes::TRAIN_ITERATIONS as f64 * scale).round() as usize).max(1);
            nvc_train(nvc, sizes::TRAIN_KERNELS, iterations, seed, &scratch)?;
            let geomean = crate::workloads::train::eval_speedup_geomean(&scratch)?;
            let _ = writeln!(train, "{seed}\t{iterations}\t{geomean}");
        }
    }
    let _ = std::fs::remove_file(&scratch);
    write("expected_train.tsv", train)?;
    let pool = generator::generate(POOL_SEED, POOL_SIZE);
    write(
        "pool.jsonl",
        render_json_lines(pool.iter().map(|k| &k.source)),
    )?;
    let bodies = synthesize_shapes(&pool);
    write("shapes.jsonl", render_json_lines(&bodies))?;

    let sources: Vec<String> = pool
        .iter()
        .map(|k| k.source.clone())
        .chain(bodies.iter().map(|b| synth::shape_source(b)))
        .collect();
    for (file, _) in CKPT_TRAIN_ARGS {
        let nv = restored(&dir.join(file))?;
        let name = &file["ckpt_".len()..];
        write(
            &format!("expected_{name}.tsv"),
            Expected::compute(&nv, &sources).render(),
        )?;
    }
    let paper = NeuroVectorizer::new(paper_config());
    write(
        "expected_paper.tsv",
        Expected::compute(&paper, &sources).render(),
    )?;
    println!(
        "fixtures: wrote {} pool sources, {} shapes, 3 expected tables and the train geomeans to {}",
        pool.len(),
        bodies.len(),
        dir.display()
    );
    Ok(())
}

/// The full check: everything `load` checks, plus that the shapes are
/// exactly what the synthesizer and filter give today (which implies all
/// sample keys are distinct under both configurations) and that a sample
/// of every table still matches a strict in-process decision.
pub fn check(dir: &Path) -> Result<Fixtures, String> {
    let fx = Fixtures::load(dir)?;
    let committed = std::fs::read_to_string(dir.join("shapes.jsonl")).map_err(|e| e.to_string())?;
    let bodies = synthesize_shapes(&fx.kernels[..POOL_SIZE]);
    if render_json_lines(&bodies) != committed {
        return Err(
            "shapes.jsonl is not what the synthesizer gives on this code; run `bench fixtures --regen`"
                .into(),
        );
    }
    // Spot-check the tables: every 97th source, each model.
    let sample: Vec<usize> = (0..fx.sources.len()).step_by(97).collect();
    let sampled_sources: Vec<String> = sample.iter().map(|&i| fx.sources[i].clone()).collect();
    let models = [
        ("A", restored(&dir.join("ckpt_A"))?),
        ("B", restored(&dir.join("ckpt_B"))?),
        ("paper", NeuroVectorizer::new(paper_config())),
    ];
    for (name, nv) in &models {
        let table = &fx.expected[name];
        let fresh = Expected::compute(nv, &sampled_sources);
        if fresh.checkpoint_hash != table.checkpoint_hash {
            return Err(format!(
                "model `{name}` hashes to {:016x}, table is stamped {:016x}",
                fresh.checkpoint_hash, table.checkpoint_hash
            ));
        }
        for (row, &i) in fresh.rows.iter().zip(&sample) {
            if *row != table.rows[i] {
                return Err(format!(
                    "expected_{name}.tsv row {i} is {:?}, strict decide gives {row:?}",
                    table.rows[i]
                ));
            }
        }
    }
    println!(
        "fixtures: ok ({} pool sources + {} shapes, all sample keys distinct, 3 tables spot-checked)",
        POOL_SIZE, SHAPE_COUNT
    );
    Ok(fx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_table_round_trips() {
        let t = Expected {
            checkpoint_hash: 0x00ab_cdef_0123_4567,
            rows: vec![vec![(8, 2)], vec![], vec![(4, 1), (64, 16)]],
        };
        let text = t.render();
        assert!(text.starts_with("# checkpoint_hash 00abcdef01234567\n"));
        assert_eq!(Expected::parse(&text).unwrap(), t);
        assert!(Expected::parse("8:2\n").is_err(), "header is mandatory");
        assert!(Expected::parse("# checkpoint_hash 1\n8-2\n").is_err());
    }

    #[test]
    fn body_of_inverts_shape_source() {
        let body = "((b[i] + 5) * d[i + 1])";
        assert_eq!(body_of(&synth::shape_source(body)), body);
    }

    #[test]
    fn slices_are_disjoint_and_cover_the_file() {
        let slices = [WARM_SHAPES, COLD_WARMUP, COLD_SHAPES, FLEET_MISSES];
        for pair in slices.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
        assert_eq!(slices[0].start, 0);
        assert_eq!(slices[3].end, SHAPE_COUNT);
    }

    #[test]
    fn filter_rejects_repeats_and_alpha_renamings() {
        let mut f = ShapeFilter::new(&[]);
        let a = synth::shape_source("(b[i] + c[i])");
        assert!(f.admit(&a));
        assert!(!f.admit(&a), "exact repeat");
        // Different literal, same bucket → same sample key.
        assert!(f.admit(&synth::shape_source("(b[i] + 5)")));
        assert!(!f.admit(&synth::shape_source("(b[i] + 7)")));
        assert!(!f.admit("void f( {{{"), "unparsable");
    }
}
