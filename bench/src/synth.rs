//! Seeded inputs: the harness's own PRNG and the loop-shape synthesizer.
//!
//! `nvc_datasets::generator` yields thousands of distinct sources but
//! only ~64 distinct `sample_key`s (alpha-renaming and literal bucketing
//! collapse them), so a "never seen" workload built from it is warm after
//! 64 requests. The synthesizer instead varies the *structure* of one
//! loop body — a random expression tree — which the path-context
//! normalization cannot collapse.
//!
//! The PRNG is the harness's own (SplitMix64) rather than the vendored
//! `rand`, so the committed fixtures do not move when the program's
//! dependencies do.

/// SplitMix64: tiny, seedable, and good enough for workload draws.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Exponential with the given mean (Poisson inter-arrival gaps).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Draws ranks `0..n` with probability ∝ 1/(rank+1) — Zipf(1.0) — by
/// inverting the cumulative weights.
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Self {
        let mut total = 0.0;
        let cumulative = (0..n)
            .map(|rank| {
                total += 1.0 / (rank + 1) as f64;
                total
            })
            .collect();
        Zipf { cumulative }
    }

    pub fn draw(&self, rng: &mut Rng) -> usize {
        let total = *self.cumulative.last().expect("Zipf over an empty set");
        let x = rng.unit() * total;
        self.cumulative
            .partition_point(|&c| c <= x)
            .min(self.cumulative.len() - 1)
    }
}

const LEAVES: &[&str] = &[
    "b[i]", "c[i]", "d[i + 1]", "b[i * 2]", "s",
    // One literal per bucket of the embedder's literal normalization.
    "1", "2", "5", "8", "100",
];
const OPS: &[&str] = &["+", "-", "*", "&", "|", "^"];
const MAX_DEPTH: u32 = 4;

fn expr(rng: &mut Rng, depth: u32, out: &mut String) {
    // Interior nodes get likelier to close as the tree deepens, so sizes
    // spread between one operator and a full depth-4 tree.
    let leaf = depth >= MAX_DEPTH || (depth > 0 && rng.below(4) < depth as usize);
    if leaf {
        out.push_str(LEAVES[rng.below(LEAVES.len())]);
        return;
    }
    out.push('(');
    expr(rng, depth + 1, out);
    out.push(' ');
    out.push_str(OPS[rng.below(OPS.len())]);
    out.push(' ');
    expr(rng, depth + 1, out);
    out.push(')');
}

/// The trip count every synthesized kernel runs with.
pub const SHAPE_TRIP: i64 = 1024;

/// Wraps one loop body expression in a complete translation unit.
pub fn shape_source(body: &str) -> String {
    format!(
        "int a[4096]; int b[8192]; int c[4096]; int d[4100];\n\
         void kernel(int n, int s) {{\n    \
         for (int i = 0; i < n; i++) {{ a[i] = {body}; }}\n}}\n"
    )
}

/// An endless, seed-determined stream of candidate loop shapes (complete
/// C sources). Candidates may repeat; `fixtures --regen` filters them.
pub fn shapes(seed: u64) -> impl Iterator<Item = String> {
    let mut rng = Rng::new(seed);
    std::iter::repeat_with(move || {
        let mut body = String::new();
        expr(&mut rng, 0, &mut body);
        shape_source(&body)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        let a: Vec<String> = shapes(7).take(200).collect();
        let b: Vec<String> = shapes(7).take(200).collect();
        assert_eq!(a, b, "same seed must give byte-identical shapes");
        let c: Vec<String> = shapes(8).take(200).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn shapes_parse_and_hold_one_loop() {
        for src in shapes(3).take(50) {
            let tu = nvc_frontend::parse_translation_unit(&src).expect("shape parses");
            let loops = nvc_frontend::extract_loops(&tu, &src);
            assert_eq!(loops.iter().filter(|l| l.is_innermost).count(), 1);
        }
    }

    #[test]
    fn zipf_prefers_low_ranks_and_stays_in_range() {
        let z = Zipf::new(100);
        let mut rng = Rng::new(1);
        let mut counts = [0usize; 100];
        for _ in 0..20_000 {
            counts[z.draw(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[9] * 5, "rank 0 ≈ 10× rank 9");
        assert!(counts[99] > 0, "the tail is reachable");
    }

    #[test]
    fn exponential_has_the_requested_mean() {
        let mut rng = Rng::new(2);
        let mean = (0..50_000).map(|_| rng.exponential(2.0)).sum::<f64>() / 50_000.0;
        assert!((mean - 2.0).abs() < 0.05, "mean {mean}");
    }
}
