//! The non-RL decision agents the paper compares against (Figure 7) and
//! the supervised extensions it proposes (§3.5, §5).
//!
//! * [`brute_force`] — exhaustive search over the whole `(VF, IF)` grid;
//!   the paper's oracle ("only 3% worse than the brute-force solution"
//!   refers to this);
//! * [`random_search`] — a uniformly random decision per loop, which the
//!   paper shows performing *worse* than the baseline ("this shows that
//!   the framework learned a structure in the observations");
//! * [`nns`] — nearest-neighbour search over trained code embeddings with
//!   brute-force labels (§3.5);
//! * [`decision_tree`] — a CART classifier over the same embeddings and
//!   labels (§3.5);
//! * [`ranker`] — the §5 "vanilla deep neural network" alternative: a
//!   network that learns to *rank* the VF/IF configurations by predicting
//!   the normalized execution time of each, i.e. a learned cost model.

pub mod brute_force;
pub mod decision_tree;
pub mod nns;
pub mod random_search;
pub mod ranker;

pub use brute_force::brute_force_best;
pub use decision_tree::DecisionTree;
pub use nns::NnsAgent;
pub use random_search::RandomAgent;
pub use ranker::Ranker;
