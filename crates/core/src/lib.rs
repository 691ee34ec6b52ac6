//! # NeuroVectorizer — end-to-end vectorization with deep RL
//!
//! A from-scratch Rust reproduction of *"NeuroVectorizer: End-to-End
//! Vectorization with Deep Reinforcement Learning"* (Haj-Ali, Ahmed,
//! Willke, Shao, Asanović, Stoica — CGO 2020).
//!
//! The pipeline (the paper's Figure 3):
//!
//! ```text
//! C source ──► loop extraction ──► code2vec embedding ──► PPO agent
//!    ▲                                                        │
//!    └────── pragma injection ◄── (VF, IF) decision ◄─────────┘
//!                   │
//!                   ▼
//!        compile (clamp to legality) ──► simulate ──► reward
//! ```
//!
//! * `compiler` — the compile-and-run service over the `nvc-*` substrate
//!   crates (frontend, IR, vectorizer, machine model, Polly-lite);
//! * `env` — the contextual-bandit environment (§3.3 reward, §3.4
//!   compile-time penalty);
//! * `framework` — training and the pragma-injecting inference product;
//! * [`experiments`] — drivers that regenerate every figure of the paper
//!   (printed by `nvc experiment <id|all>`);
//! * serving — [`NeuroVectorizer::serve`] moves a trained model into a
//!   long-lived `nvc-serve` handle: a sharded LRU decision cache plus
//!   batched policy inference, in process. [`ServeConfig`] (a field of
//!   [`NvConfig`]) holds the knobs. Over the wire every server speaks the
//!   hub's one JSON-lines protocol: `nvc serve` is a one-model hub on
//!   stdin/stdout ([`NeuroVectorizer::into_hub`]), and `nvc hub` serves N
//!   named checkpoints over TCP with weighted A/B routing, hot-swap
//!   `reload`, and a persistent decision cache versioned by checkpoint
//!   hash ([`HubConfig`], [`NeuroVectorizer::hub_loader`]);
//! * [`cli`] — the shared argument parser every `nvc` subcommand uses
//!   (unknown flags are errors, not silently ignored).
//!
//! # Quickstart
//!
//! ```
//! use neurovectorizer::{NeuroVectorizer, NvConfig, VectorizeEnv};
//! use nvc_datasets::generator;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Train on a small synthetic pool (use NvConfig::paper() for the
//! // full-size setup).
//! let cfg = NvConfig::fast();
//! let mut env = VectorizeEnv::new(generator::generate(0, 16), cfg.target.clone(), &cfg.embed);
//! let mut nv = NeuroVectorizer::new(cfg);
//! nv.train(&mut env, 2);
//!
//! // Inference: inject pragmas into new code.
//! let out = nv.vectorize_source(
//!     "float a[256]; float b[256];\nvoid f(int n) { for (int i = 0; i < n; i++) { a[i] = b[i]; } }",
//! )?;
//! assert!(out.contains("#pragma clang loop vectorize_width"));
//! # Ok(())
//! # }
//! ```

pub mod cli;
pub(crate) mod compiler;
pub(crate) mod env;
pub mod experiments;
pub(crate) mod framework;
pub use compiler::{CompileError, Compiler, LoopDecision, LoopReport, ProgramTiming};
pub use env::{LoopContext, VectorizeEnv, TIMEOUT_PENALTY};
pub use framework::{NeuroVectorizer, NvConfig};
pub use nvc_fleet::{
    ContentStore, FleetClient, FleetConfig, FleetResponse, RegistryClient, RegistryService,
};
pub use nvc_hub::{
    serve_registry, spawn_announcer, spawn_learner, AnnounceConfig, Hub, HubConfig, HubHandle,
    LearnConfig, LearnEvent, ModelSpec, ReportRecord,
};
pub use nvc_serve::{ServeConfig, ServeHandle};
