//! Online learning from serve traffic: journal → background retrain →
//! champion/challenger auto-promotion.
//!
//! The paper trains NeuroVectorizer offline on a fixed loop pool; a hub
//! serving live build traffic sees a strictly better dataset. This module
//! closes the loop:
//!
//! 1. **Journal** — clients echo the `key` from a vectorize response back
//!    through the `report` verb with a measured reward; the hub resolves
//!    the key to the decided `(sample, action)` and appends the triple to
//!    an append-mode [`Journal`] (the corpus survives restarts).
//! 2. **Retrain** — once enough reports accumulate, a background step
//!    fine-tunes a *challenger* checkpoint from the champion's weights on
//!    the corpus (the [`ChallengerTrainer`] hook; the CLI wires it to
//!    `PpoTrainer` over an `nvc_rl::ReplayEnv`).
//! 3. **A/B** — the challenger registers at low weight through the
//!    existing deterministic route split; per-cohort reward accumulates
//!    (Welford) keyed by `(model, checkpoint_hash)`, so every checkpoint
//!    generation gets a fresh cohort.
//! 4. **Promote / demote** — a Welch-style z-test on the cohort means
//!    decides: `z ≥ threshold` hot-swaps the champion to the challenger
//!    checkpoint via the existing atomic `reload` (fleet heartbeats pick
//!    the new hash up automatically); `z ≤ −threshold` parks the
//!    challenger at weight 0. A post-promotion guard compares the new
//!    champion generation against the pre-promotion cohort and rolls the
//!    swap back if it regresses.
//!
//! Every lifecycle event lands in a promotion log (append-mode journal)
//! for audit; `promoted` and `rollback` lines name the checkpoint file
//! the champion serves from then on.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use nvc_embed::PathSample;
use nvc_obs::json::{obj, Json};
use nvc_obs::{Counter, Journal};

use crate::{Hub, HubError};

/// A 64-bit hash as the 16 hex digits every journal line spells it in.
fn hex(name: &str, value: u64) -> (&str, Json) {
    (name, Json::from(format!("{value:016x}")))
}

/// Every integer up to this bound is an `f64` exactly; a journal index at
/// or above it was not written by [`ReportRecord::to_json_line`].
const MAX_EXACT_INDEX: f64 = (1u64 << 53) as f64;

/// Registry weight the challenger canaries at.
pub const CANARY_WEIGHT: u32 = 1;

/// Welch z the cohort comparison must clear (promotion at `≥ z`,
/// demotion at `≤ −z`).
pub const Z_THRESHOLD: f64 = 2.0;

/// One journaled `(sample, decision, measured_reward)` observation.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportRecord {
    /// Registry entry that made the decision.
    pub model: String,
    /// Checkpoint generation the decision came from.
    pub checkpoint_hash: u64,
    /// The sample hash (the client's correlation key).
    pub key: u64,
    /// Chosen vectorization-factor index.
    pub vf_idx: usize,
    /// Chosen interleave-factor index.
    pub if_idx: usize,
    /// Client-measured reward (§3.3 normalized improvement).
    pub reward: f64,
    /// The path-context sample the decision was made on.
    pub sample: PathSample,
}

impl ReportRecord {
    /// One JSON journal line.
    pub(crate) fn to_json_line(&self) -> String {
        let ints = |xs: &[u32]| Json::Arr(xs.iter().map(|&x| Json::from(x)).collect());
        obj(vec![
            ("model", Json::from(self.model.as_str())),
            hex("checkpoint_hash", self.checkpoint_hash),
            hex("key", self.key),
            ("vf_idx", Json::from(self.vf_idx)),
            ("if_idx", Json::from(self.if_idx)),
            ("reward", Json::from(self.reward)),
            ("starts", ints(&self.sample.starts)),
            ("paths", ints(&self.sample.paths)),
            ("ends", ints(&self.sample.ends)),
        ])
        .render()
    }

    /// Parses one journal line (the [`ReportRecord::to_json_line`]
    /// encoding). `vf_idx` and `if_idx` must be whole numbers in
    /// `0..2^53`, each element of `starts`, `paths` and `ends` a whole
    /// number in `0..2^32` (a [`PathSample`] row), and the three arrays
    /// must be equally long; anything else is an error, never a cast.
    pub(crate) fn from_json(v: &Json) -> Result<ReportRecord, String> {
        let hex = |field: &str| {
            v.get(field)
                .and_then(Json::as_str)
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .ok_or_else(|| format!("report record missing hex `{field}`"))
        };
        let index = |x: &Json, field: &str| {
            let f = x
                .as_f64()
                .ok_or_else(|| format!("non-numeric `{field}` in report record"))?;
            if f >= 0.0 && f.fract() == 0.0 && f < MAX_EXACT_INDEX {
                Ok(f as usize)
            } else {
                Err(format!("`{field}` is not an index: {f}"))
            }
        };
        let int = |field: &str| {
            let x = v
                .get(field)
                .ok_or_else(|| format!("report record missing `{field}`"))?;
            index(x, field)
        };
        let rows = |field: &str| -> Result<Vec<u32>, String> {
            v.get(field)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("report record missing `{field}`"))?
                .iter()
                .map(|x| {
                    let i = index(x, field)?;
                    u32::try_from(i).map_err(|_| format!("`{field}` is not a table row: {i}"))
                })
                .collect()
        };
        let sample = PathSample {
            starts: rows("starts")?,
            paths: rows("paths")?,
            ends: rows("ends")?,
        };
        if sample.starts.len() != sample.paths.len() || sample.ends.len() != sample.paths.len() {
            return Err(format!(
                "report record has {} starts, {} paths and {} ends",
                sample.starts.len(),
                sample.paths.len(),
                sample.ends.len()
            ));
        }
        Ok(ReportRecord {
            model: v
                .get("model")
                .and_then(Json::as_str)
                .ok_or("report record missing `model`")?
                .to_string(),
            checkpoint_hash: hex("checkpoint_hash")?,
            key: hex("key")?,
            vf_idx: int("vf_idx")?,
            if_idx: int("if_idx")?,
            reward: v
                .get("reward")
                .and_then(Json::as_f64)
                .ok_or("report record missing `reward`")?,
            sample,
        })
    }
}

/// Welford-accumulated reward statistics of one `(model, checkpoint)`
/// cohort.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct Cohort {
    /// Observations.
    pub(crate) n: u64,
    /// Running mean reward.
    pub(crate) mean: f64,
    /// Sum of squared deviations (Welford's M2).
    m2: f64,
}

impl Cohort {
    /// Folds one observation in.
    pub(crate) fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Sample variance (0 below two observations).
    pub(crate) fn var(&self) -> f64 {
        if self.n > 1 {
            self.m2 / (self.n - 1) as f64
        } else {
            0.0
        }
    }
}

/// Welch's z-statistic for `mean(a) − mean(b)`. Positive means `a`
/// measured better. Degenerate zero-variance cohorts compare by mean
/// alone (±1e9 stand-ins for ±∞, 0 on an exact tie).
pub(crate) fn welch_z(a: &Cohort, b: &Cohort) -> f64 {
    if a.n == 0 || b.n == 0 {
        return 0.0;
    }
    let se = (a.var() / a.n as f64 + b.var() / b.n as f64).sqrt();
    let diff = a.mean - b.mean;
    if se == 0.0 {
        return if diff > 0.0 {
            1e9
        } else if diff < 0.0 {
            -1e9
        } else {
            0.0
        };
    }
    diff / se
}

/// Fine-tunes a challenger checkpoint: `(corpus, champion_checkpoint_path,
/// out_path)`. The CLI wires this to `NeuroVectorizer::restore` + a
/// `ReplayEnv` fine-tune; tests use stubs. Mirrors the
/// [`CheckpointLoader`](crate::CheckpointLoader) pattern so `nvc-hub`
/// stays independent of `nvc-core`.
pub type ChallengerTrainer =
    Box<dyn Fn(&[ReportRecord], &str, &str) -> Result<(), String> + Send + Sync>;

/// Knobs for the online-learning loop (`nvc hub --learn*` flags). What
/// they pace is [`Hub::learn_step`]; how often it runs is up to whoever
/// runs it — `nvc hub --learn` makes it a once-a-second
/// [`HubHandle::every`](crate::HubHandle::every) job.
#[derive(Debug, Clone, PartialEq)]
pub struct LearnConfig {
    /// Append-mode corpus journal (survives hub restarts).
    pub journal_path: String,
    /// Append-mode promotion/demotion/rollback audit log.
    pub promotion_log_path: Option<String>,
    /// The champion registry entry reports train against.
    pub champion: String,
    /// The challenger entry name the controller manages.
    pub challenger: String,
    /// The champion's checkpoint file — the warm-start weights.
    pub champion_checkpoint: String,
    /// Where the trainer writes the challenger checkpoint.
    pub challenger_checkpoint: String,
    /// Corpus size before the first fine-tune runs, and the number of
    /// *new* reports between retrains (the retrain cadence — see
    /// [`Hub::learn_step`]).
    pub min_reports: usize,
    /// Minimum observations per cohort before any verdict.
    pub min_cohort: u64,
}

impl Default for LearnConfig {
    fn default() -> Self {
        LearnConfig {
            journal_path: "learn.jsonl".to_string(),
            promotion_log_path: None,
            champion: "prod".to_string(),
            challenger: "challenger".to_string(),
            champion_checkpoint: String::new(),
            challenger_checkpoint: "challenger.ckpt".to_string(),
            min_reports: 50,
            min_cohort: 20,
        }
    }
}

/// A [`LearnConfig`] under which the controller could promote a loser,
/// or never decide.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LearnConfigError {
    /// `min_cohort` is below 2: one report has no variance, and a
    /// zero-variance cohort scores `z = ±1e9`.
    MinCohort,
    /// The challenger is the champion's own registry entry.
    ChallengerIsChampion,
}

impl std::fmt::Display for LearnConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            LearnConfigError::MinCohort => "min_cohort must be at least 2",
            LearnConfigError::ChallengerIsChampion => "challenger must not be the champion",
        })
    }
}

impl LearnConfig {
    /// Checks the settings "never promote a loser" rests on.
    ///
    /// # Errors
    ///
    /// The first [`LearnConfigError`] the configuration has.
    pub(crate) fn validate(&self) -> Result<(), LearnConfigError> {
        if self.min_cohort < 2 {
            Err(LearnConfigError::MinCohort)
        } else if self.champion == self.challenger {
            Err(LearnConfigError::ChallengerIsChampion)
        } else {
            Ok(())
        }
    }
}

/// Pre-promotion state kept so a regressing swap can be undone.
#[derive(Debug, Clone)]
struct RollbackGuard {
    /// Checkpoint path the champion served before the promotion.
    prev_path: String,
    /// The pre-promotion champion cohort (the baseline the new
    /// generation must not lose to).
    prev_cohort: Cohort,
    /// Hash the promotion installed — the guard only applies while the
    /// champion still serves it.
    promoted_hash: u64,
}

/// Everything the learning loop owns: corpus, cohorts, journals,
/// counters, and the trainer hook.
pub struct LearnState {
    cfg: LearnConfig,
    trainer: ChallengerTrainer,
    journal: Journal,
    promotion_log: Option<Journal>,
    corpus: Mutex<Vec<ReportRecord>>,
    cohorts: Mutex<HashMap<(String, u64), Cohort>>,
    /// Corpus length at the last fine-tune (train only on new data).
    trained_at: Mutex<usize>,
    /// The checkpoint path the champion currently serves (moves on
    /// promotion, restores on rollback).
    champion_path: Mutex<String>,
    rollback: Mutex<Option<RollbackGuard>>,
    pub(crate) reports: Counter,
    pub(crate) report_errors: Counter,
    pub(crate) trains: Counter,
    pub(crate) promotions: Counter,
    pub(crate) demotions: Counter,
    pub(crate) rollbacks: Counter,
}

impl std::fmt::Debug for LearnState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LearnState")
            .field("cfg", &self.cfg)
            .field("corpus", &self.corpus.lock().len())
            .finish_non_exhaustive()
    }
}

impl LearnState {
    /// Opens (append-mode) the corpus journal and promotion log, replays
    /// any existing journal lines into the in-memory corpus and cohorts.
    ///
    /// # Errors
    ///
    /// [`HubError::Io`] when a journal cannot be opened.
    pub(crate) fn new(
        cfg: LearnConfig,
        trainer: ChallengerTrainer,
    ) -> Result<LearnState, HubError> {
        // Replay before opening for append: the corpus must reflect
        // every line already on disk.
        let mut corpus = Vec::new();
        let mut cohorts: HashMap<(String, u64), Cohort> = HashMap::new();
        match std::fs::read_to_string(&cfg.journal_path) {
            Ok(text) => {
                for line in text.lines().filter(|l| !l.trim().is_empty()) {
                    let rec = Json::parse(line)
                        .map_err(|e| e.to_string())
                        .and_then(|v| ReportRecord::from_json(&v));
                    match rec {
                        Ok(rec) => {
                            cohorts
                                .entry((rec.model.clone(), rec.checkpoint_hash))
                                .or_default()
                                .push(rec.reward);
                            corpus.push(rec);
                        }
                        Err(e) => {
                            return Err(HubError::Io(format!(
                                "corrupt learning journal {}: {e}",
                                cfg.journal_path
                            )))
                        }
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(HubError::Io(format!("read {}: {e}", cfg.journal_path))),
        }
        let journal = Journal::append(&cfg.journal_path)
            .map_err(|e| HubError::Io(format!("open {}: {e}", cfg.journal_path)))?;
        let promotion_log = match &cfg.promotion_log_path {
            Some(p) => {
                Some(Journal::append(p).map_err(|e| HubError::Io(format!("open {p}: {e}")))?)
            }
            None => None,
        };
        Ok(LearnState {
            champion_path: Mutex::new(cfg.champion_checkpoint.clone()),
            cfg,
            trainer,
            journal,
            promotion_log,
            corpus: Mutex::new(corpus),
            cohorts: Mutex::new(cohorts),
            trained_at: Mutex::new(0),
            rollback: Mutex::new(None),
            reports: Counter::default(),
            report_errors: Counter::default(),
            trains: Counter::default(),
            promotions: Counter::default(),
            demotions: Counter::default(),
            rollbacks: Counter::default(),
        })
    }

    /// The learning configuration.
    pub fn config(&self) -> &LearnConfig {
        &self.cfg
    }

    /// Journals and accumulates one report.
    pub(crate) fn record(&self, rec: ReportRecord) {
        self.journal.write_line(&rec.to_json_line());
        self.cohorts
            .lock()
            .entry((rec.model.clone(), rec.checkpoint_hash))
            .or_default()
            .push(rec.reward);
        self.corpus.lock().push(rec);
        self.reports.inc();
    }

    /// Observations accumulated so far (including replayed journal
    /// lines).
    pub(crate) fn corpus_len(&self) -> usize {
        self.corpus.lock().len()
    }

    /// The reward cohort of one `(model, checkpoint)` generation.
    pub(crate) fn cohort(&self, model: &str, checkpoint_hash: u64) -> Option<Cohort> {
        self.cohorts
            .lock()
            .get(&(model.to_string(), checkpoint_hash))
            .copied()
    }

    /// Appends one event line to the promotion log (no-op without one).
    fn log_event(&self, event: &str, members: Vec<(&str, Json)>) {
        if let Some(log) = &self.promotion_log {
            let mut line = vec![("event", Json::from(event))];
            line.extend(members);
            log.write_line(&obj(line).render());
        }
    }
}

/// What one controller step did (tests assert on these; the promotion
/// log records them durably).
#[derive(Debug, Clone, PartialEq)]
pub enum LearnEvent {
    /// A challenger checkpoint was fine-tuned from `reports`
    /// observations.
    Trained {
        /// Corpus size the fine-tune saw.
        reports: usize,
    },
    /// The challenger (re)registered at canary weight.
    Canary {
        /// The challenger checkpoint's content hash.
        checkpoint_hash: u64,
    },
    /// The champion hot-swapped to the challenger checkpoint.
    Promoted {
        /// The winning Welch z.
        z: f64,
        /// The promoted checkpoint's content hash.
        checkpoint_hash: u64,
    },
    /// The challenger lost its A/B and was parked at weight 0.
    Demoted {
        /// The losing Welch z.
        z: f64,
    },
    /// The post-promotion guard undid a regressing swap.
    RolledBack {
        /// The regression's Welch z.
        z: f64,
    },
}

impl Hub {
    /// One synchronous controller step: fine-tune when enough new
    /// reports accumulated, deploy the challenger at canary weight, run
    /// the A/B verdict, and check the post-promotion guard. Returns the
    /// events that fired (empty when learning is off or nothing was
    /// ready). `nvc hub --learn` runs it as a
    /// [`HubHandle::every`](crate::HubHandle::every) job; tests call it
    /// directly.
    pub fn learn_step(&self) -> Vec<LearnEvent> {
        let Some(ls) = self.learning() else {
            return Vec::new();
        };
        let ls = Arc::clone(ls);
        let mut events = Vec::new();
        self.learn_train(&ls, &mut events);
        self.learn_verdict(&ls, &mut events);
        self.learn_rollback_guard(&ls, &mut events);
        events
    }

    /// Phase 1: fine-tune a challenger when the corpus has grown.
    fn learn_train(&self, ls: &LearnState, events: &mut Vec<LearnEvent>) {
        let corpus_len = ls.corpus_len();
        let mut trained_at = ls.trained_at.lock();
        // `min_reports` is also the retrain cadence: a fine-tune changes
        // the challenger's checkpoint hash and therefore opens a fresh
        // (empty) A/B cohort, so retraining on every new report would
        // starve the verdict forever under continuous traffic. Waiting
        // for `min_reports` *new* observations leaves a window in which
        // the canary cohort can fill and verdicts run.
        if corpus_len < *trained_at + ls.cfg.min_reports {
            return;
        }
        let champion_path = ls.champion_path.lock().clone();
        let records = ls.corpus.lock().clone();
        match (ls.trainer)(&records, &champion_path, &ls.cfg.challenger_checkpoint) {
            Ok(()) => {
                *trained_at = corpus_len;
                ls.trains.inc();
                ls.log_event("trained", vec![("reports", Json::from(corpus_len))]);
                events.push(LearnEvent::Trained {
                    reports: corpus_len,
                });
                match self.deploy_challenger(ls) {
                    Ok(hash) => {
                        ls.log_event(
                            "canary",
                            vec![
                                ("model", Json::from(ls.cfg.challenger.as_str())),
                                hex("checkpoint_hash", hash),
                                ("weight", Json::from(CANARY_WEIGHT)),
                            ],
                        );
                        events.push(LearnEvent::Canary {
                            checkpoint_hash: hash,
                        });
                    }
                    Err(e) => eprintln!("nvc hub: challenger deploy failed: {e}"),
                }
            }
            Err(e) => eprintln!("nvc hub: challenger training failed: {e}"),
        }
    }

    /// Registers (first time) or reloads the challenger entry from the
    /// freshly written checkpoint, at canary weight.
    fn deploy_challenger(&self, ls: &LearnState) -> Result<u64, HubError> {
        let path = &ls.cfg.challenger_checkpoint;
        if self.registry().get(&ls.cfg.challenger).is_some() {
            return self.reload(&ls.cfg.challenger, path, Some(CANARY_WEIGHT));
        }
        let loader = self.loader.as_ref().ok_or(HubError::NoLoader)?;
        let (model, hash) = loader(path).map_err(HubError::Loader)?;
        self.register(crate::ModelSpec {
            name: ls.cfg.challenger.clone(),
            weight: CANARY_WEIGHT,
            checkpoint_hash: hash,
            model,
        })?;
        Ok(hash)
    }

    /// Phase 2: the A/B verdict between live challenger and champion
    /// cohorts.
    fn learn_verdict(&self, ls: &LearnState, events: &mut Vec<LearnEvent>) {
        let (Some(champ), Some(chall)) = (
            self.registry().get(&ls.cfg.champion),
            self.registry().get(&ls.cfg.challenger),
        ) else {
            return;
        };
        // Same content, or a parked challenger: nothing to decide.
        if champ.checkpoint_hash == chall.checkpoint_hash || chall.weight == 0 {
            return;
        }
        let (Some(cc), Some(hc)) = (
            ls.cohort(&chall.name, chall.checkpoint_hash),
            ls.cohort(&champ.name, champ.checkpoint_hash),
        ) else {
            return;
        };
        if cc.n < ls.cfg.min_cohort || hc.n < ls.cfg.min_cohort {
            return;
        }
        let z = welch_z(&cc, &hc);
        if z >= Z_THRESHOLD {
            self.promote_challenger(ls, z, hc, events);
        } else if z <= -Z_THRESHOLD {
            // Park the loser: weight 0 stops A/B traffic; the next
            // fine-tune (with more data) re-deploys at canary weight.
            match self.reload(&ls.cfg.challenger, &ls.cfg.challenger_checkpoint, Some(0)) {
                Ok(_) => {
                    ls.demotions.inc();
                    ls.log_event(
                        "demoted",
                        vec![
                            ("model", Json::from(ls.cfg.challenger.as_str())),
                            ("z", Json::from(z)),
                        ],
                    );
                    events.push(LearnEvent::Demoted { z });
                }
                Err(e) => eprintln!("nvc hub: challenger demotion failed: {e}"),
            }
        }
    }

    /// The winning path: copy the challenger checkpoint to a stable
    /// generation file (later retrains overwrite the working path),
    /// hot-swap the champion onto it, arm the rollback guard, and park
    /// the canary (its content is now the champion).
    fn promote_challenger(
        &self,
        ls: &LearnState,
        z: f64,
        pre_promotion_cohort: Cohort,
        events: &mut Vec<LearnEvent>,
    ) {
        let gen = ls.promotions.get() + 1;
        let promoted_path = format!("{}.gen{gen}", ls.cfg.challenger_checkpoint);
        if let Err(e) = std::fs::copy(&ls.cfg.challenger_checkpoint, &promoted_path) {
            eprintln!("nvc hub: promotion copy failed: {e}");
            return;
        }
        let prev_path = ls.champion_path.lock().clone();
        match self.reload(&ls.cfg.champion, &promoted_path, None) {
            Ok(new_hash) => {
                ls.promotions.inc();
                ls.log_event(
                    "promoted",
                    vec![
                        ("model", Json::from(ls.cfg.champion.as_str())),
                        hex("checkpoint_hash", new_hash),
                        ("checkpoint", Json::from(promoted_path.as_str())),
                        ("z", Json::from(z)),
                    ],
                );
                *ls.champion_path.lock() = promoted_path;
                *ls.rollback.lock() = Some(RollbackGuard {
                    prev_path,
                    prev_cohort: pre_promotion_cohort,
                    promoted_hash: new_hash,
                });
                events.push(LearnEvent::Promoted {
                    z,
                    checkpoint_hash: new_hash,
                });
                if let Err(e) =
                    self.reload(&ls.cfg.challenger, &ls.cfg.challenger_checkpoint, Some(0))
                {
                    eprintln!("nvc hub: post-promotion canary park failed: {e}");
                }
            }
            Err(e) => eprintln!("nvc hub: promotion reload failed: {e}"),
        }
    }

    /// Phase 3: the post-promotion guard. While the champion still
    /// serves a promoted checkpoint, its new cohort must not
    /// significantly lose to the pre-promotion cohort — if it does, the
    /// previous checkpoint is reloaded.
    fn learn_rollback_guard(&self, ls: &LearnState, events: &mut Vec<LearnEvent>) {
        let Some(guard) = ls.rollback.lock().clone() else {
            return;
        };
        let Some(champ) = self.registry().get(&ls.cfg.champion) else {
            return;
        };
        if champ.checkpoint_hash != guard.promoted_hash {
            // Someone reloaded the champion out from under the guard;
            // the stored baseline no longer applies.
            *ls.rollback.lock() = None;
            return;
        }
        let Some(now) = ls.cohort(&champ.name, champ.checkpoint_hash) else {
            return;
        };
        if now.n < ls.cfg.min_cohort {
            return;
        }
        let z = welch_z(&now, &guard.prev_cohort);
        if z <= -Z_THRESHOLD {
            match self.reload(&ls.cfg.champion, &guard.prev_path, None) {
                Ok(_) => {
                    ls.rollbacks.inc();
                    *ls.champion_path.lock() = guard.prev_path.clone();
                    *ls.rollback.lock() = None;
                    ls.log_event(
                        "rollback",
                        vec![
                            ("model", Json::from(ls.cfg.champion.as_str())),
                            ("checkpoint", Json::from(guard.prev_path.as_str())),
                            ("z", Json::from(z)),
                        ],
                    );
                    events.push(LearnEvent::RolledBack { z });
                }
                Err(e) => eprintln!("nvc hub: rollback reload failed: {e}"),
            }
        } else if z >= Z_THRESHOLD {
            // The promotion clearly held up; release the guard.
            *ls.rollback.lock() = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{stub_spec, StubModel, SRC};
    use crate::HubConfig;
    use nvc_obs::json::obj;
    use nvc_serve::{DecisionModel, ServeConfig};

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("nvc-learn-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample(base: u32) -> PathSample {
        PathSample {
            starts: vec![base, base + 1],
            paths: vec![base * 2, base * 2 + 1],
            ends: vec![base + 3, base + 4],
        }
    }

    /// A tiny deterministic generator (no rand dependency in this
    /// crate): xorshift64*, uniform in [-1, 1).
    struct Noise(u64);

    impl Noise {
        fn next(&mut self) -> f64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            (x >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        }
    }

    /// Loader used across tests: the checkpoint file's content is a
    /// stub tag; hash = tag.
    fn tag_loader() -> crate::CheckpointLoader {
        Box::new(|path| {
            let tag: usize = std::fs::read_to_string(path)
                .map_err(|e| e.to_string())?
                .trim()
                .parse()
                .map_err(|_| format!("bad stub checkpoint {path}"))?;
            Ok((
                Arc::new(StubModel::new(tag)) as Arc<dyn DecisionModel>,
                tag as u64,
            ))
        })
    }

    /// A trainer stub that writes `tag` as the challenger checkpoint.
    fn tag_trainer(tag: usize) -> ChallengerTrainer {
        Box::new(move |_records, _champion, out| {
            std::fs::write(out, tag.to_string()).map_err(|e| e.to_string())
        })
    }

    fn learning_hub(dir: &std::path::Path, cfg: LearnConfig, trainer_tag: usize) -> Hub {
        let champion_ckpt = dir.join("champion.ckpt");
        std::fs::write(&champion_ckpt, "0").unwrap();
        let cfg = LearnConfig {
            journal_path: dir.join("learn.jsonl").to_string_lossy().to_string(),
            promotion_log_path: Some(dir.join("promotions.jsonl").to_string_lossy().to_string()),
            champion_checkpoint: champion_ckpt.to_string_lossy().to_string(),
            challenger_checkpoint: dir.join("challenger.ckpt").to_string_lossy().to_string(),
            ..cfg
        };
        let hub = Hub::new(HubConfig::default(), ServeConfig::default().with_workers(1))
            .with_loader(tag_loader())
            .with_learning(cfg, tag_trainer(trainer_tag))
            .unwrap();
        hub.register(stub_spec("prod", 3, 0)).unwrap();
        hub
    }

    /// The `checkpoint` path of the promotion log's one `event` line.
    fn logged_checkpoint(log: &str, event: &str) -> String {
        let lines: Vec<Json> = log
            .lines()
            .map(|l| Json::parse(l).unwrap())
            .filter(|j| j.get("event").and_then(Json::as_str) == Some(event))
            .collect();
        assert_eq!(lines.len(), 1, "one {event} line in:\n{log}");
        let path = lines[0].get("checkpoint").and_then(Json::as_str);
        path.unwrap_or_else(|| panic!("{event} names no checkpoint"))
            .to_string()
    }

    fn feed(hub: &Hub, model: &str, hash: u64, n: usize, mean: f64, noise: &mut Noise) {
        for i in 0..n {
            hub.learning().unwrap().record(ReportRecord {
                model: model.to_string(),
                checkpoint_hash: hash,
                key: i as u64,
                vf_idx: 1,
                if_idx: 1,
                reward: mean + 0.2 * noise.next(),
                sample: sample(i as u32 % 7),
            });
        }
    }

    #[test]
    fn welch_z_direction_and_degenerate_cases() {
        let mut a = Cohort::default();
        let mut b = Cohort::default();
        assert_eq!(welch_z(&a, &b), 0.0, "empty cohorts are a tie");
        for i in 0..30 {
            a.push(0.8 + 0.01 * (i % 3) as f64);
            b.push(0.2 + 0.01 * (i % 3) as f64);
        }
        assert!(welch_z(&a, &b) > 10.0);
        assert!(welch_z(&b, &a) < -10.0);
        // Zero variance, distinct means: decisive either way.
        let mut c = Cohort::default();
        let mut d = Cohort::default();
        for _ in 0..5 {
            c.push(1.0);
            d.push(0.0);
        }
        assert!(welch_z(&c, &d) > 1e8);
        assert!(welch_z(&d, &c) < -1e8);
        assert_eq!(welch_z(&c, &c.clone()), 0.0);
    }

    #[test]
    fn report_record_round_trips_through_the_journal_encoding() {
        let rec = ReportRecord {
            model: "prod".to_string(),
            checkpoint_hash: 0xAB,
            key: 0xDEAD_BEEF,
            vf_idx: 3,
            if_idx: 2,
            reward: -0.125,
            sample: sample(5),
        };
        let line = rec.to_json_line();
        let parsed = ReportRecord::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(parsed, rec);
        // A line journaled while the indices were `usize` reads as the
        // same record: the encoding never depended on their width.
        let old = r#"{"model":"prod","checkpoint_hash":"00000000000000ab","key":"00000000deadbeef","vf_idx":3,"if_idx":2,"reward":-0.125,"starts":[5,6],"paths":[10,11],"ends":[8,9]}"#;
        assert_eq!(line, old);
        assert_eq!(ReportRecord::from_json(&Json::parse(old).unwrap()), Ok(rec));
    }

    /// A journal line whose indices are not whole, non-negative and
    /// exactly representable, whose table rows do not fit a `u32`, or
    /// whose index arrays differ in length, is refused — it used to be
    /// cast (`-1` → 0, `2.7` → 2, `1e300` → `usize::MAX`) or trained on
    /// truncated.
    #[test]
    fn report_record_refuses_what_is_not_an_index() {
        let good = ReportRecord {
            model: "prod".to_string(),
            checkpoint_hash: 1,
            key: 2,
            vf_idx: 0,
            if_idx: 1,
            reward: 0.5,
            sample: sample(3),
        }
        .to_json_line();
        let with = |field: &str, value: &str| {
            let v = Json::parse(&good).unwrap();
            let Json::Obj(mut members) = v else {
                unreachable!()
            };
            for (k, x) in members.iter_mut() {
                if k == field {
                    *x = Json::parse(value).unwrap();
                }
            }
            ReportRecord::from_json(&Json::Obj(members))
        };
        assert!(with("starts", "[3, 4]").is_ok());
        assert!(with("paths", "[4294967295, 7]").is_ok());
        for (field, value) in [
            ("starts", "[-1, 4]"),
            ("paths", "[2.7, 7]"),
            ("ends", "[1e300, 7]"),
            ("ends", "[9007199254740992, 7]"),
            ("paths", "[4294967296, 7]"),
            ("starts", "[3, 1099511627776]"),
            ("starts", "[\"3\", 4]"),
            ("vf_idx", "-1"),
            ("if_idx", "0.5"),
            ("starts", "[3]"),
            ("paths", "[6, 7, 8]"),
            ("ends", "[]"),
        ] {
            assert!(
                with(field, value).is_err(),
                "{field} = {value} must be refused"
            );
        }
    }

    #[test]
    fn report_verb_requires_learning_and_valid_fields() {
        let hub = Hub::new(HubConfig::default(), ServeConfig::default().with_workers(1));
        hub.register(stub_spec("prod", 1, 0)).unwrap();
        let (resp, _) = hub.handle_line(r#"{"op":"report","model":"prod","key":"0","reward":1}"#);
        let v = Json::parse(&resp).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        assert!(v
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("learning"));

        let dir = tmp_dir("report-verb");
        let hub = learning_hub(&dir, LearnConfig::default(), 7);
        // Serve once to learn a key, then report against it.
        let vec_req = obj(vec![
            ("op", Json::from("vectorize")),
            ("source", Json::from(SRC)),
            ("model", Json::from("prod")),
        ])
        .render();
        let v = Json::parse(&hub.handle_line(&vec_req).0).unwrap();
        let key = v.get("loops").unwrap().as_array().unwrap()[0]
            .get("key")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();

        let report = |model: &str, key: &str, reward: &str| {
            let line = format!(
                "{{\"op\":\"report\",\"model\":\"{model}\",\"key\":\"{key}\",\"reward\":{reward}}}"
            );
            Json::parse(&hub.handle_line(&line).0).unwrap()
        };
        let ok = report("prod", &key, "0.4");
        assert_eq!(ok.get("ok").unwrap().as_bool(), Some(true), "{ok:?}");
        assert_eq!(hub.learning().unwrap().corpus_len(), 1);
        let corpus = hub.learning().unwrap().corpus.lock().clone();
        assert_eq!(corpus[0].model, "prod");
        assert_eq!(corpus[0].reward, 0.4);

        // Error paths: unknown model, unknown key, malformed reward.
        assert_eq!(
            report("ghost", &key, "0.4").get("ok").unwrap().as_bool(),
            Some(false)
        );
        assert_eq!(
            report("prod", "ffffffffffffffff", "0.4")
                .get("ok")
                .unwrap()
                .as_bool(),
            Some(false)
        );
        assert_eq!(
            report("prod", &key, "\"high\"")
                .get("ok")
                .unwrap()
                .as_bool(),
            Some(false)
        );
        assert_eq!(hub.learning().unwrap().corpus_len(), 1);
        assert!(hub.learning().unwrap().report_errors.get() >= 3);

        // A key absent from an entry's warm set (this entry never served
        // the loop) correlates through the `source` fallback:
        // re-extraction recovers the sample, the deterministic decide
        // path recomputes the decision.
        hub.register(stub_spec("cold", 0, 0)).unwrap();
        // Without the source, the cold entry cannot correlate the key…
        let no_source =
            format!("{{\"op\":\"report\",\"model\":\"cold\",\"key\":\"{key}\",\"reward\":0.5}}");
        let v = Json::parse(&hub.handle_line(&no_source).0).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        // …and with it, re-extraction recovers the sample and the
        // deterministic decide path recomputes the decision.
        let fallback = format!(
            "{{\"op\":\"report\",\"model\":\"cold\",\"key\":\"{key}\",\"reward\":0.5,\"source\":{}}}",
            Json::from(SRC).render()
        );
        let v = Json::parse(&hub.handle_line(&fallback).0).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true), "{v:?}");

        // Metrics surface the learning section.
        let (resp, _) = hub.handle_line(r#"{"op":"metrics"}"#);
        let stats = Json::parse(&resp).unwrap();
        let learning = stats.get("stats").unwrap().get("learning").unwrap().clone();
        assert_eq!(learning.get("corpus").unwrap().as_f64(), Some(2.0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `with_learning` refuses `cfg` with `expected` before it opens the
    /// journal.
    fn assert_refused(tag: &str, cfg: LearnConfig, expected: LearnConfigError) {
        let dir = tmp_dir(tag);
        let journal = dir.join("learn.jsonl");
        let cfg = LearnConfig {
            journal_path: journal.to_string_lossy().to_string(),
            ..cfg
        };
        let err = Hub::new(HubConfig::default(), ServeConfig::default().with_workers(1))
            .with_learning(cfg, tag_trainer(1))
            .err();
        assert_eq!(err, Some(HubError::Learn(expected)));
        assert!(!journal.exists(), "a refused config opened the journal");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One zero-variance report per side would score `z = ±1e9`.
    #[test]
    fn a_cohort_below_two_is_refused() {
        assert_eq!(LearnConfig::default().validate(), Ok(()));
        for n in [0, 1] {
            let cfg = LearnConfig {
                min_cohort: n,
                ..LearnConfig::default()
            };
            assert_refused(&format!("cohort-{n}"), cfg, LearnConfigError::MinCohort);
        }
    }

    /// The champion's own entry would reload as its canary.
    #[test]
    fn a_challenger_named_as_the_champion_is_refused() {
        let cfg = LearnConfig {
            challenger: "prod".to_string(),
            ..LearnConfig::default()
        };
        assert_refused("same-name", cfg, LearnConfigError::ChallengerIsChampion);
    }

    #[test]
    fn journal_survives_a_hub_restart() {
        let dir = tmp_dir("restart");
        let cfg = LearnConfig {
            min_reports: 1_000_000, // never train in this test
            ..LearnConfig::default()
        };
        {
            let hub = learning_hub(&dir, cfg.clone(), 7);
            let mut noise = Noise(11);
            feed(&hub, "prod", 0, 5, 0.4, &mut noise);
            assert_eq!(hub.learning().unwrap().corpus_len(), 5);
        }
        // A new hub over the same journal path replays the corpus.
        let hub = learning_hub(&dir, cfg, 7);
        let ls = hub.learning().unwrap();
        assert_eq!(ls.corpus_len(), 5);
        let cohort = ls.cohort("prod", 0).unwrap();
        assert_eq!(cohort.n, 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn controller_trains_canaries_and_promotes_a_winner() {
        let dir = tmp_dir("promote");
        let cfg = LearnConfig {
            min_reports: 10,
            min_cohort: 20,
            ..LearnConfig::default()
        };
        let hub = learning_hub(&dir, cfg, 7);
        let mut noise = Noise(3);

        // Not enough reports yet: the step is a no-op.
        feed(&hub, "prod", 0, 5, 0.2, &mut noise);
        assert!(hub.learn_step().is_empty());

        // Enough: train + canary.
        feed(&hub, "prod", 0, 20, 0.2, &mut noise);
        let events = hub.learn_step();
        assert!(events.contains(&LearnEvent::Trained { reports: 25 }));
        assert!(events.contains(&LearnEvent::Canary { checkpoint_hash: 7 }));
        let chall = hub.registry().get("challenger").unwrap();
        assert_eq!(chall.weight, 1);
        assert_eq!(chall.checkpoint_hash, 7);

        // The challenger measures clearly better → promotion via the
        // atomic reload, canary parked, rollback guard armed.
        feed(&hub, "challenger", 7, 30, 0.8, &mut noise);
        let events = hub.learn_step();
        let promoted = events
            .iter()
            .find_map(|e| match e {
                LearnEvent::Promoted { z, checkpoint_hash } => Some((*z, *checkpoint_hash)),
                _ => None,
            })
            .expect("winner must promote");
        assert!(promoted.0 >= 2.0);
        assert_eq!(promoted.1, 7);
        let champ = hub.registry().get("prod").unwrap();
        assert_eq!(
            champ.checkpoint_hash, 7,
            "champion serves the promoted hash"
        );
        assert_eq!(champ.weight, 3, "promotion keeps the champion's weight");
        assert_eq!(hub.registry().get("challenger").unwrap().weight, 0);
        assert_eq!(hub.learning().unwrap().promotions.get(), 1);

        // The promotion log recorded the lifecycle, and names the
        // generation file the champion now serves.
        let log = std::fs::read_to_string(dir.join("promotions.jsonl")).unwrap();
        assert!(log.contains("\"event\":\"trained\""));
        assert!(log.contains("\"event\":\"canary\""));
        let gen1 = dir
            .join("challenger.ckpt.gen1")
            .to_string_lossy()
            .to_string();
        assert_eq!(logged_checkpoint(&log, "promoted"), gen1);
        assert_eq!(std::fs::read_to_string(&gen1).unwrap(), "7");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn losing_challenger_is_demoted_and_never_promoted_under_noise() {
        // The promotion-safety matrix: across seeds, with noisy rewards,
        // a challenger whose true mean is *worse* must never be
        // promoted — zero wrong-direction swaps.
        for seed in [1u64, 2, 3, 5, 8, 13] {
            let dir = tmp_dir(&format!("safety-{seed}"));
            let cfg = LearnConfig {
                min_reports: 10,
                min_cohort: 25,
                ..LearnConfig::default()
            };
            let hub = learning_hub(&dir, cfg, 7);
            let mut noise = Noise(seed);
            feed(&hub, "prod", 0, 30, 0.5, &mut noise);
            hub.learn_step(); // train + canary
            assert!(hub.registry().get("challenger").is_some());
            // Noisy but truly worse challenger cohort, fed in slices
            // with a verdict attempt after each.
            for _ in 0..8 {
                feed(&hub, "challenger", 7, 10, 0.3, &mut noise);
                feed(&hub, "prod", 0, 10, 0.5, &mut noise);
                for e in hub.learn_step() {
                    assert!(
                        !matches!(e, LearnEvent::Promoted { .. }),
                        "seed {seed}: losing challenger promoted"
                    );
                }
            }
            let champ = hub.registry().get("prod").unwrap();
            assert_eq!(champ.checkpoint_hash, 0, "seed {seed}: champion swapped");
            assert_eq!(hub.learning().unwrap().promotions.get(), 0);
            // The loser was eventually parked.
            assert_eq!(hub.registry().get("challenger").unwrap().weight, 0);
            assert!(hub.learning().unwrap().demotions.get() >= 1);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn regressing_promotion_rolls_back() {
        let dir = tmp_dir("rollback");
        let cfg = LearnConfig {
            min_reports: 10,
            min_cohort: 20,
            ..LearnConfig::default()
        };
        let hub = learning_hub(&dir, cfg, 7);
        let mut noise = Noise(9);
        feed(&hub, "prod", 0, 25, 0.5, &mut noise);
        hub.learn_step();
        // The A/B looked great (lucky cohort)…
        feed(&hub, "challenger", 7, 25, 0.9, &mut noise);
        let events = hub.learn_step();
        assert!(events
            .iter()
            .any(|e| matches!(e, LearnEvent::Promoted { .. })));
        assert_eq!(hub.registry().get("prod").unwrap().checkpoint_hash, 7);
        // …but the promoted generation measures much worse than the
        // pre-promotion baseline → the guard restores the old champion.
        feed(&hub, "prod", 7, 25, 0.1, &mut noise);
        let events = hub.learn_step();
        assert!(
            events
                .iter()
                .any(|e| matches!(e, LearnEvent::RolledBack { .. })),
            "{events:?}"
        );
        assert_eq!(
            hub.registry().get("prod").unwrap().checkpoint_hash,
            0,
            "rollback restores the previous checkpoint"
        );
        assert_eq!(hub.learning().unwrap().rollbacks.get(), 1);
        // Both events name the file they installed.
        let log = std::fs::read_to_string(dir.join("promotions.jsonl")).unwrap();
        assert_eq!(
            logged_checkpoint(&log, "promoted"),
            dir.join("challenger.ckpt.gen1").to_string_lossy()
        );
        assert_eq!(
            logged_checkpoint(&log, "rollback"),
            dir.join("champion.ckpt").to_string_lossy()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
