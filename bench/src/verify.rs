//! Response verification: every served decision is compared with the
//! committed expected table its `checkpoint_hash` stamp selects.

use std::collections::BTreeMap;

use neurovectorizer::Compiler;
use nvc_serve::Json;

use crate::fixtures::Fixtures;
use crate::stats;

/// One served decision: `(header line, VF, IF)`.
type ServedLoop = (u32, u32, u32);

/// Running tally of one workload's operations.
pub struct Tally<'a> {
    fx: &'a Fixtures,
    /// Checkpoint hashes this workload may be served by.
    allowed: Vec<u64>,
    pub attempted: usize,
    pub failed: usize,
    /// The first few failure messages, for the report.
    pub failures: Vec<String>,
    /// Loops answered from a cache / computed by the model.
    pub cached_loops: usize,
    pub computed_loops: usize,
    /// Responses per checkpoint stamp.
    pub by_stamp: BTreeMap<u64, usize>,
    /// Distinct `(source, stamp)` pairs served, with their decisions —
    /// the input of the speed-up geomean.
    served: BTreeMap<(usize, u64), Vec<ServedLoop>>,
}

const KEPT_FAILURES: usize = 5;

impl<'a> Tally<'a> {
    pub fn new(fx: &'a Fixtures, tables: &[&str]) -> Self {
        Tally {
            fx,
            allowed: tables
                .iter()
                .map(|t| fx.expected[t].checkpoint_hash)
                .collect(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            cached_loops: 0,
            computed_loops: 0,
            by_stamp: BTreeMap::new(),
            served: BTreeMap::new(),
        }
    }

    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.failures.len() < KEPT_FAILURES {
            self.failures.push(why);
        }
    }

    /// Counts ops that never got a response (transport failure).
    pub fn fail_missing(&mut self, n: usize, why: &str) {
        for _ in 0..n {
            self.fail(why.to_string());
        }
    }

    /// Checks one raw response line for catalog source `idx`; `id` is the
    /// request id the response must echo.
    pub fn check_line(&mut self, idx: usize, id: usize, line: &[u8]) {
        let parsed = std::str::from_utf8(line)
            .map_err(|e| e.to_string())
            .and_then(|text| Json::parse(text.trim_end()).map_err(|e| e.to_string()));
        match parsed {
            Err(e) => self.fail(format!("op {id}: unparsable response: {e}")),
            Ok(v) => {
                if v.get("id").and_then(Json::as_str) != Some(id.to_string().as_str()) {
                    return self.fail(format!("op {id}: response id is {:?}", v.get("id")));
                }
                if v.get("ok").and_then(Json::as_bool) != Some(true) {
                    return self.fail(format!("op {id}: {:?}", v.get("error")));
                }
                let hash = v
                    .get("checkpoint_hash")
                    .and_then(Json::as_str)
                    .and_then(|h| u64::from_str_radix(h, 16).ok());
                self.check(idx, id, hash, v.get("loops"));
            }
        }
    }

    /// Checks an already-parsed decision list against the table `hash`
    /// selects.
    pub fn check(&mut self, idx: usize, id: usize, hash: Option<u64>, loops: Option<&Json>) {
        let Some(hash) = hash.filter(|h| self.allowed.contains(h)) else {
            return self.fail(format!("op {id}: unknown checkpoint stamp {hash:x?}"));
        };
        let table = self.fx.table_for(hash).expect("allowed stamps have tables");
        let mut served = Vec::new();
        let mut cached = 0;
        for l in loops.and_then(Json::as_array).unwrap_or(&[]) {
            let field = |k: &str| l.get(k).and_then(Json::as_f64).map(|n| n as u32);
            let (Some(line), Some(vf), Some(if_)) = (field("line"), field("vf"), field("if"))
            else {
                return self.fail(format!("op {id}: malformed loop report"));
            };
            served.push((line, vf, if_));
            cached += usize::from(l.get("cached").and_then(Json::as_bool) == Some(true));
        }
        let expected = &table.rows[idx];
        if !served
            .iter()
            .map(|&(_, v, i)| (v, i))
            .eq(expected.iter().copied())
        {
            return self.fail(format!(
                "op {id}: source {idx} under {hash:016x} served {served:?}, expected {expected:?}"
            ));
        }
        self.attempted += 1;
        self.cached_loops += cached;
        self.computed_loops += served.len() - cached;
        *self.by_stamp.entry(hash).or_default() += 1;
        self.served.entry((idx, hash)).or_insert(served);
    }

    /// Geomean, over the distinct `(source, checkpoint)` pairs served, of
    /// baseline cycles ÷ cycles under the served decision.
    pub fn speedup_geomean(&self) -> Option<f64> {
        let compiler = Compiler::new(crate::fixtures::fast_config().target);
        stats::geomean(
            self.served
                .iter()
                .map(|(&(idx, _), loops)| self.fx.speedup(&compiler, idx, loops)),
        )
    }

    pub fn distinct_served(&self) -> usize {
        self.served.len()
    }
}
