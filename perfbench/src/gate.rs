//! The correctness gate: simulated results must not move.
//!
//! Every operation (job, frame, config) a workload attempts is counted
//! here, and every result it produced is checked two ways:
//!
//! 1. against an independent path through the program (the server's miss
//!    flags against an offline `Simulation::run`, engine results against
//!    a direct `Simulation::run_trace`, `run_trace` against a bare
//!    `predict`/`update` loop), via [`Gate::expect`];
//! 2. for the default seed at full length, against the golden values kept
//!    in `golden/<workload>.txt`, via [`Gate::check_golden`].
//!
//! Any mismatch counts as a failed operation and fails the run.

use std::collections::BTreeMap;
use std::path::Path;

/// Conditional-branch and misprediction counts of one simulated job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counts {
    /// Conditional branches predicted.
    pub conds: u64,
    /// Of those, mispredicted.
    pub misses: u64,
}

impl Counts {
    /// The golden-file rendering: `conds misses`.
    pub fn render(self) -> String {
        format!("{} {}", self.conds, self.misses)
    }
}

/// Operation accounting plus the observed results of the run.
#[derive(Debug, Default)]
pub struct Gate {
    attempted: u64,
    failed: u64,
    mismatches: Vec<String>,
    observed: BTreeMap<String, String>,
}

impl Gate {
    /// An empty gate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts one operation, failed when `ok` is false.
    pub fn attempt(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Counts `n` operations of which `failed` failed.
    pub fn attempt_many(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed.min(n);
    }

    /// Compares a result against the value an independent path produced;
    /// records the mismatch and returns false when they differ. Does not
    /// count an operation by itself.
    pub fn expect<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, got: T, want: T) -> bool {
        if got == want {
            return true;
        }
        self.mismatches.push(format!(
            "{what}: got {got:?}, independent path gave {want:?}"
        ));
        false
    }

    /// Records a failure that is not a value comparison (an error reply,
    /// a failed job).
    pub fn note_failure(&mut self, what: String) {
        self.mismatches.push(what);
    }

    /// Records the result of `key` for the golden comparison. The first
    /// value recorded for a key wins; a later, different value for the
    /// same key is a mismatch (the run disagreed with itself).
    pub fn observe(&mut self, key: String, value: String) -> bool {
        match self.observed.get(&key) {
            Some(prior) if *prior != value => {
                self.mismatches.push(format!(
                    "{key}: {value} differs from earlier {prior} in this run"
                ));
                false
            }
            Some(_) => true,
            None => {
                self.observed.insert(key, value);
                true
            }
        }
    }

    /// Checks every observed result against `golden`: a key present in
    /// both must agree, and every golden key must have been observed.
    /// Each disagreement turns one operation into a failed one. Returns
    /// the number of disagreements.
    pub fn check_golden(&mut self, golden: &BTreeMap<String, String>) -> u64 {
        let mut bad = 0;
        for (key, want) in golden {
            match self.observed.get(key) {
                Some(got) if got == want => {}
                Some(got) => {
                    self.mismatches
                        .push(format!("{key}: got {got}, golden value is {want}"));
                    bad += 1;
                }
                None => {
                    self.mismatches
                        .push(format!("{key}: golden value {want} was never produced"));
                    bad += 1;
                }
            }
        }
        self.failed += bad;
        self.attempted = self.attempted.max(self.failed);
        bad
    }

    /// Operations attempted.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations failed.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Whether the run is correct: nothing failed and nothing disagreed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.mismatches.is_empty()
    }

    /// Every recorded disagreement, in order.
    pub fn mismatches(&self) -> &[String] {
        &self.mismatches
    }

    /// Every observed result, sorted by key.
    pub fn observed(&self) -> &BTreeMap<String, String> {
        &self.observed
    }
}

/// Reads a golden file: one `key<TAB>value` per line, `#` comments.
pub fn read_golden(path: &Path) -> std::io::Result<BTreeMap<String, String>> {
    let text = std::fs::read_to_string(path)?;
    Ok(text
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .filter_map(|l| l.split_once('\t'))
        .map(|(k, v)| (k.to_owned(), v.to_owned()))
        .collect())
}

/// Writes `observed` as a golden file (see [`read_golden`]).
pub fn write_golden(
    path: &Path,
    header: &str,
    observed: &BTreeMap<String, String>,
) -> std::io::Result<()> {
    let mut text = format!("# {header}\n");
    for (k, v) in observed {
        text.push_str(&format!("{k}\t{v}\n"));
    }
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn golden(pairs: &[(&str, &str)]) -> BTreeMap<String, String> {
        pairs
            .iter()
            .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
            .collect()
    }

    #[test]
    fn planted_count_mismatch_is_a_failed_operation() {
        let mut gate = Gate::new();
        let got = Counts {
            conds: 100,
            misses: 7,
        };
        let planted = Counts {
            conds: 100,
            misses: 8,
        };
        let ok = gate.expect("bf-tage SPEC03", got, planted);
        gate.attempt(ok);
        gate.attempt(true);
        assert!(!ok);
        assert_eq!((gate.attempted(), gate.failed()), (2, 1));
        assert!(!gate.correct());
        assert!(gate.mismatches()[0].contains("bf-tage SPEC03"));
    }

    #[test]
    fn planted_golden_mismatch_fails_the_run() {
        let mut gate = Gate::new();
        gate.observe(
            "gshare SERV1".into(),
            Counts {
                conds: 10,
                misses: 2,
            }
            .render(),
        );
        gate.observe("gshare SERV3".into(), "10 3".into());
        gate.attempt_many(2, 0);
        assert!(gate.correct());
        let bad = gate.check_golden(&golden(&[
            ("gshare SERV1", "10 2"),
            ("gshare SERV3", "10 4"),
            ("gshare SERV9", "1 1"),
        ]));
        assert_eq!(bad, 2);
        assert_eq!((gate.attempted(), gate.failed()), (2, 2));
        assert!(!gate.correct());
    }

    #[test]
    fn matching_golden_values_pass() {
        let mut gate = Gate::new();
        gate.observe("a".into(), "1 0".into());
        gate.attempt(true);
        assert_eq!(gate.check_golden(&golden(&[("a", "1 0")])), 0);
        assert!(gate.correct());
    }

    #[test]
    fn a_run_that_disagrees_with_itself_is_caught() {
        let mut gate = Gate::new();
        assert!(gate.observe("k".into(), "1 1".into()));
        assert!(gate.observe("k".into(), "1 1".into()));
        assert!(!gate.observe("k".into(), "1 2".into()));
        assert!(!gate.correct());
    }
}
