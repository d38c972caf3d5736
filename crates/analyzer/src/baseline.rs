//! Finding baseline + ratchet.
//!
//! `sqe-lint baseline` snapshots the current findings; `sqe-lint check`
//! then fails only on findings *not* in the snapshot, and on snapshot
//! entries that no longer occur (stale — the baseline must be
//! re-generated so it only ever shrinks). Keys are
//! `rule|path|message` with a multiplicity count, deliberately
//! line-independent so unrelated edits that shift code do not churn the
//! baseline.

use std::collections::BTreeMap;

use crate::diag::{Diagnostic, Severity};

/// A snapshot of accepted findings: key → occurrence count.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Baseline {
    entries: BTreeMap<String, u64>,
}

/// Result of ratcheting current findings against a baseline.
#[derive(Debug, Default)]
pub struct Ratchet {
    /// Error-severity findings not covered by the baseline (count beyond
    /// the baselined multiplicity). These fail the build.
    pub new: Vec<Diagnostic>,
    /// Baseline keys that no longer occur at their recorded multiplicity.
    /// These also fail: the baseline may only shrink.
    pub stale: Vec<String>,
}

/// Line-independent identity of a finding.
pub fn key(d: &Diagnostic) -> String {
    format!("{}|{}|{}", d.rule, d.path, d.message)
}

/// The current finding closest to a stale baseline key — the hint
/// `sqe-lint check` prints so the developer can tell a genuinely fixed
/// finding from one that merely moved (rule rename, message reword, file
/// rename). Proximity is rule-then-file: same rule and file beats same
/// rule in the same crate, beats same rule anywhere, beats same file
/// under another rule. Returns `None` when no error finding survives at
/// all (everything really was fixed).
pub fn nearest_surviving<'a>(stale_key: &str, diags: &'a [Diagnostic]) -> Option<&'a Diagnostic> {
    let mut parts = stale_key.splitn(3, '|');
    let rule = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let crate_of = |p: &str| p.split('/').take(2).collect::<Vec<_>>().join("/");
    let stale_crate = crate_of(path);
    diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .map(|d| {
            let score = if d.rule == rule && d.path == path {
                0
            } else if d.rule == rule && crate_of(&d.path) == stale_crate {
                1
            } else if d.rule == rule {
                2
            } else if d.path == path {
                3
            } else {
                4
            };
            (score, d)
        })
        .min_by_key(|(score, d)| (*score, d.path.clone(), d.line))
        .map(|(_, d)| d)
}

impl Baseline {
    /// Snapshots every error-severity finding. Warnings are advisory and
    /// never baselined — they must not be able to fail a ratchet.
    pub fn from_diags(diags: &[Diagnostic]) -> Self {
        let mut entries: BTreeMap<String, u64> = BTreeMap::new();
        for d in diags.iter().filter(|d| d.severity == Severity::Error) {
            *entries.entry(key(d)).or_insert(0) += 1;
        }
        Baseline { entries }
    }

    /// Number of distinct baselined keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is baselined.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serializes as a stable JSON object (sorted keys via `BTreeMap`).
    pub fn to_json(&self) -> String {
        use serde_json::Value;
        let mut m = serde_json::Map::new();
        for (k, v) in &self.entries {
            m.insert(k.clone(), Value::from(*v));
        }
        serde_json::to_string_pretty(&Value::Object(m)).expect("baseline serializes")
    }

    /// Parses the JSON form. Rejects non-object roots and non-integer
    /// counts rather than silently accepting a corrupt baseline.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v: serde_json::Value =
            serde_json::from_str(text).map_err(|e| format!("baseline is not valid JSON: {e}"))?;
        let obj = v
            .as_object()
            .ok_or_else(|| "baseline root must be a JSON object".to_string())?;
        let mut entries = BTreeMap::new();
        for (k, count) in obj.iter() {
            let n = count.as_u64().ok_or_else(|| {
                format!("baseline count for {k:?} must be a non-negative integer")
            })?;
            entries.insert(k.clone(), n);
        }
        Ok(Baseline { entries })
    }

    /// Ratchets `diags` against this baseline. Error findings beyond the
    /// baselined multiplicity are `new`; baselined keys whose current
    /// multiplicity dropped below the recorded count are `stale`.
    pub fn compare(&self, diags: &[Diagnostic]) -> Ratchet {
        let mut current: BTreeMap<String, Vec<&Diagnostic>> = BTreeMap::new();
        for d in diags.iter().filter(|d| d.severity == Severity::Error) {
            current.entry(key(d)).or_default().push(d);
        }
        let mut out = Ratchet::default();
        for (k, occurrences) in &current {
            let allowed = self.entries.get(k).copied().unwrap_or(0) as usize;
            for d in occurrences.iter().skip(allowed) {
                out.new.push((*d).clone());
            }
        }
        for (k, &count) in &self.entries {
            let seen = current.get(k).map_or(0, Vec::len) as u64;
            if seen < count {
                out.stale.push(k.clone());
            }
        }
        out.new
            .sort_by(|a, b| a.path.cmp(&b.path).then(a.line.cmp(&b.line)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(rule: &'static str, path: &str, msg: &str, sev: Severity) -> Diagnostic {
        Diagnostic {
            rule,
            severity: sev,
            path: path.to_string(),
            line: 1,
            message: msg.to_string(),
        }
    }

    #[test]
    fn roundtrip_and_ratchet() {
        let old = vec![
            diag("r1", "a.rs", "m1", Severity::Error),
            diag("r1", "a.rs", "m1", Severity::Error),
            diag("r2", "b.rs", "m2", Severity::Error),
            diag("r3", "c.rs", "warn only", Severity::Warn),
        ];
        let base = Baseline::from_diags(&old);
        assert_eq!(base.len(), 2, "warnings are not baselined");
        let restored = Baseline::from_json(&base.to_json()).unwrap();
        assert_eq!(restored, base);

        // Same findings: clean.
        let r = restored.compare(&old);
        assert!(r.new.is_empty() && r.stale.is_empty(), "{r:?}");

        // One r1 fixed, one brand-new finding: stale + new.
        let now = vec![
            diag("r1", "a.rs", "m1", Severity::Error),
            diag("r2", "b.rs", "m2", Severity::Error),
            diag("r9", "z.rs", "fresh", Severity::Error),
        ];
        let r = restored.compare(&now);
        assert_eq!(r.new.len(), 1);
        assert_eq!(r.new[0].rule, "r9");
        assert_eq!(r.stale, vec!["r1|a.rs|m1".to_string()]);
    }

    #[test]
    fn multiplicity_beyond_baseline_is_new() {
        let base = Baseline::from_diags(&[diag("r1", "a.rs", "m", Severity::Error)]);
        let now = vec![
            diag("r1", "a.rs", "m", Severity::Error),
            diag("r1", "a.rs", "m", Severity::Error),
        ];
        let r = base.compare(&now);
        assert_eq!(r.new.len(), 1, "second occurrence exceeds baseline");
        assert!(r.stale.is_empty());
    }

    #[test]
    fn nearest_surviving_prefers_rule_then_file() {
        let now = vec![
            diag("r1", "crates/a/src/lib.rs", "m-other", Severity::Error),
            diag("r1", "crates/b/src/lib.rs", "m-sibling", Severity::Error),
            diag("r2", "crates/a/src/lib.rs", "m-samefile", Severity::Error),
            diag("r1", "crates/a/src/lib.rs", "warn", Severity::Warn),
        ];
        // Same rule + same file wins.
        let hit = nearest_surviving("r1|crates/a/src/lib.rs|gone", &now).unwrap();
        assert_eq!((hit.rule, hit.message.as_str()), ("r1", "m-other"));
        // No rule-r9 survivor anywhere: fall back to the stale file.
        let hit = nearest_surviving("r9|crates/a/src/lib.rs|gone", &now).unwrap();
        assert_eq!(hit.path, "crates/a/src/lib.rs");
        // Same rule in another crate beats a different rule.
        let hit = nearest_surviving("r1|crates/z/src/lib.rs|gone", &now).unwrap();
        assert_eq!(hit.message, "m-other");
        // Nothing survives: no hint.
        assert!(nearest_surviving("r1|a.rs|gone", &[]).is_none());
        let warns = vec![diag("r1", "a.rs", "w", Severity::Warn)];
        assert!(nearest_surviving("r1|a.rs|gone", &warns).is_none());
    }

    #[test]
    fn rejects_corrupt_json() {
        assert!(Baseline::from_json("[1,2]").is_err());
        assert!(Baseline::from_json("{\"k\": \"x\"}").is_err());
        assert!(Baseline::from_json("not json").is_err());
    }
}
