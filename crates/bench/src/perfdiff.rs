//! Numeric diffing of two JSON metric documents — the perf-regression gate.
//!
//! `bgq-bench perfdiff` (two files) and `bgq-bench gate` (the whole table of
//! goldens) compare a freshly generated `MetricsSnapshot` / critical-path breakdown against a committed
//! golden baseline. Because the simulator is deterministic, goldens normally
//! match bit-for-bit; the tolerances exist so that *intentional* model
//! retuning can be landed by regenerating the baseline, while accidental
//! drift (a changed counter, a shifted latency) fails loudly.
//!
//! Semantics: both documents are flattened to dotted leaf paths
//! (`"histo.wait[3].mean_us"`). Every leaf of the **baseline** must exist in
//! the candidate with the same type; numeric leaves must satisfy
//! `|new - old| <= abs + rel * |old|`. Leaves that appear only in the
//! candidate are reported but do not fail the gate — new metrics are not
//! regressions.

use desim::json::JsonValue;

/// A scalar leaf of a flattened JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Leaf {
    /// A number (all JSON numbers compare as `f64`).
    Num(f64),
    /// A string (compared for equality).
    Str(String),
    /// A boolean (compared for equality).
    Bool(bool),
    /// A JSON `null`.
    Null,
}

/// Flatten a JSON document into `(dotted.path, leaf)` pairs, arrays indexed
/// as `path[i]`. Every array additionally contributes a `path.len` pseudo-
/// leaf with its element count: without it an array *growing* only surfaces
/// as candidate-extra leaves, which never fail the gate — with it, any
/// length change is a hard numeric violation (essential for the timeline
/// goldens, where a series quietly gaining windows is drift). Order follows
/// the document; callers sort as needed.
pub fn flatten(v: &JsonValue) -> Vec<(String, Leaf)> {
    let mut out = Vec::new();
    walk(v, String::new(), &mut out);
    out
}

fn walk(v: &JsonValue, path: String, out: &mut Vec<(String, Leaf)>) {
    match v {
        JsonValue::Obj(fields) => {
            for (k, val) in fields {
                let p = if path.is_empty() {
                    k.clone()
                } else {
                    format!("{path}.{k}")
                };
                walk(val, p, out);
            }
        }
        JsonValue::Arr(items) => {
            out.push((format!("{path}.len"), Leaf::Num(items.len() as f64)));
            for (i, val) in items.iter().enumerate() {
                walk(val, format!("{path}[{i}]"), out);
            }
        }
        JsonValue::Num(n) => out.push((path, Leaf::Num(*n))),
        JsonValue::Str(s) => out.push((path, Leaf::Str(s.clone()))),
        JsonValue::Bool(b) => out.push((path, Leaf::Bool(*b))),
        JsonValue::Null => out.push((path, Leaf::Null)),
    }
}

/// Comparison slack: a numeric leaf passes when
/// `|new - old| <= abs + rel * |old|`.
#[derive(Debug, Clone, Copy)]
pub struct Tolerance {
    /// Relative tolerance as a fraction of the baseline value.
    pub rel: f64,
    /// Absolute slack added to every comparison.
    pub abs: f64,
}

/// Outcome of diffing a candidate document against a baseline.
#[derive(Debug)]
pub struct DiffResult {
    /// Baseline leaves found in the candidate and compared.
    pub checked: usize,
    /// Human-readable violations: drift past tolerance, leaves missing from
    /// the candidate, and type changes. Empty ⇒ the gate passes.
    pub violations: Vec<String>,
    /// Leaves present only in the candidate (informational, never fail).
    pub extra: Vec<String>,
    /// The compared numeric leaf that moved furthest relative to its
    /// nonzero baseline value; `None` when none moved. Informational: a
    /// golden gone stale inside a loose band shows here before it fails.
    pub max_drift: Option<Drift>,
}

/// A numeric leaf's relative change from the baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Drift {
    /// `(new - old) / old`.
    pub rel: f64,
    /// The leaf's dotted path.
    pub leaf: String,
}

impl std::fmt::Display for Drift {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:+.1} % {}", 100.0 * self.rel, self.leaf)
    }
}

impl DiffResult {
    /// True when the candidate is within tolerance of the baseline.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Compare `candidate` against `baseline` leaf-by-leaf under `tol`.
pub fn diff(baseline: &JsonValue, candidate: &JsonValue, tol: Tolerance) -> DiffResult {
    use std::collections::BTreeMap;
    let base: BTreeMap<String, Leaf> = flatten(baseline).into_iter().collect();
    let cand: BTreeMap<String, Leaf> = flatten(candidate).into_iter().collect();
    let mut violations = Vec::new();
    let mut checked = 0usize;
    let mut max_drift: Option<Drift> = None;
    for (k, b) in &base {
        let Some(c) = cand.get(k) else {
            violations.push(format!("{k}: missing from candidate"));
            continue;
        };
        checked += 1;
        match (b, c) {
            (Leaf::Num(x), Leaf::Num(y)) => {
                let rel = if *x != 0.0 { (y - x) / x } else { 0.0 };
                if rel != 0.0 && max_drift.as_ref().is_none_or(|d| rel.abs() > d.rel.abs()) {
                    let leaf = k.clone();
                    max_drift = Some(Drift { rel, leaf });
                }
                let slack = tol.abs + tol.rel * x.abs();
                if (y - x).abs() > slack {
                    let pct = if *x != 0.0 {
                        format!("{:+.2}%", 100.0 * (y - x) / x)
                    } else {
                        "from zero".to_string()
                    };
                    violations.push(format!("{k}: {x} -> {y} ({pct}, allowed ±{slack})"));
                }
            }
            _ if b == c => {}
            _ => violations.push(format!("{k}: changed {b:?} -> {c:?}")),
        }
    }
    let extra = cand
        .keys()
        .filter(|k| !base.contains_key(*k))
        .cloned()
        .collect();
    DiffResult {
        checked,
        violations,
        extra,
        max_drift,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::json::parse;

    const TOL: Tolerance = Tolerance {
        rel: 0.05,
        abs: 1e-9,
    };

    fn v(src: &str) -> JsonValue {
        parse(src).expect("test JSON")
    }

    #[test]
    fn flatten_produces_dotted_paths() {
        let doc = v(r#"{"a":{"b":1.5,"c":[true,"x"]},"d":null}"#);
        let flat = flatten(&doc);
        assert_eq!(
            flat,
            vec![
                ("a.b".to_string(), Leaf::Num(1.5)),
                ("a.c.len".to_string(), Leaf::Num(2.0)),
                ("a.c[0]".to_string(), Leaf::Bool(true)),
                ("a.c[1]".to_string(), Leaf::Str("x".to_string())),
                ("d".to_string(), Leaf::Null),
            ]
        );
    }

    #[test]
    fn array_len_pseudo_leaf_gates_length_changes() {
        let base = v(r#"{"w":[1,2]}"#);
        let grown = v(r#"{"w":[1,2,3]}"#);
        let shrunk = v(r#"{"w":[1]}"#);
        // Growth used to pass (new indices are candidate-extra); the `.len`
        // pseudo-leaf turns it into a numeric violation.
        let r = diff(&base, &grown, TOL);
        assert!(!r.ok());
        assert!(
            r.violations.iter().any(|s| s.contains("w.len")),
            "{:?}",
            r.violations
        );
        assert!(!diff(&base, &shrunk, TOL).ok());
        assert!(diff(&base, &base, TOL).ok());
    }

    #[test]
    fn identical_documents_pass() {
        let a = v(r#"{"x":1,"y":{"z":[2,3]}}"#);
        let r = diff(&a, &a, TOL);
        assert!(r.ok());
        assert_eq!(r.checked, 4); // x, y.z.len, y.z[0], y.z[1]
        assert!(r.extra.is_empty());
    }

    #[test]
    fn drift_within_relative_tolerance_passes() {
        let a = v(r#"{"lat_us":100.0}"#);
        let b = v(r#"{"lat_us":104.9}"#);
        assert!(diff(&a, &b, TOL).ok());
        let c = v(r#"{"lat_us":105.2}"#);
        let r = diff(&a, &c, TOL);
        assert!(!r.ok());
        assert!(r.violations[0].contains("lat_us"), "{:?}", r.violations);
    }

    #[test]
    fn absolute_slack_covers_near_zero_values() {
        let a = v(r#"{"n":0.0}"#);
        let b = v(r#"{"n":0.5}"#);
        assert!(!diff(&a, &b, TOL).ok());
        assert!(diff(
            &a,
            &b,
            Tolerance {
                rel: 0.05,
                abs: 1.0
            }
        )
        .ok());
    }

    #[test]
    fn missing_and_type_changed_leaves_fail_extra_leaves_do_not() {
        let base = v(r#"{"gone":1,"typed":2}"#);
        let cand = v(r#"{"typed":"two","fresh":3}"#);
        let r = diff(&base, &cand, TOL);
        assert_eq!(r.violations.len(), 2, "{:?}", r.violations);
        assert!(r.violations.iter().any(|s| s.contains("gone")));
        assert!(r.violations.iter().any(|s| s.contains("typed")));
        assert_eq!(r.extra, vec!["fresh".to_string()]);
    }

    #[test]
    fn the_largest_relative_drift_is_reported() {
        let base = v(r#"{"a":100,"b":200,"c":0,"d":"x"}"#);
        let cand = v(r#"{"a":110,"b":150,"c":5,"d":"x"}"#);
        let r = diff(&base, &cand, TOL);
        let drift = r.max_drift.expect("leaves moved");
        assert_eq!(drift.leaf, "b");
        assert_eq!(drift.to_string(), "-25.0 % b");
        assert_eq!(diff(&base, &base, TOL).max_drift, None);
    }

    #[test]
    fn string_equality_is_exact() {
        let a = v(r#"{"mode":"AT"}"#);
        let b = v(r#"{"mode":"D"}"#);
        assert!(!diff(&a, &b, TOL).ok());
        assert!(diff(&a, &a, TOL).ok());
    }
}
