//! `bgq-perf compare A.json B.json`: is B no worse than A? One row per
//! (end-to-end metric, workload) with both medians, their quartiles and the
//! ratio B/A; the bound each metric may worsen by comes from
//! `BENCHMARK.json`. Count metrics of the traced run must agree exactly.

use desim::json::{self, JsonValue};

use crate::spec::{counts_agree, COUNTS, END_TO_END};
use crate::stats::{quartiles, Quartiles};

/// What `compare` concluded about one pair of rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// The repeats of A or of B spread wider than the bound, so a difference
    /// of that size cannot be told from noise.
    Unresolved,
}

/// Judge one end-to-end metric: `a` and `b` are the repeats of each side,
/// `bound` the share of A's median the metric may worsen by.
pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let (qa, qb) = (quartiles(a), quartiles(b));
    if qa.spread().max(qb.spread()) > bound {
        return Verdict::Unresolved;
    }
    let worse_by = if higher_is_better {
        qa.median - qb.median
    } else {
        qb.median - qa.median
    };
    if worse_by > bound * qa.median.abs() {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// `(name, values)` of every row in the `section` list of a document written
/// by `bgq-perf run`.
fn read_rows(doc: &JsonValue, section: &str) -> Result<Vec<(String, Vec<f64>)>, String> {
    let Some(JsonValue::Arr(list)) = doc.get(section) else {
        return Err(format!("no '{section}' list"));
    };
    list.iter()
        .map(|row| {
            let name = row.get("name").and_then(JsonValue::as_str);
            let values = match row.get("values") {
                Some(JsonValue::Arr(vs)) => {
                    vs.iter().map(JsonValue::as_f64).collect::<Option<Vec<_>>>()
                }
                _ => None,
            };
            name.zip(values.filter(|v| !v.is_empty()))
                .map(|(n, v)| (n.to_string(), v))
                .ok_or_else(|| format!("malformed row in '{section}'"))
        })
        .collect()
}

/// The tolerance of a full run's per-layer row (`<metric>.<workload>`) if
/// it is one of the counts.
fn count_tolerance(row_name: &str) -> Option<f64> {
    let (metric, _workload) = row_name.rsplit_once('.')?;
    let (_, tolerance) = COUNTS.iter().find(|(name, _)| *name == metric)?;
    Some(*tolerance)
}

fn load(path: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn show(q: &Quartiles) -> String {
    format!("{:.6} ({:.6}..{:.6})", q.median, q.q1, q.q3)
}

/// Compare two documents written by `bgq-perf run`; `bounds` is
/// `(metric, bound)` from `BENCHMARK.json`. Prints the table and returns
/// whether B passes: nothing regressed, nothing unresolved, every count
/// equal.
pub fn compare(path_a: &str, path_b: &str, bounds: &[(String, f64)]) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let (rows_a, rows_b) = (read_rows(&a, "end_to_end")?, read_rows(&b, "end_to_end")?);
    let mut pass = true;
    println!(
        "{:<28} {:<36} {:<36} {:>9}  verdict",
        "metric.workload", "A median (q1..q3)", "B median (q1..q3)", "B/A"
    );
    for (name, va) in &rows_a {
        let Some((_, vb)) = rows_b.iter().find(|(n, _)| n == name) else {
            println!("{name:<28} missing from B");
            pass = false;
            continue;
        };
        let metric = END_TO_END
            .iter()
            .find(|m| {
                name.strip_prefix(m.name)
                    .is_some_and(|r| r.starts_with('.'))
            })
            .ok_or_else(|| format!("{path_a}: unknown end-to-end row '{name}'"))?;
        // fail_share is not in BENCHMARK.json: any failure at all is one.
        let bound = bounds
            .iter()
            .find(|(n, _)| n == metric.name)
            .map_or(0.0, |&(_, b)| b);
        let verdict = judge(va, vb, metric.higher_is_better, bound);
        pass &= verdict == Verdict::Ok;
        let (qa, qb) = (quartiles(va), quartiles(vb));
        let ratio = if qa.median == 0.0 {
            "-".to_string()
        } else {
            format!("{:.4}", qb.median / qa.median)
        };
        println!(
            "{name:<28} {:<36} {:<36} {ratio:>9}  {}",
            show(&qa),
            show(&qb),
            match verdict {
                Verdict::Ok => "ok".to_string(),
                Verdict::Regressed => format!("REGRESSED (bound {:.0} % of A)", bound * 100.0),
                Verdict::Unresolved => format!(
                    "unresolved (spread {:.1} % > bound {:.0} %)",
                    qa.spread().max(qb.spread()) * 100.0,
                    bound * 100.0
                ),
            }
        );
    }
    let (layer_a, layer_b) = (read_rows(&a, "per_layer")?, read_rows(&b, "per_layer")?);
    if !layer_a.is_empty() && !layer_b.is_empty() {
        println!(
            "{:<42} {:>20} {:>20} {:>9}",
            "per-layer", "A", "B", "B/A (base A)"
        );
    }
    for (name, va) in &layer_a {
        let Some((_, vb)) = layer_b.iter().find(|(n, _)| n == name) else {
            continue;
        };
        let (va, vb) = (va[0], vb[0]);
        let note = match count_tolerance(name) {
            None => "",
            Some(tolerance) if counts_agree(va, vb, tolerance) => "  same count",
            Some(_) => {
                pass = false;
                "  COUNT DIFFERS"
            }
        };
        let ratio = if va == 0.0 {
            "-".to_string()
        } else {
            format!("{:.4}", vb / va)
        };
        println!("{name:<42} {va:>20.6} {vb:>20.6} {ratio:>9}{note}");
    }
    println!("{}", if pass { "PASS" } else { "FAIL" });
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_on_synthetic_repeats() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Throughput 5 % lower with a 10 % bound: fine; 15 % lower: regressed.
        let b_ok: Vec<f64> = a.iter().map(|v| v * 0.95).collect();
        let b_bad: Vec<f64> = a.iter().map(|v| v * 0.85).collect();
        assert_eq!(judge(&a, &b_ok, true, 0.10), Verdict::Ok);
        assert_eq!(judge(&a, &b_bad, true, 0.10), Verdict::Regressed);
        // Getting better is never a regression, in either direction.
        assert_eq!(judge(&b_bad, &a, true, 0.10), Verdict::Ok);
        assert_eq!(judge(&a, &b_bad, false, 0.10), Verdict::Ok);
        assert_eq!(judge(&b_bad, &a, false, 0.10), Verdict::Regressed);
        // Repeats spread over 40 % of their median cannot resolve 10 %.
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(judge(&a, &noisy, true, 0.10), Verdict::Unresolved);
        assert_eq!(judge(&noisy, &a, true, 0.10), Verdict::Unresolved);
        // fail_share: bound 0, all zeros passes, any failure regresses.
        assert_eq!(judge(&[0.0; 3], &[0.0; 3], false, 0.0), Verdict::Ok);
        assert_eq!(judge(&[0.0; 3], &[1e-6; 3], false, 0.0), Verdict::Regressed);
    }
}
