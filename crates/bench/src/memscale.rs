//! The `fig_mem` memory-scaling sweep, its `memscale-v1` document and the
//! `memstat` report over it (the `fig_mem` figure and the `memstat` verb of
//! `bgq-bench`).
//!
//! The paper's central scaling claim is about *time*; this module asks the
//! companion question the PAMI/ARMCI port had to answer on Blue Gene/Q's
//! 16 GB nodes: **how does communication-subsystem memory grow with the
//! partition size p?** With the tagged allocation profiler
//! ([`desim::memprof`]) enabled, two of the [`scale`] harness's workloads
//! are swept over p:
//!
//! * [`scale::fig9_rmw`] — the Fig 9 fetch-and-add storm (AsyncThread
//!   progress), exercising the full ARMCI/PAMI/torus stack;
//! * [`scale::net_churn`] — the raw `NetState` delivery storm, isolating
//!   the network layer (routes, link state, delivery maps).
//!
//! Each sweep point is one measured [`Point`], its allocation bracket taken
//! on its worker thread, so per-run byte accounting is exact and identical
//! for any `--jobs` value. Results serialize as `memscale-v1` JSON: per-tag
//! peak/live bytes and bytes-per-rank at every p, plus a fitted **growth
//! class** per tag (constant / sublinear / linear / superlinear /
//! quadratic) from the peak-bytes slope between the smallest and largest p.
//! The document carries no host-dependent field. CI gates the schema and
//! growth classes exactly and the absolute byte counts loosely (they may
//! drift across compiler versions — see DESIGN.md §14).

use desim::json::{self, JsonValue};
use desim::Observe;

use crate::scale::{self, Point};
use crate::{sweep, Observations};

/// Default process counts for the scale sweep (ascending).
pub const DEFAULT_PROCS: [usize; 4] = [32, 64, 128, 256];

/// Run the memory-scaling sweep: both workloads at every process count in
/// `procs` (ascending), workload-major across `jobs` sweep workers. Returns
/// the `fig9_rmw` and the `net_churn` points, each in `procs` order, and
/// what the smallest-p run of each workload observed (the sinks `observe`
/// names; with a timeline, its `mem.live_bytes.<tag>` gauges too). Requires
/// the calling binary to have installed [`desim::memprof::MemProf`] and
/// called [`desim::memprof::enable`]; without that the snapshots come back
/// empty.
pub fn run_sweep(
    procs: &[usize],
    ops: usize,
    msgs_per_rank: usize,
    jobs: usize,
    observe: Observe,
) -> (Vec<Point>, Vec<Point>, Observations) {
    let n = procs.len();
    let outs = sweep::run_parallel(n * 2, jobs, |idx| {
        let p = procs[idx % n];
        let observe = if idx % n == 0 {
            observe
        } else {
            Observe::default()
        };
        if idx < n {
            scale::fig9_rmw(p, ops, observe)
        } else {
            scale::net_churn(p, msgs_per_rank * p, None, observe)
        }
    });
    let mut seen = Observations::new("fig_mem", procs.first().copied().unwrap_or(0));
    let mut curves = [Vec::with_capacity(n), Vec::with_capacity(n)];
    for (idx, (pt, observed)) in outs.into_iter().enumerate() {
        seen.add(["fig9_rmw", "net_churn"][idx / n], observed);
        curves[idx / n].push(pt);
    }
    let [fig9, churn] = curves;
    (fig9, churn, seen)
}

/// Bin a fitted growth exponent into a named class. The bins are wide on
/// purpose: classes gate *exactly* in CI, so they must be stable against
/// the byte-count drift that the loose numeric tolerance absorbs.
pub fn growth_class(exp: f64) -> &'static str {
    if exp < 0.2 {
        "constant"
    } else if exp < 0.75 {
        "sublinear"
    } else if exp <= 1.25 {
        "linear"
    } else if exp <= 1.9 {
        "superlinear"
    } else {
        "quadratic"
    }
}

/// Fit a power-law growth exponent per tag from the peak-bytes ratio between
/// the smallest and largest p: `exp = ln(peak_hi/peak_lo) / ln(p_hi/p_lo)`.
/// Only tags with a positive peak at **every** point are classified (sorted
/// by name). `points` must be in ascending-p order; fewer than two points
/// (or a non-growing p) yields no slopes.
pub fn slopes(points: &[Point]) -> Vec<(&'static str, f64, &'static str)> {
    if points.len() < 2 {
        return Vec::new();
    }
    let lo = &points[0];
    let hi = &points[points.len() - 1];
    if hi.procs <= lo.procs {
        return Vec::new();
    }
    let p_ratio = (hi.procs as f64 / lo.procs as f64).ln();
    lo.snap
        .tags
        .iter()
        .filter(|t| {
            points
                .iter()
                .all(|p| p.snap.get(t.name).is_some_and(|r| r.peak_bytes > 0))
        })
        .map(|t| {
            let a = lo.snap.get(t.name).unwrap().peak_bytes as f64;
            let b = hi.snap.get(t.name).unwrap().peak_bytes as f64;
            let exp = (b / a).ln() / p_ratio;
            (t.name, exp, growth_class(exp))
        })
        .collect()
}

/// A workload's `{"points":{...},"slopes":{...}}` object: `point` renders
/// each point under its `"p<procs>"` key; the slopes block holds the
/// points' [`slopes`] when `fit`, and is empty otherwise.
pub fn workload_json(points: &[Point], fit: bool, point: impl Fn(&Point) -> String) -> String {
    let rendered: Vec<String> = points
        .iter()
        .map(|pt| format!("\"p{}\":{}", pt.procs, point(pt)))
        .collect();
    let slopes: Vec<String> = slopes(if fit { points } else { &[] })
        .iter()
        .map(|(tag, exp, class)| format!("\"{tag}\":{{\"class\":\"{class}\",\"exp\":{exp:.2}}}"))
        .collect();
    format!(
        "{{\"points\":{{{}}},\"slopes\":{{{}}}}}",
        rendered.join(","),
        slopes.join(",")
    )
}

/// A point's `"tags"` object: per tag, peak bytes, live bytes (when
/// `live`), allocations and peak bytes per rank.
pub fn tags_json(pt: &Point, live: bool) -> String {
    let tags: Vec<String> = pt
        .snap
        .tags
        .iter()
        .map(|t| {
            let live = if live {
                format!("\"live_bytes\":{},", t.live_bytes)
            } else {
                String::new()
            };
            format!(
                "\"{}\":{{\"peak_bytes\":{},{live}\"allocs\":{},\"bytes_per_rank\":{:.1}}}",
                t.name,
                t.peak_bytes,
                t.allocs,
                t.peak_bytes as f64 / pt.procs as f64
            )
        })
        .collect();
    format!("{{{}}}", tags.join(","))
}

/// Serialize a sweep as a deterministic `memscale-v1` JSON document.
///
/// Every collection is a JSON **object** (keyed `"p<procs>"` / tag name),
/// never an array, and growth classes are strings — so a single
/// `perfdiff --tol ... --check` pass gates schema, tag set and classes
/// exactly while leaving the byte counts their loose tolerance.
pub fn scale_json(fig9: &[Point], churn: &[Point], ops: usize, msgs_per_rank: usize) -> String {
    let workload = |points| {
        workload_json(points, true, |pt| {
            format!(
                "{{\"procs\":{},\"tags\":{}}}",
                pt.procs,
                tags_json(pt, true)
            )
        })
    };
    format!(
        "{{\"schema\":\"memscale-v1\",\"bench\":\"fig_mem\",\"ops\":{ops},\
         \"msgs_per_rank\":{msgs_per_rank},\"workloads\":{{\"fig9_rmw\":{},\
         \"net_churn\":{}}}}}\n",
        workload(fig9),
        workload(churn)
    )
}

/// Human-friendly byte label with binary units (B / KiB / MiB); negative
/// values (net frees over a window) keep their sign.
pub fn fmt_bytes(b: i64) -> String {
    let sign = if b < 0 { "-" } else { "" };
    let v = b.unsigned_abs();
    if v >= 1 << 20 {
        format!("{sign}{:.1}MiB", v as f64 / (1u64 << 20) as f64)
    } else if v >= 1 << 10 {
        format!("{sign}{:.1}KiB", v as f64 / 1024.0)
    } else {
        format!("{sign}{v}B")
    }
}

/// Render the human `memstat` report from a `memscale-v1` JSON document:
/// per workload, the largest-p point grouped by subsystem (the tag prefix
/// before the first `.`), subsystems and tags ordered by peak bytes
/// descending — the top allocator sites — with bytes/rank and the fitted
/// growth class per tag.
pub fn memstat_report(doc: &str) -> Result<String, String> {
    let v = json::parse(doc)?;
    if v.get("schema").and_then(JsonValue::as_str) != Some("memscale-v1") {
        return Err("not a memscale-v1 document".to_string());
    }
    let Some(JsonValue::Obj(workloads)) = v.get("workloads") else {
        return Err("missing workloads object".to_string());
    };
    let mut out = String::new();
    for (wname, w) in workloads {
        let Some(JsonValue::Obj(points)) = w.get("points") else {
            continue;
        };
        let Some((_, last)) = points.last() else {
            continue;
        };
        let procs = last.get("procs").and_then(JsonValue::as_f64).unwrap_or(0.0) as u64;
        let Some(JsonValue::Obj(tags)) = last.get("tags") else {
            continue;
        };
        let slopes = w.get("slopes");
        out.push_str(&format!(
            "== {wname} @ p={procs}: top allocator sites per subsystem ==\n"
        ));
        // Group rows by subsystem prefix: (tag, peak, bytes/rank, allocs).
        type Row<'a> = (&'a str, i64, i64, u64);
        let mut groups: Vec<(&str, Vec<Row>)> = Vec::new();
        for (tag, stats) in tags {
            let num = |k: &str| stats.get(k).and_then(JsonValue::as_f64).unwrap_or(0.0);
            let row = (
                tag.as_str(),
                num("peak_bytes") as i64,
                num("bytes_per_rank") as i64,
                num("allocs") as u64,
            );
            let sub = tag.split('.').next().unwrap_or(tag);
            match groups.iter_mut().find(|(s, _)| *s == sub) {
                Some((_, rows)) => rows.push(row),
                None => groups.push((sub, vec![row])),
            }
        }
        groups.sort_by_key(|(_, rows)| -rows.iter().map(|r| r.1).sum::<i64>());
        for (sub, mut rows) in groups {
            let total: i64 = rows.iter().map(|r| r.1).sum();
            rows.sort_by_key(|r| -r.1);
            out.push_str(&format!("-- {sub}: peak {}\n", fmt_bytes(total)));
            for (tag, peak, bpr, allocs) in rows {
                let growth = slopes
                    .and_then(|s| s.get(tag))
                    .and_then(|t| t.get("class"))
                    .and_then(JsonValue::as_str)
                    .unwrap_or("n/a");
                out.push_str(&format!(
                    "   {tag:<18} peak {:>10}  {:>9}/rank  allocs {allocs:>8}  growth {growth}\n",
                    fmt_bytes(peak),
                    fmt_bytes(bpr),
                ));
            }
        }
        out.push('\n');
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::memprof::{MemSnapshot, TagStats};

    fn pt(procs: usize, rows: &[(&'static str, i64)]) -> Point {
        Point {
            procs,
            snap: MemSnapshot {
                tags: rows
                    .iter()
                    .map(|&(name, peak)| TagStats {
                        name,
                        live_bytes: peak / 2,
                        peak_bytes: peak,
                        allocs: 3,
                        frees: 1,
                        reallocs: 0,
                    })
                    .collect(),
            },
            ..Point::default()
        }
    }

    #[test]
    fn growth_class_bins() {
        assert_eq!(growth_class(-0.5), "constant");
        assert_eq!(growth_class(0.0), "constant");
        assert_eq!(growth_class(0.5), "sublinear");
        assert_eq!(growth_class(1.0), "linear");
        assert_eq!(growth_class(1.25), "linear");
        assert_eq!(growth_class(1.5), "superlinear");
        assert_eq!(growth_class(2.1), "quadratic");
    }

    #[test]
    fn slopes_fit_known_exponents() {
        // flat: 4 KiB at every p; linear: 1 KiB/rank; quadratic: p^2 bytes.
        let points = vec![
            pt(32, &[("flat", 4096), ("lin", 32 * 1024), ("quad", 32 * 32)]),
            pt(
                128,
                &[("flat", 4096), ("lin", 128 * 1024), ("quad", 128 * 128)],
            ),
        ];
        let s = slopes(&points);
        let find = |n: &str| s.iter().find(|(t, _, _)| *t == n).unwrap();
        assert_eq!(find("flat").2, "constant");
        assert_eq!(find("lin").2, "linear");
        assert!((find("lin").1 - 1.0).abs() < 1e-9);
        assert_eq!(find("quad").2, "quadratic");
        // A tag missing a positive peak at any point is not classified.
        let partial = vec![
            pt(32, &[("x", 0), ("y", 100)]),
            pt(128, &[("x", 50), ("y", 400)]),
        ];
        assert!(slopes(&partial).iter().all(|(t, _, _)| *t != "x"));
        // Degenerate sweeps yield no slopes at all.
        assert!(slopes(&points[..1]).is_empty());
    }

    #[test]
    fn scale_json_parses_and_memstat_renders() {
        let fig9 = vec![
            pt(32, &[("pami.queues", 2048), ("torus5d.routes", 64 * 32)]),
            pt(64, &[("pami.queues", 4096), ("torus5d.routes", 64 * 64)]),
        ];
        let churn = vec![
            pt(32, &[("torus5d.links", 10_000)]),
            pt(64, &[("torus5d.links", 20_000)]),
        ];
        let doc = scale_json(&fig9, &churn, 4, 64);
        assert!(
            !doc.contains("wall_ms") && !doc.contains("events_per_sec"),
            "the document carries no host-dependent field"
        );
        let v = json::parse(&doc).expect("valid JSON");
        assert_eq!(
            v.get("schema").and_then(JsonValue::as_str),
            Some("memscale-v1")
        );
        let w = v.get("workloads").unwrap();
        let p64 = w.get("fig9_rmw").unwrap().get("points").unwrap().get("p64");
        assert!(p64.is_some(), "points keyed by p<procs>");
        let class = w
            .get("fig9_rmw")
            .unwrap()
            .get("slopes")
            .unwrap()
            .get("pami.queues")
            .unwrap()
            .get("class")
            .and_then(JsonValue::as_str);
        assert_eq!(class, Some("linear"));
        let report = memstat_report(&doc).expect("report renders");
        assert!(report.contains("fig9_rmw @ p=64"));
        assert!(report.contains("pami.queues"));
        assert!(report.contains("growth linear"));
        assert!(report.contains("-- torus5d"));
        assert!(memstat_report("{\"schema\":\"other\"}").is_err());
    }

    #[test]
    fn fmt_bytes_units() {
        assert_eq!(fmt_bytes(0), "0B");
        assert_eq!(fmt_bytes(512), "512B");
        assert_eq!(fmt_bytes(2048), "2.0KiB");
        assert_eq!(fmt_bytes(-1536), "-1.5KiB");
        assert_eq!(fmt_bytes(3 << 20), "3.0MiB");
    }
}
