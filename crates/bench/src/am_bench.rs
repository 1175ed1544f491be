//! Core of the `fig_am` benchmark: small-message active-message throughput
//! with and without per-destination aggregation.
//!
//! Every rank fires `msgs_per_rank` value-carrying AM accumulates
//! ([`armci::ArmciRank::acc_am`]) of `size` payload bytes, round-robining
//! over `fanout` cross-node destinations (`(r + 16·(1 + k mod fanout)) mod
//! procs`), then fences each destination. `window_us == 0` runs the
//! untouched unbatched hot path (no batcher configured at all — the
//! zero-cost contract); a nonzero window configures
//! [`pami_sim::MachineConfig::am_batching`] with that flush window and a
//! fixed [`AM_BATCH_BYTES`] size threshold, so queued AMs coalesce into one
//! wire message per destination.
//!
//! Deterministic throughout: virtual completion time, AM/wire counters and
//! the critical-path decomposition are identical for any `--jobs` value,
//! so CI diffs the `am-v1` JSON at zero tolerance.

use std::rc::Rc;

use armci::{Armci, ArmciConfig};
use desim::{CritPath, Observe, Observed, Sim, SimDuration};
use pami_sim::{Machine, MachineConfig};

/// Aggregation-buffer size threshold used by every batched cell (the sweep
/// varies the flush window; the threshold stays fixed so window effects are
/// isolated).
pub const AM_BATCH_BYTES: usize = 4096;

/// One measured `(size, window, fanout)` sweep cell (`am-v1` schema).
#[derive(Debug, Clone, PartialEq)]
pub struct AmCell {
    /// Payload bytes per AM accumulate.
    pub size: usize,
    /// Flush window in µs; 0 = batching disabled (unbatched baseline).
    pub window_us: u64,
    /// Destinations each rank round-robins over.
    pub fanout: usize,
    /// Final virtual time (ps) — deterministic.
    pub sim_time_ps: u64,
    /// Delivered AM accumulates per second (the headline rate).
    pub am_per_s: f64,
    /// Payload goodput (MB/s).
    pub mb_s: f64,
    /// AMs handed to `send_am` (accumulates + fence pings).
    pub am_sent: u64,
    /// Wire messages those AMs became (< `am_sent` ⇒ coalescing won).
    pub wire_msgs: u64,
    /// Flushes that carried more than one AM.
    pub batches: u64,
    /// Mean AMs per wire message.
    pub avg_batch: f64,
}

impl AmCell {
    /// The cell as an `am-v1` JSON object (fixed field order).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"size\":{},\"window_us\":{},\"fanout\":{},\"sim_time_ps\":{},\
             \"am_per_s\":{:.1},\"mb_s\":{:.3},\"am_sent\":{},\"wire_msgs\":{},\
             \"batches\":{},\"avg_batch\":{:.3}}}",
            self.size,
            self.window_us,
            self.fanout,
            self.sim_time_ps,
            self.am_per_s,
            self.mb_s,
            self.am_sent,
            self.wire_msgs,
            self.batches,
            self.avg_batch
        )
    }
}

/// Critical-path attribution for one designated cell: the standard
/// six-category decomposition plus the summed per-AM aggregation-buffer
/// wait (`pami.am_aggr` queueing segments — the cost side of batching).
pub struct AmCrit {
    /// Critical-path decomposition from the lifecycle accumulator.
    pub crit: CritPath,
    /// Total time AMs spent parked in aggregation buffers (ps, summed over
    /// all AMs — zero on an unbatched run).
    pub aggr_wait_ps: u64,
}

impl AmCrit {
    /// JSON object: `{"am_aggr_wait_ps":N,"critpath":{...}}`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"am_aggr_wait_ps\":{},\"critpath\":{}}}",
            self.aggr_wait_ps,
            self.crit.to_json()
        )
    }
}

/// Run one sweep cell with the sinks `observe` names turned on. With the
/// lifecycle accumulator on, the critical path comes back as an [`AmCrit`] (so
/// the returned [`Observed`] carries none).
pub fn run_cell(
    procs: usize,
    size: usize,
    msgs_per_rank: usize,
    window_us: u64,
    fanout: usize,
    observe: Observe,
) -> (AmCell, Option<AmCrit>, Observed) {
    assert!(procs > 16, "need more ranks than the fan-out stride");
    assert!(size.is_multiple_of(8), "payload is f64s");
    // One rank per node so the torus spreads pair traffic across many
    // links: the sweep then measures the per-message overhead regime
    // (NIC posts, dispatches, framing) aggregation targets, not a single
    // saturated inter-node link. Two contexts (ρ = 2) keep the async
    // progress thread off the main thread's lock.
    let mut mcfg = MachineConfig::new(procs)
        .procs_per_node(1)
        .contexts(2)
        .contention(true);
    if window_us > 0 {
        mcfg = mcfg.am_batching(AM_BATCH_BYTES, SimDuration::from_us(window_us));
    }
    let sim = Sim::new();
    let m = Machine::new(sim.clone(), mcfg);
    observe.start(sim.probes());
    let a = Armci::new(m.clone(), ArmciConfig::default());
    // One accumulate target buffer per rank (AMs carry values, so no region
    // registration is involved — exactly the fallback the AM path is for).
    let bufs: Rc<Vec<usize>> = Rc::new((0..procs).map(|r| m.rank(r).alloc(size)).collect());
    for r in 0..procs {
        let rk = a.rank(r);
        let bufs = Rc::clone(&bufs);
        let vals = vec![1.0f64; size / 8];
        sim.spawn(async move {
            let mut touched = Vec::with_capacity(fanout);
            for k in 0..msgs_per_rank {
                let target = (r + 16 * (1 + k % fanout)) % procs;
                rk.acc_am(target, bufs[target], &vals, 1.0).await;
                if !touched.contains(&target) {
                    touched.push(target);
                }
            }
            touched.sort_unstable();
            for t in touched {
                rk.am_fence(t).await;
            }
        });
    }
    let end = sim.run();
    m.flush_net_stats();
    let mut observed = observe.finish(sim.probes(), sim.now());
    let stats = m.stats();
    let ams = (procs * msgs_per_rank) as u64;
    let secs = (end.as_ps() as f64 / 1e12).max(1e-12);
    let wire_msgs = stats.counter("am.wire_msgs");
    let am_sent = stats.counter("am.sent");
    let cell = AmCell {
        size,
        window_us,
        fanout,
        sim_time_ps: end.as_ps(),
        am_per_s: ams as f64 / secs,
        mb_s: (ams as usize * size) as f64 / secs / 1e6,
        am_sent,
        wire_msgs,
        batches: stats.counter("am.batches"),
        avg_batch: am_sent as f64 / wire_msgs.max(1) as f64,
    };
    let crit = observed.crit.take().map(|crit| AmCrit {
        crit,
        aggr_wait_ps: sim.probes().lifecycle.attributed("pami.am_aggr").as_ps(),
    });
    (cell, crit, observed)
}

/// Aggregated-vs-unbatched speedup at the smallest size: for each batched
/// cell of the smallest swept size, the AM-rate ratio against the unbatched
/// cell with the same fanout. Returns the best `(window_us, fanout, ratio)`.
pub fn best_speedup(cells: &[AmCell]) -> Option<(u64, usize, f64)> {
    let smallest = cells.iter().map(|c| c.size).min()?;
    let mut best: Option<(u64, usize, f64)> = None;
    for c in cells
        .iter()
        .filter(|c| c.size == smallest && c.window_us > 0)
    {
        let base = cells
            .iter()
            .find(|b| b.size == smallest && b.window_us == 0 && b.fanout == c.fanout)?;
        let ratio = c.am_per_s / base.am_per_s;
        if best.map(|(_, _, r)| ratio > r).unwrap_or(true) {
            best = Some((c.window_us, c.fanout, ratio));
        }
    }
    best
}

/// Render a full sweep as the fixed-schema `am-v1` JSON document.
/// `crits` carries the lifecycle attribution of the two designated cells
/// (smallest size, fanout 1): batched (largest window) and unbatched.
pub fn sweep_json(
    procs: usize,
    msgs_per_rank: usize,
    cells: &[AmCell],
    crits: &[(String, AmCrit)],
) -> String {
    let mut s = format!(
        "{{\"schema\":\"am-v1\",\"bench\":\"fig_am\",\"procs\":{procs},\
         \"msgs_per_rank\":{msgs_per_rank},\"batch_bytes\":{AM_BATCH_BYTES},\"cells\":["
    );
    for (i, c) in cells.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&c.to_json());
    }
    s.push(']');
    if let Some((w, f, ratio)) = best_speedup(cells) {
        s.push_str(&format!(
            ",\"best_speedup\":{{\"window_us\":{w},\"fanout\":{f},\"ratio\":{ratio:.3}}}"
        ));
    }
    if !crits.is_empty() {
        s.push_str(",\"attribution\":{");
        for (i, (key, c)) in crits.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{key}\":{}", c.to_json()));
        }
        s.push('}');
    }
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(size: usize, msgs: usize, window_us: u64, fanout: usize) -> AmCell {
        run_cell(32, size, msgs, window_us, fanout, Observe::default()).0
    }

    #[test]
    fn cells_are_deterministic() {
        assert_eq!(cell(8, 8, 1, 1), cell(8, 8, 1, 1));
    }

    #[test]
    fn batching_beats_unbatched_at_small_size() {
        let un = cell(8, 16, 0, 1);
        let ba = cell(8, 16, 1, 1);
        assert_eq!(un.am_sent, ba.am_sent);
        assert!(
            ba.wire_msgs < un.wire_msgs,
            "batching must coalesce: {} vs {}",
            ba.wire_msgs,
            un.wire_msgs
        );
        assert!(
            ba.am_per_s > un.am_per_s,
            "batching must raise the AM rate: {} vs {}",
            ba.am_per_s,
            un.am_per_s
        );
    }

    #[test]
    fn breakdown_attributes_aggregation_wait() {
        let observe = Observe {
            crit: true,
            ..Observe::default()
        };
        let (_, crit, _) = run_cell(32, 8, 16, 4, 1, observe);
        let c = crit.expect("breakdown requested");
        assert!(c.aggr_wait_ps > 0, "batched AMs must accrue buffer wait");
        let (_, crit, _) = run_cell(32, 8, 16, 0, 1, observe);
        assert_eq!(crit.expect("breakdown").aggr_wait_ps, 0);
    }

    #[test]
    fn timeline_series_render_in_simstat_and_stay_healthy() {
        let timeline = Observe {
            timeline: Some(1_000_000),
            ..Observe::default()
        };
        let (_, _, seen) = run_cell(32, 8, 16, 1, 1, timeline);
        let snap = seen.timeline.expect("timeline requested");
        // The am.* series reach the windowed snapshot and the simstat
        // renderer without any am-specific plumbing.
        let doc = desim::TimelineDoc {
            bench: "fig_am".into(),
            runs: vec![("cell".into(), snap)],
        };
        let report = crate::simstat::report("fig_am", &doc, 40);
        for s in [
            "am.sent",
            "am.flushes",
            "am.wire_msgs",
            "am.batches",
            "am.bytes",
            "am.queue_depth",
            "am.oldest_wait_ps",
        ] {
            assert!(report.contains(s), "missing {s} in simstat report");
        }
        assert!(report.contains("health: no findings"), "{report}");
    }

    #[test]
    fn sweep_json_has_fixed_schema() {
        let cells = vec![cell(8, 4, 0, 1), cell(8, 4, 1, 1)];
        let doc = sweep_json(32, 4, &cells, &[]);
        let parsed = desim::json::parse(&doc).expect("valid JSON");
        let flat = crate::perfdiff::flatten(&parsed);
        let keys: Vec<&str> = flat.iter().map(|(k, _)| k.as_str()).collect();
        for want in [
            "schema",
            "batch_bytes",
            "cells[0].size",
            "cells[0].window_us",
            "cells[0].am_per_s",
            "cells[0].wire_msgs",
            "cells[1].avg_batch",
            "best_speedup.ratio",
        ] {
            assert!(keys.contains(&want), "missing {want} in {keys:?}");
        }
    }
}
