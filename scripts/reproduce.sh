#!/usr/bin/env bash
# Regenerate every table/figure of the paper plus the design ablations.
# Results land in results/*.txt, plus machine-readable JSON snapshots
# (results/*.json), a Chrome trace (results/fig9_rmw.trace.json), and
# critical-path breakdowns (results/*.breakdown.json) for the
# observability-instrumented figures. Full-scale fig9/fig11 take a few
# minutes. Finishes with the perf-regression gate: quick-config reruns
# diffed against the committed results/BENCH_*.json goldens via perfdiff.
#
# Usage: reproduce.sh [--jobs N]
#   --jobs N   forward to every bench binary: run sweep points on N threads.
#              Results are byte-identical for any N (collected by input index).
set -euo pipefail
cd "$(dirname "$0")/.."
JOBS=""
if [[ "${1-}" == "--jobs" ]]; then
  [[ -n "${2-}" ]] || { echo "error: --jobs needs a value" >&2; exit 2; }
  JOBS="--jobs $2"
fi
cargo build --release -p bgq-bench --bins
mkdir -p results
# Binary stdout goes to the results file; stderr stays on the console so
# failures are visible instead of buried in the result file.
run() { echo "== $1"; ./target/release/"$1" ${2-} $JOBS > "results/$1.txt"; }
# Any machine-readable artifact a binary was asked to write must exist and
# be non-empty, or the reproduction is broken — fail loudly.
check_json() {
  for f in "$@"; do
    [[ -s "$f" ]] || { echo "error: expected JSON output $f is missing or empty" >&2; exit 1; }
  done
}
run table2_attributes
run fig3_latency
run fig4_bandwidth
run fig5_latency_per_byte
run fig6_efficiency
run fig7_rank_latency
run fig8_strided
run fig9_rmw "--json results/fig9_rmw.json --trace results/fig9_rmw.trace.json --breakdown results/fig9_rmw.breakdown.json --timeline results/fig9_rmw.timeline.json"
check_json results/fig9_rmw.json results/fig9_rmw.trace.json results/fig9_rmw.breakdown.json results/fig9_rmw.timeline.json
run fig11_nwchem_scf "--json results/fig11_nwchem_scf.json --breakdown results/fig11_nwchem_scf.breakdown.json --timeline results/fig11_nwchem_scf.timeline.json"
check_json results/fig11_nwchem_scf.json results/fig11_nwchem_scf.breakdown.json results/fig11_nwchem_scf.timeline.json
run abl_fallback
run abl_contexts
run abl_consistency
run abl_region_cache
run abl_strided_pack
run abl_contention
run abl_mapping
run fig_fault "--json results/fig_fault.json --timeline results/fig_fault.timeline.json"
check_json results/fig_fault.json results/fig_fault.timeline.json
run fig_am "--json results/fig_am.json --timeline results/fig_am.timeline.json"
check_json results/fig_am.json results/fig_am.timeline.json
echo "== simulator self-benchmark (simbench; wall-clock, host-dependent)"
./target/release/simbench --quick $JOBS --json results/simbench.json \
  > results/simbench.txt
check_json results/simbench.json
# Loose self-benchmark gate: catches gross regressions (and schema drift)
# against the committed golden while the generous tolerance absorbs the
# host-dependent wall-clock/speedup fields. The strict determinism check on
# events/sim_time_ps lives in crates/bench/tests/determinism.rs.
./target/release/perfdiff results/BENCH_simbench.json results/simbench.json --tol 20
echo "== perf-regression gate (quick configs vs results/BENCH_* goldens)"
./target/release/fig9_rmw --procs 2,8,32 --ops 5 $JOBS \
  --json results/gate_fig9_rmw.json \
  --breakdown results/gate_fig9_rmw.breakdown.json \
  --timeline results/gate_fig9_rmw.timeline.json > /dev/null
./target/release/fig11_nwchem_scf --quick --procs 32 $JOBS \
  --json results/gate_fig11_nwchem_scf.json \
  --breakdown results/gate_fig11_nwchem_scf.breakdown.json > /dev/null
check_json results/gate_fig9_rmw.json results/gate_fig9_rmw.breakdown.json \
  results/gate_fig9_rmw.timeline.json \
  results/gate_fig11_nwchem_scf.json results/gate_fig11_nwchem_scf.breakdown.json
./target/release/perfdiff results/BENCH_fig9_rmw.json results/gate_fig9_rmw.json --check
./target/release/perfdiff results/BENCH_fig9_rmw.breakdown.json results/gate_fig9_rmw.breakdown.json --check
# Timeline artifacts are pure virtual-time telemetry — every window index
# and counter delta is deterministic, so this gate runs at zero tolerance.
./target/release/perfdiff results/BENCH_fig9_rmw.timeline.json results/gate_fig9_rmw.timeline.json --tol 0 --check
# Non-gating human report over the same artifact (sparklines + health rules).
./target/release/simstat results/gate_fig9_rmw.timeline.json > results/simstat.txt || true
./target/release/perfdiff results/BENCH_fig11_nwchem_scf.json results/gate_fig11_nwchem_scf.json --check
./target/release/perfdiff results/BENCH_fig11_nwchem_scf.breakdown.json results/gate_fig11_nwchem_scf.breakdown.json --check
# Fault-injection sweep: every fault-v1 field is deterministic, so this
# gate runs at zero tolerance — any sim_time_ps or counter drift is real.
./target/release/fig_fault --procs 32 --msgs 8 --sizes 4096,65536 --fault-rate 0,5000 $JOBS \
  --json results/gate_fig_fault.json > /dev/null
check_json results/gate_fig_fault.json
./target/release/perfdiff results/BENCH_fig_fault.json results/gate_fig_fault.json --tol 0 --check
# Active-message aggregation sweep: every am-v1 leaf is virtual-time
# deterministic (peak_rss_kb is candidate-only and never gates), so the
# default sweep diffs at zero tolerance against its committed golden.
./target/release/perfdiff results/BENCH_fig_am.json results/fig_am.json --tol 0 --check
# Memory-scaling sweep (fig_mem): per-subsystem peak/live bytes per rank
# across a p-sweep, plus the memstat report. Split gate: schema, tag set and
# growth classes are keys/strings and compare exactly at any tolerance;
# absolute byte counts may drift across compiler/std versions, so they get a
# loose relative band plus per-leaf absolute slack.
./target/release/fig_mem $JOBS --json results/fig_mem.json \
  --timeline results/fig_mem.timeline.json > results/fig_mem.txt
check_json results/fig_mem.json results/fig_mem.timeline.json
./target/release/perfdiff results/BENCH_memscale.json results/fig_mem.json --tol 0.35 --abs 8192 --check
./target/release/memstat results/fig_mem.json > results/memstat.txt
# Million-rank scaling (fig_scale): the small-p deterministic signature
# (virtual times, event counts, materialized ranks, task-table size, and
# the netstorm delivery signature) gates at zero tolerance; the full curves
# to p=1M are regenerated with the default sweep
# (`fig_scale --json results/BENCH_scale.json`) when the rank-lifecycle
# model changes intentionally. Serial by design — no $JOBS.
./target/release/fig_scale --procs 32,1024,32768 \
  --gate-json results/gate_fig_scale.json > results/fig_scale.txt
check_json results/gate_fig_scale.json
./target/release/perfdiff results/BENCH_scale_gate.json results/gate_fig_scale.json --tol 0 --check
# abl_mapping (the only run above unit level on a non-default mapping,
# TABCDE) and fig7_rank_latency (every rank of its partition resolved) are
# deterministic, and their text is committed: what the runs above just wrote
# must be the committed bytes. CI makes the same two comparisons.
git diff --exit-code -- results/abl_mapping.txt results/fig7_rank_latency.txt
echo "perf gate passed; all results in results/"
