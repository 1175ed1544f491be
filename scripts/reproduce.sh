#!/usr/bin/env bash
# Regenerate every table/figure of the paper plus the design ablations.
# Each figure's stdout lands in results/<figure>.txt; the
# observability-instrumented figures also write machine-readable JSON
# snapshots (results/*.json), a Chrome trace (results/fig9_rmw.trace.json),
# critical-path breakdowns and timelines. Full-scale fig9/fig11 take a few
# minutes. Finishes with the regression gate (`bgq-bench gate`): quick-config
# reruns, written under target/gate/, against the committed results/BENCH_*
# goldens.
#
# Usage: reproduce.sh [--jobs N]
#   --jobs N   forward to every figure: run sweep points on N threads.
#              Results are byte-identical for any N (collected by input index).
set -euo pipefail
cd "$(dirname "$0")/.."
JOBS=""
if [[ "${1-}" == "--jobs" ]]; then
  [[ -n "${2-}" ]] || { echo "error: --jobs needs a value" >&2; exit 2; }
  JOBS="--jobs $2"
fi
cargo build --release -p bgq-bench
BENCH=./target/release/bgq-bench
mkdir -p results
# run <figure> [options]: stdout goes to results/<figure>.txt (stderr stays
# on the console so failures are visible), and every results/ path named in
# the options must exist and be non-empty afterwards, or the reproduction is
# broken — fail loudly.
run() {
  local name=$1; shift
  echo "== $name"
  "$BENCH" "$name" "$@" > "results/$name.txt"
  for f in "$@"; do
    [[ $f != results/* || -s $f ]] || { echo "error: expected output $f is missing or empty" >&2; exit 1; }
  done
}
for fig in $("$BENCH" list); do
  r=results/$fig
  case $fig in
    fig9_rmw) run $fig $JOBS --json $r.json --trace $r.trace.json --breakdown $r.breakdown.json --timeline $r.timeline.json ;;
    fig11_nwchem_scf) run $fig $JOBS --json $r.json --breakdown $r.breakdown.json --timeline $r.timeline.json ;;
    fig_fault | fig_am | fig_mem) run $fig $JOBS --json $r.json --timeline $r.timeline.json ;;
    # Serial by design (no --jobs). The default sweep runs to p = 1M (~30 s,
    # several GB): regenerate results/BENCH_scale.json with it by hand, and
    # only when the rank-lifecycle model changes on purpose.
    fig_scale) run $fig --procs 32,1024,32768 ;;
    *) run $fig $JOBS ;;
  esac
done
"$BENCH" memstat results/fig_mem.json > results/memstat.txt
echo "== regression gate (quick configs vs results/BENCH_* goldens)"
"$BENCH" gate
# Human report over the gate's fig9 timeline (sparklines + health rules).
"$BENCH" simstat target/gate/fig9_rmw.timeline.json > results/simstat.txt
echo "gate passed; all results in results/"
