#!/usr/bin/env bash
# Full-size simulated-time signatures: run `bgq-perf child <workload> --seed
# <seed>` for every workload in benchmark/expected.json and fail unless each
# run's sim_time_ps equals the recorded value and none of its checks failed.
# (bgq-perf itself only prints a NOTE on a mismatch.) The workloads named in
# ALLOC_CEILING run with --trace, and also fail when the run phase's traced
# allocations exceed their ceiling: the counts repeat exactly, so a boxed
# event per chunk, a staging buffer per train or a box per rmw fails here. Reads benchmark/,
# writes nothing there; ~15 s in a release build.
#   scripts/check_signatures.sh
set -euo pipefail
cd "$(dirname "$0")/.."
python3 - <<'EOF'
import json, subprocess, sys

# Run-phase allocations at seed 1: rma_mix 5.2 per op (256000 ops; 1281151
# measured), scf_fock 115.5 per Fock task (9408 tasks; 1083481 measured:
# the two arrays' region keys one shared table each, and a strided get
# stages nothing), rmw_dense 6.05 per op
# (262143 ops; 1580464 measured: a parked rank's wait registers on no
# context) and rmw_sparse 4.02 per op (1044480 ops; 4189700 measured).
ALLOC_CEILING = {
    "rma_mix": 1_331_200,
    "scf_fock": 1_086_624,
    "rmw_dense": 1_585_965,
    "rmw_sparse": 4_198_810,
}

expected = json.load(open("benchmark/expected.json"))
seed = str(expected["seed"])
bad = 0
for workload, want in expected["model.sim_time_ps"].items():
    ceiling = ALLOC_CEILING.get(workload)
    out = subprocess.run(
        ["cargo", "run", "--release", "--quiet", "--manifest-path", "benchmark/Cargo.toml",
         "--", "child", workload, "--seed", seed] + (["--trace"] if ceiling else []),
        check=True, capture_output=True, text=True,
    ).stdout
    run = json.loads(out.strip().splitlines()[-1])
    ok = run["sim_time_ps"] == want and run["checks_failed"] == 0
    line = (f"{workload:<13} sim_time_ps {run['sim_time_ps']} "
            f"(expected {want}), checks failed {run['checks_failed']}")
    if ceiling:
        ok = ok and run["allocs"] <= ceiling
        line += f", allocs {run['allocs']} (ceiling {ceiling})"
    bad += not ok
    print(f"{'ok  ' if ok else 'FAIL'} {line}")
sys.exit(1 if bad else 0)
EOF
