#!/usr/bin/env bash
# Full-size simulated-time signatures: run `bgq-perf child <workload> --seed
# <seed>` for every workload in benchmark/expected.json and fail unless each
# run's sim_time_ps equals the recorded value and none of its checks failed.
# (bgq-perf itself only prints a NOTE on a mismatch.) Reads benchmark/, writes
# nothing there; ~15 s in a release build.
#   scripts/check_signatures.sh
set -euo pipefail
cd "$(dirname "$0")/.."
python3 - <<'EOF'
import json, subprocess, sys

expected = json.load(open("benchmark/expected.json"))
seed = str(expected["seed"])
bad = 0
for workload, want in expected["model.sim_time_ps"].items():
    out = subprocess.run(
        ["cargo", "run", "--release", "--quiet", "--manifest-path", "benchmark/Cargo.toml",
         "--", "child", workload, "--seed", seed],
        check=True, capture_output=True, text=True,
    ).stdout
    run = json.loads(out.strip().splitlines()[-1])
    ok = run["sim_time_ps"] == want and run["checks_failed"] == 0
    bad += not ok
    print(f"{'ok  ' if ok else 'FAIL'} {workload:<13} sim_time_ps {run['sim_time_ps']} "
          f"(expected {want}), checks failed {run['checks_failed']}")
sys.exit(1 if bad else 0)
EOF
