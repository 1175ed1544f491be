#!/usr/bin/env bash
# A/B protocol of benchmark/README.md ("Claiming a gain") as a command:
# run the BENCHMARK.json command alternately from two checkouts (A B, B A,
# A B, ...; pair i uses seed first-seed + i - 1 on both sides, one process at
# a time) and print, per end-to-end metric, how many pairs the change won,
# both medians and quartiles, and the verdict of the README's rule — a gain
# needs >= 9/10 of the pairs *and* medians further apart than the parent's
# own interquartile distance; a regression is a median worse than the
# metric's bound.
#   scripts/ab.sh <parent-tree> <change-tree> <workload> [pairs=10] [first-seed=1]
# Both trees are built first (untimed). Raw result lines go to stderr.
set -euo pipefail
if [ $# -lt 3 ]; then
    sed -n '2,13p' "$0" >&2
    exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=${4:-10}
seed0=${5:-1}
spec=$change/BENCHMARK.json
mapfile -t cmd < <(python3 -c 'import json,sys; print(*json.load(open(sys.argv[1]))["command"], sep="\n")' "$spec")
seconds=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$spec")

for tree in "$parent" "$change"; do
    (cd "$tree" && cargo build --release --quiet --manifest-path benchmark/Cargo.toml)
done

runs=$(mktemp)
trap 'rm -f "$runs"' EXIT
one() { # side tree seed
    local line
    line=$(cd "$2" && "${cmd[@]}" --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0 | tail -n 1)
    echo "$1 seed $3 $line" >&2
    echo "{\"side\":\"$1\",\"seed\":$3,\"result\":$line}" >>"$runs"
}
for ((i = 0; i < pairs; i++)); do
    seed=$((seed0 + i))
    if ((i % 2 == 0)); then
        one A "$parent" "$seed"
        one B "$change" "$seed"
    else
        one B "$change" "$seed"
        one A "$parent" "$seed"
    fi
done

python3 - "$spec" "$runs" "$workload" <<'EOF'
import json, statistics, sys

spec = json.load(open(sys.argv[1]))
runs = [json.loads(line) for line in open(sys.argv[2])]
sides = {s: [r["result"] for r in runs if r["side"] == s] for s in "AB"}
failed = {s: sum(r["failed"] for r in rs) for s, rs in sides.items()}
attempted = {s: sum(r["attempted"] for r in rs) for s, rs in sides.items()}
print(f"workload {sys.argv[3]}: {len(sides['A'])} pairs, A = parent, B = change")
print(f"failed/attempted  A {failed['A']}/{attempted['A']}  B {failed['B']}/{attempted['B']}")
print(f"{'metric':<12} {'wins B/A/tie':<13} {'A q1 / median / q3':<36} {'B q1 / median / q3':<36} {'B/A':>7}  verdict")
for m in spec["end_to_end"]:
    a = [r["metrics"][m["name"]]["value"] for r in sides["A"]]
    b = [r["metrics"][m["name"]]["value"] for r in sides["B"]]
    lower = m["better"] == "lower"
    wins_b = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
    wins_a = sum((y > x) if lower else (y < x) for x, y in zip(a, b))
    def quart(v):
        q = statistics.quantiles(v, n=4, method="inclusive") if len(v) > 1 else [v[0]] * 3
        return q[0], statistics.median(v), q[2]
    (a1, am, a3), (b1, bm, b3) = quart(a), quart(b)
    ratio = bm / am if am else float("nan")
    better = bm < am if lower else bm > am
    worse_by = (bm / am - 1) if lower else (am / bm - 1)
    if better and wins_b >= 0.9 * len(a) and abs(bm - am) > (a3 - a1):
        verdict = "GAIN"
    elif worse_by > m["bound"]:
        verdict = f"WORSE than bound {m['bound']:.0%}"
    else:
        verdict = "ok"
    fmt = lambda q: " / ".join(f"{x:.6g}" for x in q)
    print(f"{m['name']:<12} {f'{wins_b}/{wins_a}/{len(a) - wins_a - wins_b}':<13} {fmt((a1, am, a3)):<36} {fmt((b1, bm, b3)):<36} {ratio:7.3f}  {verdict}")
EOF
