#!/usr/bin/env bash
# Same-host A/B of two prebuilt benchmark binaries, by the reporting rule in
# ROADMAP.md: alternating-first-side pairs of the run the driver makes,
#
#   bench --workload W --seed N --seconds 18 --trace 0
#
# printing every run, then q1 / median / q3 per side for all eight
# end-to-end rows, the pairs the change won (ties count for neither), and
# whether the rows that must repeat exactly per seed did: the four count
# rows of every run, and — from one `--child` repetition per side — the
# fingerprint, the event and delivery totals and every `hop.*` row.
#
#   scripts/ab.sh PARENT_BENCH CHANGE_BENCH WORKLOAD SEED PAIRS
#
# Build each side first, from its own checkout into its own target dir:
#   CARGO_TARGET_DIR=/root/scratch/parent-target cargo build --release \
#       --offline --manifest-path <parent checkout>/benchmark/Cargo.toml
# and pass the two `release/bench` paths (`bench-traced` must sit next to
# each). Each binary appends to the `benchmark/out/results.jsonl` of the
# checkout it was built from. Exit status: 0 if the exact rows are equal.
set -euo pipefail
if [ $# -ne 5 ]; then
    sed -n '2,21p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
parent=$1 change=$2 workload=$3 seed=$4 pairs=$5
# The identity repetition only has to give both sides the same input; these
# are the sizes the driver's run uses (benchmark/src/workloads.rs).
case "$workload" in
    lvc_fanout) units=20000 ;;
    flash_crowd) units=2500 ;;
    chaos_repair) units=4000 ;;
    messenger_chat) units=10000 ;;
    *) echo "no workload named $workload" >&2; exit 2 ;;
esac
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

for ((pair = 1; pair <= pairs; pair++)); do
    if ((pair % 2)); then order="parent change"; else order="change parent"; fi
    for side in $order; do
        bin=${!side}
        "$bin" --workload "$workload" --seed "$seed" --seconds 18 --trace 0 |
            tail -n 1 >"$tmp/run.json"
        echo "pair $pair $side $(cat "$tmp/run.json")"
        cat "$tmp/run.json" >>"$tmp/$side.jsonl"
    done
done
for side in parent change; do
    bin=${!side}
    "$bin" --child --workload "$workload" --seed "$seed" --units "$units" \
        --trace 0 --out "$tmp/out-$side" >"$tmp/child-$side.txt"
done

python3 - "$tmp" "$workload" "$seed" <<'EOF'
import json, statistics, sys
tmp, workload, seed = sys.argv[1:]
load = lambda side: [json.loads(l) for l in open(f"{tmp}/{side}.jsonl")]
parent, change = load("parent"), load("change")
better = {"delivered_share": "higher"}          # every other row: lower
exact = ["events_per_delivery", "sim_delivery_p50_ms", "sim_delivery_p99_ms", "delivered_share"]
rows = list(parent[0]["metrics"])

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3

print(f"\n{workload} seed {seed}: {len(parent)} pairs, q1 / median / q3")
ok = all(r["correct"] and r["failed"] == 0 for r in parent + change)
for row in rows:
    p = [r["metrics"][row]["value"] for r in parent]
    c = [r["metrics"][row]["value"] for r in change]
    (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)
    if row in exact:
        same = len(set(p + c)) == 1
        ok &= same
        note = "bit-equal in every run" if same else "DIFFERS (behaviour change)"
    else:
        wins = sum((b > a) if better.get(row) == "higher" else (b < a) for a, b in zip(p, c))
        ties = sum(a == b for a, b in zip(p, c))
        delta = (cm - pm) / pm * 100 if pm else 0.0
        iqr = (p3 - p1) / pm * 100 if pm else 0.0
        note = (f"{delta:+.1f} % median, change won {wins}/{len(p) - ties} pairs, "
                f"parent quartile distance {iqr:.1f} %")
    unit = parent[0]["metrics"][row]["unit"]
    print(f"  {row:<22} parent {p1:.6g} / {pm:.6g} / {p3:.6g}   "
          f"change {c1:.6g} / {cm:.6g} / {c3:.6g} {unit}   {note}")

def child(side):
    pairs = (l.split(None, 1) for l in open(f"{tmp}/child-{side}.txt") if " " in l)
    return {k: v.strip() for k, v in pairs}
p, c = child("parent"), child("change")
keys = ["fingerprint", "engine.events_total", "deliveries"] + sorted(k for k in p if k.startswith("hop."))
moved = [k for k in keys if p.get(k) != c.get(k)]
ok &= not moved
print(f"  identity repetition: fingerprint {p['fingerprint']} vs {c['fingerprint']}, "
      f"{len(keys) - len(moved)}/{len(keys)} exact rows equal"
      + (f"; MOVED: {', '.join(moved)}" if moved else ""))
print("  every run correct, exact rows equal" if ok else "  NOT EQUAL: see above")
sys.exit(0 if ok else 1)
EOF
