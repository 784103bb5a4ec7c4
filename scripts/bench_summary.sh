#!/usr/bin/env sh
# Collates every BENCH_*.json trajectory at the repo root into one
# table: per benchmark, the headline metric's first and latest committed
# values and the relative change between them. Each trajectory is an
# append-only array of run objects — this is the cross-PR view of how
# the perf work is trending.
#
#   scripts/bench_summary.sh       one summary row per trajectory
#   scripts/bench_summary.sh -v    additionally list every entry
#
# Ablation-labeled entries (a "variant" field other than the shipping
# configuration) are skipped when picking first/latest, so the trend
# compares like with like.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)

verbose=0
[ "${1:-}" = "-v" ] && verbose=1

BENCH_VERBOSE="$verbose" python3 - "$repo_root"/BENCH_*.json <<'PY'
import json
import os
import sys

# Headline metric per benchmark: (field, True if lower is better).
HEADLINE = {
    "memsys": ("measure_ns_per_instr", True),
    "pack": ("trace_bytes_per_instr", True),
    "distributed_claims": ("coordination_overhead_1_worker", True),
    "warm_prefix": ("warm_vs_baseline_speedup", False),
}
# Ablation entries carry a "variant" label; the shipping path has none
# (oldest entries), "batched+memo" (while the backend had a deferred
# miss batch) or "memo" (since).
DEFAULT_VARIANTS = (None, "batched+memo", "memo")

verbose = os.environ.get("BENCH_VERBOSE") == "1"
rows = []
for path in sys.argv[1:]:
    with open(path) as handle:
        entries = json.load(handle)
    if not entries:
        continue
    bench = entries[0].get("bench", os.path.basename(path))
    metric, lower_better = HEADLINE.get(bench, (None, True))
    if metric is None:
        numeric = [k for k, v in sorted(entries[-1].items()) if isinstance(v, float)]
        metric = numeric[0] if numeric else None
    shipping = [e for e in entries if e.get("variant") in DEFAULT_VARIANTS]
    trend = shipping if shipping else entries
    first = trend[0].get(metric) if metric else None
    latest = trend[-1].get(metric) if metric else None
    if first is None or latest is None:
        change = "n/a"
    else:
        change = f"{(latest - first) / first * 100.0:+.1f}%"
    rows.append((
        bench,
        str(len(entries)),
        f"{metric} ({'lower' if lower_better else 'higher'} is better)",
        "n/a" if first is None else f"{first:g}",
        "n/a" if latest is None else f"{latest:g}",
        change,
    ))
    if verbose:
        print(f"== {os.path.basename(path)}")
        for i, entry in enumerate(entries):
            variant = entry.get("variant")
            label = f" [{variant}]" if variant not in DEFAULT_VARIANTS else ""
            value = entry.get(metric)
            value = "n/a" if value is None else f"{value:g}"
            print(f"  #{i}{label}: {metric} = {value}")
        print()

header = ("bench", "entries", "metric", "first", "latest", "change")
widths = [max(len(r[i]) for r in rows + [header]) for i in range(len(header))]
for row in [header] + rows:
    print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
PY
