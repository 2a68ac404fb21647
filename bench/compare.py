"""Compare two result sets of the benchmark, parent against change.

    python3 bench/compare.py PARENT CHANGE

PARENT and CHANGE are directories (searched recursively) or files of the
records run.py writes to .bench_work/results/. Only untraced runs count.
For each workload and end-to-end metric it prints each side's median and
quartiles and a verdict under the bounds in BENCHMARK.json:

    improved    the change wins at least 9 of 10 seed-matched pairs (ties
                count for neither) and the medians differ by more than the
                parent's interquartile range; or, where the spread exceeds
                the bound, every change run beats every parent run
    worse       the change's median is worse than the parent's by more than
                the bound
    unresolved  the spread of either side exceeds the bound, or a gain
                rests on fewer than 10 pairs
    unchanged   otherwise

Output digests are compared seed by seed, so a byte change shows; they
are not gated here.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path):
    """{workload: [record, ...]} of the untraced records under path."""
    path = Path(path)
    files = sorted(path.rglob("*.json")) if path.is_dir() else [path]
    found = defaultdict(list)
    for f in files:
        record = json.loads(f.read_text(encoding="utf-8"))
        if isinstance(record, dict) and record.get("trace") == 0 and not record.get("tiny", True):
            found[record["workload"]].append(record)
    return found


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, pairs, better, bound):
    """parent/change: metric values; pairs: (parent, change) values of matched seeds."""
    sign = 1.0 if better == "higher" else -1.0
    p1, mp, p3 = quartiles(parent)
    c1, mc, c3 = quartiles(change)
    spread = max((p3 - p1) / abs(mp), (c3 - c1) / abs(mc))
    every_better = all(sign * (c - p) > 0 for c in change for p in parent)
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if spread > bound:
        return "improved" if every_better else "unresolved"
    if pairs and wins >= WIN_SHARE * len(pairs) and abs(mc - mp) > p3 - p1 and sign * (mc - mp) > 0:
        return "improved" if len(pairs) >= MIN_PAIRS else "unresolved"
    if sign * (mc - mp) / abs(mp) < -bound:
        return "worse"
    return "unchanged"


def compare(parent_sets, change_sets, spec):
    lines = []
    header = f"{'workload':<8} {'metric':<18} {'parent median [q1, q3] (n)':<34} {'change median [q1, q3] (n)':<34} {'delta':>7} {'wins':>6}  verdict"
    lines.append(header)
    for workload in sorted(set(parent_sets) | set(change_sets)):
        parent_runs, change_runs = parent_sets.get(workload, []), change_sets.get(workload, [])
        if not parent_runs or not change_runs:
            lines.append(f"{workload:<8} only one side has runs ({len(parent_runs)} vs {len(change_runs)})")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent = [r["metrics"][name] for r in parent_runs]
            change = [r["metrics"][name] for r in change_runs]
            by_seed = {r["seed"]: r["metrics"][name] for r in parent_runs}
            pairs = [(by_seed[r["seed"]], r["metrics"][name]) for r in change_runs if r["seed"] in by_seed]
            sign = 1.0 if metric["better"] == "higher" else -1.0
            wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
            p1, mp, p3 = quartiles(parent)
            c1, mc, c3 = quartiles(change)
            lines.append(
                f"{workload:<8} {name:<18} "
                f"{f'{mp:.4g} [{p1:.4g}, {p3:.4g}] ({len(parent)})':<34} "
                f"{f'{mc:.4g} [{c1:.4g}, {c3:.4g}] ({len(change)})':<34} "
                f"{100 * (mc - mp) / abs(mp):>+6.1f}% {f'{wins}/{len(pairs)}':>6}  "
                f"{verdict(parent, change, pairs, metric['better'], metric['bound'])}"
            )
        parent_digests = {r["seed"]: r["digest"] for r in parent_runs}
        shared = [r for r in change_runs if r["seed"] in parent_digests]
        differ = sorted(r["seed"] for r in shared if r["digest"] != parent_digests[r["seed"]])
        lines.append(
            f"{workload:<8} output digests of {len(shared)} shared seeds: "
            + (f"DIFFER for seeds {differ}" if differ else "identical")
        )
        failed = [sum(r["failed"] for r in runs) for runs in (parent_runs, change_runs)]
        lines.append(f"{workload:<8} failed utterances: parent {failed[0]}, change {failed[1]}")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description="Compare parent and change benchmark results.")
    parser.add_argument("parent", help="directory or file of the parent's result records")
    parser.add_argument("change", help="directory or file of the change's result records")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    print(compare(load(args.parent), load(args.change), spec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
