#!/usr/bin/env python3
"""Compare two BENCH_hotpath.json runs and flag regressions.

Usage:
    tools/compare_bench.py baseline.json candidate.json [--threshold 0.10]
        [--overhead-pair crr_reduce:crr_reduce_traced] [--overhead-threshold 0.10]

Series are keyed by (graph, op) and compared on median_seconds. A series
whose median grew by more than --threshold (default 10%) counts as a
regression; the script prints a table of every shared series and exits
non-zero when any regression is found, so CI can gate on it. Series present
in only one of the two files (a benchmark added or retired between revisions)
are warned about on stderr and otherwise ignored — they never fail the gate.

--overhead-pair BASE:INSTRUMENTED additionally gates *within* the candidate
file: for every graph carrying both ops, the instrumented median must stay
within --overhead-threshold (default 10%) of the base median. This is how CI
keeps the tracer-enabled hot path honest — the observability layer may not
cost more than the regression budget itself. Repeatable.
"""

import argparse
import json
import sys


SCHEMAS = (
    "edgeshed-bench-hotpath-v1",
    "edgeshed-bench-serving-v1",
    "edgeshed-bench-ingest-v1",
    "edgeshed-bench-dynamic-v1",
)


def load(path):
    with open(path) as f:
        data = json.load(f)
    if data.get("schema") not in SCHEMAS:
        sys.exit(f"{path}: unexpected schema {data.get('schema')!r}")
    return data


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.10,
        help="fractional slowdown that counts as a regression (default 0.10)",
    )
    parser.add_argument(
        "--overhead-pair",
        action="append",
        default=[],
        metavar="BASE:INSTRUMENTED",
        help="op pair gated within the candidate file: the INSTRUMENTED "
        "median must stay within --overhead-threshold of the BASE median "
        "on every graph that has both (repeatable)",
    )
    parser.add_argument(
        "--overhead-threshold",
        type=float,
        default=0.10,
        help="fractional overhead allowed for each --overhead-pair "
        "(default 0.10)",
    )
    args = parser.parse_args()

    for pair in args.overhead_pair:
        if pair.count(":") != 1:
            sys.exit(f"--overhead-pair {pair!r}: expected BASE:INSTRUMENTED")

    baseline = load(args.baseline)
    candidate = load(args.candidate)
    if baseline["schema"] != candidate["schema"]:
        sys.exit(
            f"schema mismatch: {args.baseline} is {baseline['schema']!r} but "
            f"{args.candidate} is {candidate['schema']!r}"
        )
    base = {(b["graph"], b["op"]): b for b in baseline["benchmarks"]}
    cand = {(b["graph"], b["op"]): b for b in candidate["benchmarks"]}

    print(
        f"baseline:  rev={baseline.get('git_rev')} threads={baseline.get('threads')}"
    )
    print(
        f"candidate: rev={candidate.get('git_rev')} threads={candidate.get('threads')}"
    )
    header = f"{'graph':<12} {'op':<20} {'base (s)':>10} {'cand (s)':>10} {'ratio':>8}  verdict"
    print(header)
    print("-" * len(header))

    only_base = sorted(set(base) - set(cand))
    only_cand = sorted(set(cand) - set(base))
    for g, o in only_base:
        print(f"warning: {g}/{o} only in baseline; ignored", file=sys.stderr)
    for g, o in only_cand:
        print(f"warning: {g}/{o} only in candidate; ignored", file=sys.stderr)

    regressions = []
    for key in sorted(set(base) & set(cand)):
        old = base[key]["median_seconds"]
        new = cand[key]["median_seconds"]
        # A series that carries no timing has a zero median on both sides;
        # that is not a regression.
        ratio = new / old if old > 0 else 1.0 if new == 0 else float("inf")
        if ratio > 1 + args.threshold:
            verdict = f"REGRESSION (+{(ratio - 1) * 100:.1f}%)"
            regressions.append(key)
        elif ratio < 1 - args.threshold:
            verdict = f"improved ({(1 - ratio) * 100:.1f}%)"
        else:
            verdict = "ok"
        print(
            f"{key[0]:<12} {key[1]:<20} {old:>10.4f} {new:>10.4f} {ratio:>8.2f}  {verdict}"
        )
    overhead_failures = []
    for pair in args.overhead_pair:
        base_op, traced_op = pair.split(":")
        graphs = sorted(
            {g for g, o in cand if o == base_op}
            & {g for g, o in cand if o == traced_op}
        )
        if not graphs:
            print(f"\noverhead pair {pair}: no graph has both ops in candidate")
            overhead_failures.append((pair, "<missing>"))
            continue
        print(f"\noverhead gate {base_op} -> {traced_op} "
              f"(threshold {args.overhead_threshold * 100:.0f}%):")
        for g in graphs:
            base_s = cand[(g, base_op)]["median_seconds"]
            traced_s = cand[(g, traced_op)]["median_seconds"]
            ratio = traced_s / base_s if base_s > 0 else float("inf")
            if ratio > 1 + args.overhead_threshold:
                verdict = f"EXCESS OVERHEAD (+{(ratio - 1) * 100:.1f}%)"
                overhead_failures.append((pair, g))
            else:
                verdict = f"ok ({(ratio - 1) * 100:+.1f}%)"
            print(f"  {g:<12} {base_s:>10.4f} -> {traced_s:>10.4f} "
                  f"{ratio:>8.2f}  {verdict}")

    failed = False
    if regressions:
        print(
            f"\n{len(regressions)} series regressed more than "
            f"{args.threshold * 100:.0f}%: "
            + ", ".join(f"{g}/{o}" for g, o in regressions)
        )
        failed = True
    if overhead_failures:
        print(
            f"{len(overhead_failures)} overhead check(s) failed: "
            + ", ".join(f"{p} on {g}" for p, g in overhead_failures)
        )
        failed = True
    if failed:
        return 1
    skipped = len(only_base) + len(only_cand)
    suffix = f" ({skipped} one-sided series ignored)" if skipped else ""
    print(f"\nno regressions above threshold{suffix}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
