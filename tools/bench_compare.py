#!/usr/bin/env python3
"""Compare two bench_suite reports (BENCH_10.json) and fail on perf regression.

Usage: bench_compare.py BASELINE.json NEW.json [--tolerance 0.15]

Each file is either one `bench_suite --json` output or a JSON *array* of
several (one per thread count — CI runs the suite at THREADS=1 and
THREADS=2 and merges the reports). Every report carries one table of
(kernel, config, secs, MLUP/s, model B/pt, scheme) rows at a pinned size,
plus a "threads" context entry keying its comparison group.

Raw MLUP/s is not comparable across machines (or across CI runners), so each
row is first normalized by the same report's naive row for that kernel —
"CATS2+wave is 2.1x naive" is a property of the code, not the machine. Rows
are grouped per precision (the kernel name's `_f32` suffix) AND per thread
count: every fp32 family carries its own naive/plain anchors, and a
multi-thread row only ever normalizes against the naive row measured at the
same thread count (thread scaling is part of what the suite tracks). The
cross-precision
fp32/fp64 speedup is reported separately per config (informational —
raw-throughput ratios are noisier than normalized ones, so they do not
gate). A row regresses when its normalized throughput drops more than
--tolerance (15% default) below the baseline. The model B/pt column is
compared exactly (tolerance 1%): the analytic traffic model is
deterministic, so any drift there is a real accounting change, not noise —
in particular the fp32 rows must model element size E=4, half the fp64
bytes per point.

Exit status: 0 clean, 1 regression(s), 2 malformed input.
"""

import argparse
import json
import sys


def table_rows(report, path, rows):
    """Merge one report object's bench table into rows keyed by
    (kernel, config, threads)."""
    threads = int(report.get("context", {}).get("threads", 1))
    for table in report.get("tables", []):
        headers = table.get("headers", [])
        if "MLUP/s" not in headers or "config" not in headers:
            continue
        ik = headers.index("kernel")
        ic = headers.index("config")
        im = headers.index("MLUP/s")
        ib = headers.index("model B/pt")
        for r in table.get("rows", []):
            rows[(r[ik], r[ic], threads)] = (float(r[im]), float(r[ib]))


def load_rows(path):
    """-> {(kernel, config, threads): (mlups, model_bpp)}"""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_compare: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    rows = {}
    for report in doc if isinstance(doc, list) else [doc]:
        table_rows(report, path, rows)
    if not rows:
        print(f"bench_compare: no bench_suite table in {path}", file=sys.stderr)
        sys.exit(2)
    return rows


def precision_of(kernel):
    return "fp32" if kernel.endswith("_f32") else "fp64"


def normalized(rows):
    """MLUP/s of each row divided by its kernel's naive row at the same
    thread count (1.0 if absent).

    The naive anchor is always the same kernel — hence the same precision —
    and the same thread count, so normalized ratios never mix precisions or
    parallelism levels.
    """
    out = {}
    for (kernel, config, threads), (mlups, bpp) in rows.items():
        naive = rows.get((kernel, "naive", threads), (0.0, 0.0))[0]
        out[(kernel, config, threads)] = (
            mlups / naive if naive > 0 else 0.0, bpp)
    return out


def compare_group(base, new, keys, tolerance, failures):
    for key in sorted(keys):
        if key not in new:
            failures.append(
                f"{key[0]}/{key[1]}@t{key[2]}: row missing from new report")
            continue
        b_rel, b_bpp = base[key]
        n_rel, n_bpp = new[key]
        delta = (n_rel - b_rel) / b_rel if b_rel > 0 else 0.0
        flag = ""
        if b_rel > 0 and n_rel < b_rel * (1.0 - tolerance):
            failures.append(
                f"{key[0]}/{key[1]}@t{key[2]}: normalized MLUP/s "
                f"{n_rel:.3f} < {b_rel:.3f} - {tolerance:.0%}")
            flag = "  << REGRESSION"
        if b_bpp > 0 and abs(n_bpp - b_bpp) / b_bpp > 0.01:
            failures.append(
                f"{key[0]}/{key[1]}@t{key[2]}: model B/pt changed "
                f"{b_bpp} -> {n_bpp}")
            flag = "  << MODEL CHANGE"
        print(f"{key[0]:<12} {key[1]:<12} {b_rel:>10.3f} {n_rel:>10.3f} "
              f"{delta:>+7.1%}  {n_bpp:>6.2f}{flag}")


def print_precision_ratios(raw, label):
    """fp32/fp64 raw-throughput ratio per (base kernel, config, threads)."""
    pairs = sorted({(k[:-4], c, t) for (k, c, t) in raw if k.endswith("_f32")})
    lines = []
    for kernel, config, threads in pairs:
        f32 = raw.get((kernel + "_f32", config, threads), (0.0, 0.0))[0]
        f64 = raw.get((kernel, config, threads), (0.0, 0.0))[0]
        if f32 > 0 and f64 > 0:
            lines.append(f"  {kernel}/{config}@t{threads}: {f32 / f64:.2f}x")
    if lines:
        print(f"\nfp32/fp64 raw speedup ({label}, informational):")
        for line in lines:
            print(line)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("new")
    ap.add_argument("--tolerance", type=float, default=0.15,
                    help="allowed fractional drop in normalized MLUP/s")
    args = ap.parse_args()

    base_raw = load_rows(args.baseline)
    new_raw = load_rows(args.new)
    base = normalized(base_raw)
    new = normalized(new_raw)

    failures = []
    header = (f"{'kernel':<12} {'config':<12} {'base(rel)':>10} "
              f"{'new(rel)':>10} {'delta':>8}  {'B/pt':>6}")
    thread_counts = sorted({k[2] for k in base})
    for threads in thread_counts:
        for precision in ("fp64", "fp32"):
            keys = [k for k in base
                    if precision_of(k[0]) == precision and k[2] == threads]
            if not keys:
                continue
            print(f"-- {precision} @ {threads} thread(s) --")
            print(header)
            compare_group(base, new, keys, args.tolerance, failures)
            print()

    print_precision_ratios(new_raw, "new")

    if failures:
        print(f"\n{len(failures)} regression(s) vs {args.baseline}:",
              file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\nno regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
