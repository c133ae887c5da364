#!/usr/bin/env python3
"""Alternating before/after runs of the benchmark, saved as BENCH_<label>.json.

    python3 scripts/bench_pairs.py --parent HEAD~1 --label eighth_walk \
        --seeds 9301-9310 --what "what the change does" [--seconds 40]

Run from the repository root.  The parent side is a ``git archive`` of
``--parent`` unpacked into a temporary directory; the change side is the
working tree.  For each seed both sides run
``python3 perfbench/run.py --workload all --seed SEED --seconds S`` one after
the other, alternating which goes first (even pair index: parent first), so
drifts of a shared host's load fall on both sides alike.

The output keeps the schema of the committed ``BENCH_*.json`` files:
``label``, ``what``, ``command``, ``protocol``, ``host``, ``summary`` and
``runs``.  ``runs[workload]`` lists ``{side, seed, result}`` with ``result``
the workload's entry of the last stdout line of a run.  ``summary[workload]``
holds, per end-to-end metric, the median, quartiles (linear interpolation),
IQR and n of each side, the relative change of the medians, and in how many
pairs the change was better; ``all_correct`` says whether every run passed
its gates.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
# End-to-end metrics and the direction in which each is better.
BETTER = {"setup_s": "lower", "wall_s": "lower", "cpu_s": "lower",
          "points_per_s": "higher", "peak_rss_mb": "lower"}


def _seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = (int(v) for v in text.split("-"))
        return list(range(first, last + 1))
    return [int(v) for v in text.split(",")]


def _archive(rev: str, dest: Path) -> None:
    with tempfile.TemporaryFile() as fh:
        subprocess.run(["git", "archive", rev], cwd=ROOT, stdout=fh, check=True)
        fh.seek(0)
        with tarfile.open(fileobj=fh) as tar:
            tar.extractall(dest, filter="data")


def _run(tree: Path, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", "all",
           "--seed", str(seed), "--seconds", str(seconds)]
    out = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True,
                         check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def _stats(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3),
            "iqr": float(q3 - q1), "n": len(values)}


def summarize(runs: dict) -> dict:
    summary = {}
    for workload, rows in runs.items():
        sides = {side: {r["seed"]: r["result"] for r in rows if r["side"] == side}
                 for side in ("parent", "change")}
        seeds = sorted(sides["parent"].keys() & sides["change"].keys())
        entry = {}
        for name, better in BETTER.items():
            vals = {side: [sides[side][s]["metrics"][name]["value"] for s in seeds]
                    for side in sides}
            sign = 1.0 if better == "lower" else -1.0
            wins = sum(sign * (c - p) < 0 for p, c in zip(vals["parent"], vals["change"]))
            p_stats, c_stats = _stats(vals["parent"]), _stats(vals["change"])
            entry[name] = {"parent": p_stats, "change": c_stats,
                           "change_vs_parent": c_stats["median"] / p_stats["median"] - 1.0,
                           "change_better_in_pairs": f"{wins}/{len(seeds)}"}
        entry["all_correct"] = all(r["result"]["correct"] and not r["result"]["failed"]
                                   for r in rows)
        summary[workload] = entry
    return summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="git revision of the parent side")
    p.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    p.add_argument("--seeds", type=_seeds, required=True,
                   help="first-last or a comma list; one pair per seed")
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--what", default="", help="one-paragraph description of the change")
    args = p.parse_args(argv)

    runs: dict = {}
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent = Path(tmp)
        _archive(args.parent, parent)
        for i, seed in enumerate(args.seeds):
            order = [("parent", parent), ("change", ROOT)]
            for side, tree in order if i % 2 == 0 else order[::-1]:
                result = _run(tree, seed, args.seconds)
                for workload, line in result.items():
                    runs.setdefault(workload, []).append(
                        {"side": side, "seed": seed, "result": line})
                print(f"pair {i + 1}/{len(args.seeds)} seed {seed} {side}: "
                      + ", ".join(f"{w} wall_s {line['metrics']['wall_s']['value']:.4g}"
                                  for w, line in result.items()),
                      file=sys.stderr, flush=True)

    doc = {
        "label": args.label,
        "what": args.what,
        "command": f"python3 perfbench/run.py --workload all --seed <seed> "
                   f"--seconds {args.seconds:g}",
        "protocol": (f"parent = git archive of {args.parent}, change = the working "
                     "tree; one pair per seed, run one after the other on the same "
                     "host, alternating which side runs first (even pair index: "
                     f"parent first). Seeds {args.seeds[0]}-{args.seeds[-1]}."),
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "numpy": np.__version__, "machine": platform.machine(),
                 "note": "BLAS/OpenMP threads pinned to 1 by perfbench/run.py"},
        "summary": summarize(runs),
        "runs": runs,
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
