#!/usr/bin/env python3
"""Regenerate reference_digests.json from the current program.

For every workload and seed it runs ``run.py --ops N --emit FILE`` in
a fresh process — the same in-process history a timed run has — and
stores the op digests under ``[workload][seed]``. Run it from the
repository root only after a change that is meant to alter program
outputs, and say so in the change description::

    python3 perfbench/record_digests.py --seeds 0-20 --jobs 2
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(os.path.dirname(HERE), ".perfbench")
sys.path.insert(0, HERE)

from checks import REFERENCE_DIGITS, REFERENCE_FILE, load_references  # noqa: E402

#: Ops recorded per seed: more than a 20 s run completes today, with
#: room for a faster program.
REFERENCE_OPS = {"bulk": 140, "campaign": 30, "replay": 200, "service": 50}


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record(workload: str, seed: int, n_ops: int):
    os.makedirs(WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        emit = os.path.join(tmp, "digests.json")
        subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                        "--workload", workload, "--seed", str(seed),
                        "--ops", str(n_ops), "--emit", emit],
                       stdout=subprocess.DEVNULL, check=True)
        with open(emit, "r", encoding="utf-8") as handle:
            digests = json.load(handle)["digests"]
    if None in digests:
        raise RuntimeError(f"{workload} seed {seed}: op {digests.index(None)} failed")
    return workload, seed, [d[:REFERENCE_DIGITS] for d in digests]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-20")
    parser.add_argument("--workloads", default=",".join(REFERENCE_OPS))
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)
    table = load_references()
    tasks = [(w, s, REFERENCE_OPS[w]) for w in args.workloads.split(",")
             for s in parse_seeds(args.seeds)]
    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        for workload, seed, digests in pool.map(lambda t: record(*t), tasks):
            table.setdefault(workload, {})[str(seed)] = digests
            print(f"{workload} seed {seed}: {len(digests)} ops", flush=True)
    with open(REFERENCE_FILE, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=0, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
