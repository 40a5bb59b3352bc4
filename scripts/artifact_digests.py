"""SHA-256 of the containers one offline benchmark pass writes, per seed.

For each workload seed this runs perfbench's `offline_pass` on that
workload's config (`make_config` with the workload's overrides): build the
training and validation databases, save both, load both, `fit_prom`, save
the PROM.  It prints one line per container, so the output of two commits
can be compared with `diff` to check that a change leaves every artifact
byte-identical.

    PYTHONPATH=src python scripts/artifact_digests.py --workload offline-dual-ed --seeds 0 1 2

The containers are written to a temporary directory (`TMPDIR` applies).
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

import yaml

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import speed  # noqa: E402
from workloads import CONFIG, WORKLOADS, make_config, offline_pass  # noqa: E402

OFFLINE = [name for name, spec in WORKLOADS.items() if not spec["online"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=OFFLINE, required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    args = parser.parse_args(argv)
    raw = yaml.safe_load(CONFIG.read_text(encoding="utf-8"))
    overrides = WORKLOADS[args.workload]["overrides"]

    for seed in args.seeds:
        with tempfile.TemporaryDirectory(prefix="promforge-digests-") as tmp:
            done = offline_pass(make_config(raw, overrides, seed), Path(tmp), speed.Meter())
        for name, digest in done.digests.items():
            print(f"{args.workload} {seed} {name} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
