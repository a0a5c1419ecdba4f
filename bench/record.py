"""Record the sha256 of every hashed CLI output into expected.json.

    python3 bench/record.py

Run it once on the commit whose bytes the benchmark must keep.  It covers
every pi the seed can pick on single-pi, so the byte check holds for any
seed.  Each output must first pass the gate's own checks.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys

import gate
import workloads
from run import BENCH, WORK, Runner


def main() -> int:
    calls = []
    for k, q in workloads.SINGLE_PI:
        first, *rest = workloads.one_descent_perms(k)
        calls += workloads.single_pi_calls(k, q, first)
        calls += [workloads.single_pi_calls(k, q, pi)[-1] for pi in rest]
    calls.append(workloads.render_call(*workloads.RENDER))
    calls += [workloads.all_pi_call(k, q) for k, q in workloads.ALL_PI]

    workdir = WORK / "record"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    runner = Runner(workdir, {})
    hashes = {}
    for call in calls:
        _, code, crash = runner.cli(call)
        path = workdir / call.out
        digest = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
        verdict = gate.check(call, code, crash, workdir, {call.out: digest})
        if verdict.failed:
            print(f"{call.out}: {verdict.problems}", file=sys.stderr)
            return 1
        hashes[call.out] = digest
    shutil.rmtree(workdir)
    (BENCH / "expected.json").write_text(json.dumps({"sha256": hashes}, indent=1, sort_keys=True)
                                         + "\n")
    print(f"recorded {len(hashes)} outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
