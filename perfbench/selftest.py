"""Self-test of the benchmark's determinism.

Usage, from the root of the repository:

    python3 perfbench/selftest.py

For each workload: repeated set-ups with one seed give identical inputs; a
second seed gives different inputs with the same mix of sizes and answers;
and two traced runs with one seed give identical exact counts, per input
and per layer.  Exits 1 when any of these fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED_A, SEED_B = 11, 12
#: --seconds of each traced run; every run still makes at least one whole pass.
SECONDS = 2.0


def mix(items) -> Counter:
    """Sizes, answer and type family of each input, as a multiset."""
    import inputs

    return Counter(
        (len(it.states), len(it.events), it.expected, it.type_names in inputs.SWAP_FAMILY)
        for it in items
    )


def traced_counts(workload: str) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(SEED_A), "--seconds", str(SECONDS), "--trace", "1"]
    subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=600)
    path = HERE / "_work" / f"{workload}-seed{SEED_A}" / "result-trace1.json"
    detail = json.loads(path.read_text(encoding="utf-8"))
    return {"counts": detail["counts"], "layers": detail["layer_counts_per_pass"],
            "failed": detail["failed"]}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    ok = True

    def report(name: str, passed: bool) -> None:
        nonlocal ok
        ok = ok and passed
        print(f"{'PASS' if passed else 'FAIL'} {name}")

    for name in WORKLOADS:
        workload = WORKLOADS[name]()
        workdir = HERE / "_work" / f"selftest-{name}"
        a1 = workload.setup(SEED_A, workdir / "a1")
        a2 = workload.setup(SEED_A, workdir / "a2")
        b = workload.setup(SEED_B, workdir / "b")
        report(f"{name}: one seed, same inputs",
               [it.text for it in a1] == [it.text for it in a2])
        report(f"{name}: another seed, other inputs",
               [it.text for it in a1] != [it.text for it in b])
        report(f"{name}: another seed, same size and answer mix", mix(a1) == mix(b))
        first = traced_counts(name)
        second = traced_counts(name)
        report(f"{name}: two traced runs, no failed decision",
               first["failed"] == 0 and second["failed"] == 0)
        report(f"{name}: two traced runs, identical counts",
               (first["counts"], first["layers"]) == (second["counts"], second["layers"]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
