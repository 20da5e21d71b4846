"""The three workloads: their inputs, one decision, and its check.

Each workload builds its inputs from the seed in ``setup`` and writes them
with an answer manifest under its work directory.  One *pass* runs every
input once, in order; the timed phase repeats whole passes, so each run
sees the same mix of sizes and answers.  ``decide`` is one timed decision
and ``check`` turns its output into failure reasons and exact counts.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from ssp_kit import Interaction, classify, engine, formats, reductions

import checks
import inputs
from inputs import HAS, LACKS, serialize

HERE = Path(__file__).resolve().parent
LAUNCHER = HERE / "cli_launch.py"


class SetupError(Exception):
    """A generated input does not have the shape or answer it must have."""


@dataclass
class Item:
    """One input: a system, a type and the known answer."""

    name: str
    text: str
    initial: str
    edges: list
    type_names: frozenset
    expected: str
    witness: tuple | None = None
    path: Path | None = None

    def __post_init__(self):
        ends = {s for s, _, _ in self.edges} | {t for _, _, t in self.edges}
        self.states = sorted(ends | {self.initial})
        self.events = sorted({e for _, e, _ in self.edges})
        self.tau = frozenset(Interaction(n) for n in self.type_names)

    def problems(self, decision: str, witness, regions, check_witness: bool = True) -> list[str]:
        """Why an answer with these regions is wrong, if it is.

        Generated instances are too large for an exhaustive decision, so
        there ``check_witness`` is off and only the region checks bound the
        witness atom.
        """
        out = []
        if decision != self.expected or (check_witness and witness != self.witness):
            out.append(f"answer {decision} {witness}, expected {self.expected} {self.witness}")
        problem = checks.regions_problem(regions, self.states, self.events, self.edges,
                                         self.type_names, decision, witness)
        if problem:
            out.append(problem)
        return out


def _write_inputs(workdir: Path, items: list[Item], manifest: list[dict]) -> None:
    """Write the corpus files and the manifest; read each file back with the parser."""
    workdir.mkdir(parents=True, exist_ok=True)
    for item in items:
        item.path = workdir / f"{item.name}.ts"
        item.path.write_text(item.text, encoding="utf-8")
        ts = formats.parse_ts_text(item.path.read_text(encoding="utf-8"))
        if ts.initial != item.initial or set(ts.edges) != set(map(tuple, item.edges)):
            raise SetupError(f"{item.path.name} does not parse back to the generated system")
    (workdir / "answers.json").write_text(
        json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )


def _formula_pools(rng: random.Random, sizes, draws: int) -> dict[int, list]:
    """``draws`` formulas per clause count with their cm_oracle answers.

    Drawing a fixed number, whatever answers come up, keeps the set-up work
    the same from seed to seed.
    """
    pools = {}
    for m in sizes:
        pool = []
        for _ in range(draws):
            clauses = inputs.draw_formula(rng, m)
            formula = reductions.cm_validate(clauses)
            sat = reductions.cm_oracle(formula) is not None
            if inputs.exact_cover_exists(clauses) != sat:
                raise SetupError(f"cm_oracle and the subset search disagree on {clauses}")
            pool.append((clauses, formula, sat))
        pools[m] = pool
    return pools


class Workload:
    in_process = True
    #: For a child process: run it through cli_launch.py in this mode
    #: ("spans" or "speed"), writing to this file; None runs the plain CLI.
    launch: tuple[str, Path] | None = None


class CliNopInp(Workload):
    """``ssp-kit check-ssp --type nop,inp --json FILE``, one process per file."""

    name = "cli-nop-inp"
    in_process = False
    #: (clauses, satisfiable, count).  Exact-cover formulas with every
    #: variable in three clauses are satisfiable only when 3 divides m.
    #: Several formulas per size keep the median and the tail latency from
    #: resting on one formula.
    MIX = ((4, False, 2), (5, False, 2), (6, True, 3), (6, False, 2), (7, False, 3))
    #: Formulas drawn per clause count; about one in nine with m = 6 is
    #: unsatisfiable, so 64 draws hold the two needed with odds over 99%.
    DRAWS = 64

    def __init__(self):
        root = HERE.parent
        env = dict(os.environ)
        env.pop("SSP_KIT_THREADS", None)  # default flags only
        old = env.get("PYTHONPATH")
        env["PYTHONPATH"] = str(root / "src") + (os.pathsep + old if old else "")
        self.env = env
        self.root = root

    def setup(self, seed: int, workdir: Path) -> list[Item]:
        rng = random.Random(f"{self.name}/{seed}")
        items, manifest = [], []
        while True:
            pools = _formula_pools(rng, sorted({m for m, _, _ in self.MIX}), self.DRAWS)
            picks = []
            for m, sat, count in self.MIX:
                picks += [(m, sat, c[0], c[1]) for c in pools[m] if c[2] == sat][:count]
            if len(picks) == sum(count for _, _, count in self.MIX):
                break
        for m, sat, clauses, formula in picks:
            ts = reductions.gen_nop_inp(formula).ts
            if len(ts.states) != 7 * m + 3:
                raise SetupError(f"nop-inp instance of m={m} has {len(ts.states)} states")
            name = f"nop-inp-{len(items):02d}-m{m}"
            expected = HAS if sat else LACKS
            items.append(Item(name, serialize(ts.initial, ts.edges), ts.initial,
                              list(ts.edges), frozenset({"nop", "inp"}), expected))
            manifest.append({"file": f"{name}.ts", "clauses": clauses, "expected": expected,
                             "states": len(ts.states), "edges": len(ts.edges)})
        _write_inputs(workdir, items, manifest)
        return items

    def decide(self, item: Item):
        args = ["check-ssp", "--type", "nop,inp", "--json", str(item.path)]
        if self.launch is None:
            cmd = [sys.executable, "-m", "ssp_kit.cli", *args]
        else:
            mode, path = self.launch
            cmd = [sys.executable, str(LAUNCHER), mode, str(path), *args]
        try:
            return subprocess.run(cmd, capture_output=True, text=True, env=self.env,
                                  cwd=self.root, timeout=120)
        except subprocess.TimeoutExpired as exc:
            return exc

    def check(self, item: Item, proc):
        if isinstance(proc, subprocess.TimeoutExpired):
            return ["timed out"], {}
        if "Traceback" in proc.stderr:
            return [f"traceback: {proc.stderr.strip().splitlines()[-1]}"], {}
        try:
            payload = json.loads(proc.stdout)
            decision = payload["decision"]
            witness = tuple(payload["witness_atom"]) if payload["witness_atom"] else None
            regions = [(r["support"], r["signature"]) for r in payload["regions"]]
            stats = payload["stats"]
        except (ValueError, KeyError, TypeError) as exc:
            return [f"exit {proc.returncode}, unreadable JSON: {exc!r}"], {}
        counts = {"decision": decision, "witness": witness, "atoms_checked": stats["atoms_checked"],
                  "nodes": stats["nodes_expanded"], "regions": len(regions)}
        problems = item.problems(decision, witness, regions, check_witness=False)
        if checks.EXIT_CODES.get(decision) != proc.returncode:
            problems.append(f"exit {proc.returncode} for decision {decision}")
        return problems, counts


class SweepNopFree(Workload):
    """One in-process ``decide_ssp`` on the nop-free instance of an unsat m=4 formula."""

    name = "sweep-nop-free-m4"

    def setup(self, seed: int, workdir: Path) -> list[Item]:
        rng = random.Random(f"{self.name}/{seed}")
        clauses = inputs.unsat_m4(rng)
        formula = reductions.cm_validate(clauses)
        if reductions.cm_oracle(formula) is not None or inputs.exact_cover_exists(clauses):
            raise SetupError(f"{clauses} should have no exact cover")
        ts = reductions.gen_nop_free(formula).ts
        if (len(ts.states), len(ts.edges)) != (753, 1504):
            raise SetupError(f"nop-free instance: {len(ts.states)} states, {len(ts.edges)} edges")
        names = frozenset({"swap", "free"})
        item = Item("nop-free-m4", serialize(ts.initial, ts.edges), ts.initial, list(ts.edges),
                    names, LACKS)
        _write_inputs(workdir, [item], [{"file": f"{item.name}.ts", "clauses": clauses,
                                          "expected": LACKS, "type": sorted(names)}])
        return [item]

    def decide(self, item: Item):
        ts = formats.parse_ts_text(item.text)
        return engine.decide_ssp(ts, item.tau)

    def check(self, item: Item, report):
        decision = report.decision.value
        counts = {"decision": decision, "witness": report.witness_atom,
                  "atoms_checked": report.stats.atoms_checked,
                  "nodes": report.stats.nodes_expanded, "regions": len(report.regions)}
        problems = item.problems(decision, report.witness_atom, checks.report_regions(report),
                                 check_witness=False)
        return problems, counts


class CrosscheckSmall(Workload):
    """Engine, oracle, classifier and swap fast path on small seeded systems."""

    name = "crosscheck-small"
    #: states -> (has-ssp, lacks-ssp) among the 36 types drawn from outside
    #: the swap family for that size; each of the four swap-family types
    #: comes three times on top.  Seven sizes put the median latency inside
    #: the middle size rather than between two; 48 inputs per size keep
    #: the mean and tail latency from hanging on a few draws.
    QUOTA = {2: (18, 18), 3: (12, 24), 4: (12, 24), 5: (12, 24), 6: (9, 27), 7: (9, 27), 8: (9, 27)}
    GENERAL = [t for t in range(256) if inputs.type_names(t) not in inputs.SWAP_FAMILY]

    def setup(self, seed: int, workdir: Path) -> list[Item]:
        rng = random.Random(f"{self.name}/{seed}")
        items = []
        for n, (has, lacks) in self.QUOTA.items():
            swaps = [inputs.type_mask(t) for t in 3 * inputs.SWAP_FAMILY]
            # above two states every swap-family type lacks the property;
            # with two, half the swap-family inputs are drawn to have it
            slots = [(HAS, None)] * has + [(LACKS, None)] * lacks + [
                (HAS if n == 2 and i % 2 else LACKS, t) for i, t in enumerate(swaps)
            ]
            for j, (answer, mask) in enumerate(slots):
                k = 2 + j % 2  # one event cannot separate a chain of four
                for _ in range(1000):
                    initial, edges = inputs.draw_small_system(rng, n, k)
                    states = {s for s, _, _ in edges} | {t for _, _, t in edges}
                    events = {e for _, e, _ in edges}
                    answers = inputs.decide_all_types(states, events, edges)
                    if mask is not None:
                        if answers[mask][0] == answer:
                            break
                        continue
                    fitting = [t for t in self.GENERAL if answers[t][0] == answer]
                    if fitting:
                        mask = rng.choice(fitting)
                        break
                else:
                    raise SetupError(f"no {n}-state system has a type answering {answer}")
                names = inputs.type_names(mask)
                decision, witness = answers[mask]
                items.append(Item(f"small-n{n}-{j:03d}", serialize(initial, edges), initial, edges,
                                  names, decision, witness))
        rng.shuffle(items)
        manifest = [{"file": f"{it.name}.ts", "type": sorted(it.type_names),
                     "expected": it.expected, "witness": it.witness} for it in items]
        _write_inputs(workdir, items, manifest)
        return items

    def decide(self, item: Item):
        ts = formats.parse_ts_text(item.text)
        cls = classify.classify_type(item.tau)
        report = engine.decide_ssp(ts, item.tau)
        oracle = engine.brute_force_decide(ts, item.tau)
        fast = None
        if item.type_names in inputs.SWAP_FAMILY:
            fast = engine.fast_path_swap_core(ts, item.tau)
        return cls, report, oracle, fast

    def check(self, item: Item, out):
        cls, report, oracle, fast = out
        counts = {"decision": report.decision.value, "witness": report.witness_atom,
                  "atoms_checked": report.stats.atoms_checked,
                  "nodes": report.stats.nodes_expanded, "regions": len(report.regions),
                  "oracle_supports": oracle.stats.nodes_expanded,
                  "row": cls.row, "complexity": cls.complexity.value}
        problems = []
        for who, got in (("engine", report), ("oracle", oracle)):
            problems += [f"{who}: {p}" for p in item.problems(
                got.decision.value, got.witness_atom, checks.report_regions(got))]
        if fast is not None and fast.decision.value != item.expected:
            problems.append(f"fast path says {fast.decision.value}, expected {item.expected}")
        if not 1 <= cls.row <= 10:
            problems.append(f"classify_type gave row {cls.row}")
        return problems, counts


WORKLOADS = {w.name: w for w in (CliNopInp, SweepNopFree, CrosscheckSmall)}
