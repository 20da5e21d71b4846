"""Seeded inputs and known answers for the benchmark.

Everything here is written out independently of the package under test:
the formula and system generators, the interaction table and the
exhaustive decider that supplies the known answer, for every type at once,
on small systems.  A change to ``ssp_kit.verify`` therefore cannot change what the
benchmark feeds the program, and a change to the package's own oracle
cannot change what the benchmark counts as correct.
"""

from __future__ import annotations

import random
from itertools import combinations

#: Interaction names in the package's canonical order; bit ``b`` of a type
#: mask is ``INTERACTIONS[b]``.
INTERACTIONS = ("nop", "inp", "out", "res", "set", "swap", "used", "free")

#: The interaction table: (value at 0, value at 1), None where undefined.
TABLE = {
    "nop": (0, 1),
    "inp": (None, 0),
    "out": (1, None),
    "res": (0, 0),
    "set": (1, 1),
    "swap": (1, 0),
    "used": (None, 1),
    "free": (0, None),
}

#: STEP_MASK[x][y]: mask of the interactions that carry support x to y.
STEP_MASK = [
    [
        sum(1 << b for b, name in enumerate(INTERACTIONS) if TABLE[name][x] == y)
        for y in (0, 1)
    ]
    for x in (0, 1)
]

SWAP_FAMILY = (
    frozenset({"swap"}),
    frozenset({"swap", "inp"}),
    frozenset({"swap", "out"}),
    frozenset({"swap", "inp", "out"}),
)

HAS, LACKS = "has-ssp", "lacks-ssp"


def type_names(mask: int) -> frozenset[str]:
    return frozenset(n for b, n in enumerate(INTERACTIONS) if mask >> b & 1)


def type_mask(names) -> int:
    return sum(1 << INTERACTIONS.index(n) for n in names)


def serialize(initial: str, edges) -> str:
    """System-file text: the initial state, then one sorted edge per line."""
    lines = [f"initial {initial}"]
    lines += [f"{s} {e} {t}" for s, e, t in sorted(edges)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# exact-cover formulas


def draw_formula(rng: random.Random, m: int) -> list[tuple[str, str, str]]:
    """m distinct clauses over m variables, each variable in three clauses.

    Variable names are drawn fresh per formula, so the seed renames them;
    the clause order is the shuffle's.
    """
    while True:
        names = [f"x{k}" for k in rng.sample(range(100, 1000), m)]
        slots = [v for v in names for _ in range(3)]
        rng.shuffle(slots)
        clauses = [tuple(slots[3 * i : 3 * i + 3]) for i in range(m)]
        if any(len(set(c)) != 3 for c in clauses):
            continue
        if len({frozenset(c) for c in clauses}) != m:
            continue
        return clauses


def exact_cover_exists(clauses) -> bool:
    """Is there a variable set meeting every clause exactly once?"""
    variables = sorted({v for c in clauses for v in c})
    for r in range(len(variables) + 1):
        for chosen in combinations(variables, r):
            picked = set(chosen)
            if all(sum(v in picked for v in c) == 1 for c in clauses):
                return True
    return False


def unsat_m4(rng: random.Random) -> list[tuple[str, str, str]]:
    """All four 3-subsets of four fresh variables, in a seeded clause order."""
    names = [f"x{k}" for k in rng.sample(range(100, 1000), 4)]
    clauses = [tuple(rng.sample(c, 3)) for c in combinations(names, 3)]
    rng.shuffle(clauses)
    return clauses


# ---------------------------------------------------------------------------
# small systems and their exhaustive decisions


def draw_small_system(rng: random.Random, n: int, k: int):
    """A reachable deterministic system with exactly n states and k events.

    A random spanning tree from s0 makes every state reachable; extra edges
    may add cycles and self-loops.  Redraws until every event labels an edge.
    """
    states = [f"s{i}" for i in range(n)]
    events = [f"e{i}" for i in range(k)]
    while True:
        taken: dict[tuple[str, str], str] = {}
        for i in range(1, n):
            free = [(p, e) for p in states[:i] for e in events if (p, e) not in taken]
            taken[rng.choice(free)] = states[i]
        for _ in range(rng.randint(0, n)):
            free = [(s, e) for s in states for e in events if (s, e) not in taken]
            if not free:
                break
            taken[rng.choice(free)] = rng.choice(states)
        edges = sorted((s, e, t) for (s, e), t in taken.items())
        if {e for _, e, _ in edges} == set(events):
            return "s0", edges


#: SOME_OF[f]: the types, as a 256-bit set indexed by type mask, that
#: share an interaction with mask f.
SOME_OF = [sum(1 << t for t in range(256) if t & f) for f in range(256)]


def decide_all_types(states, events, edges) -> list[tuple[str, tuple | None]]:
    """(decision, witness atom) for every type mask, by enumerating supports.

    A support admits a region of type t exactly when every event keeps an
    interaction of t defined along all of its edges.  An atom is separated
    under t when some support splitting it admits a t-region; the witness
    is the first atom in sorted order that is not.
    """
    states = sorted(states)
    index = {s: i for i, s in enumerate(states)}
    by_event = {e: [(index[s], index[t]) for s, ev, t in edges if ev == e] for e in events}
    n = len(states)
    atoms = [(i, j) for i in range(n) for j in range(i + 1, n)]
    split_under = [0] * len(atoms)  # per atom: the types separating it
    everything = (1 << 256) - 1
    for sup in range(1 << n):
        types = everything
        for pairs in by_event.values():
            feasible = 255
            for si, ti in pairs:
                feasible &= STEP_MASK[sup >> si & 1][sup >> ti & 1]
            types &= SOME_OF[feasible]
        if types:
            for k, (i, j) in enumerate(atoms):
                if (sup >> i ^ sup >> j) & 1:
                    split_under[k] |= types
    out = []
    for t in range(256):
        unsplit = (k for k, types in enumerate(split_under) if not types >> t & 1)
        k = next(unsplit, None)
        if k is None:
            out.append((HAS, None))
        else:
            i, j = atoms[k]
            out.append((LACKS, (states[i], states[j])))
    return out
