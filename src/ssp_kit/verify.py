"""Self-check suites, reference fixtures, and test-corpus generators.

The fixtures here are the small worked examples used across the test suite;
the generators produce seeded random systems (general, and loop-free safe
for extensions) plus exhaustive small-system families, each system generated
once by an orderly walk over breadth-first-numbered tables.  ``run_suites``
drives named check groups for the CLI.
"""

from __future__ import annotations

import random
from itertools import permutations
from typing import Callable, NamedTuple, Sequence

from .classify import (
    ROW_SIZES,
    classify_type,
    enumerate_types,
    flip_type,
    row_census,
)
from .core import (
    Decision,
    Interaction,
    TransitionSystem,
    is_normalized,
    is_region,
    normalize_region,
    propagate_region,
    validate_ts,
)
from .engine import decide_ssp
from .oracle import brute_force_decide, embedding_certificate, fast_path_swap_core
from .reductions import (
    cm_oracle,
    example_formula,
    gen_nop_inp,
    gen_nop_inp_witness,
    unsat_formula_m4,
)

I = Interaction


# ---------------------------------------------------------------------------
# fixtures


def fixture_event_cycle() -> TransitionSystem:
    """Two states joined by the same event in both directions."""
    return validate_ts([("s0", "a", "s1"), ("s1", "a", "s0")], "s0")


def fixture_parallel_pair() -> TransitionSystem:
    """Two parallel events between two states."""
    return validate_ts([("r0", "b", "r1"), ("r0", "c", "r1")], "r0")


def fixture_chain() -> TransitionSystem:
    """A four-state path on three events."""
    return validate_ts(
        [("s0", "a", "s1"), ("s1", "b", "s2"), ("s2", "c", "s3")], "s0"
    )


def fixture_single_state() -> TransitionSystem:
    return validate_ts([], "s0")


def fixture_single_loop() -> TransitionSystem:
    return validate_ts([("s0", "a", "s0")], "s0")


# ---------------------------------------------------------------------------
# corpus generators


def random_ts(
    rng: random.Random,
    max_states: int = 6,
    max_events: int = 3,
) -> TransitionSystem:
    """Reachable deterministic system; may contain loops and cycles."""
    n = rng.randint(1, max_states)
    k = rng.randint(1, max_events) if n > 1 else rng.randint(0, max_events)
    states = [f"s{i}" for i in range(n)]
    events = [f"e{i}" for i in range(k)]
    edges: list[tuple[str, str, str]] = []
    taken: set[tuple[str, str]] = set()
    for i in range(1, n):
        while True:
            s = states[rng.randrange(i)]
            e = events[rng.randrange(k)]
            if (s, e) not in taken:
                break
        taken.add((s, e))
        edges.append((s, e, states[i]))
    for _ in range(rng.randint(0, n + 1)):
        if not events:
            break
        s = states[rng.randrange(n)]
        e = events[rng.randrange(k)]
        if (s, e) in taken:
            continue
        taken.add((s, e))
        edges.append((s, e, states[rng.randrange(n)]))
    return validate_ts(edges, states[0])


def random_type(rng: random.Random) -> frozenset[Interaction]:
    return enumerate_types()[rng.randrange(256)]


def random_loopfree_safe_ts(
    rng: random.Random,
    max_states: int = 6,
    max_events: int = 4,
) -> TransitionSystem:
    """Loop-free system whose extensions stay deterministic.

    Guarantees, per event: pairwise distinct sources, pairwise distinct
    targets, and no state both source and target.  Reversed edges then keep
    backward determinism and loops never collide with chain steps.
    """
    while True:
        k = rng.randint(1, max_events)
        n = 2 if k == 1 else rng.randint(2, max_states)
        states = [f"s{i}" for i in range(n)]
        events = [f"e{i}" for i in range(k)]
        edges: list[tuple[str, str, str]] = []
        srcs: dict[str, set[str]] = {e: set() for e in events}
        tgts: dict[str, set[str]] = {e: set() for e in events}
        taken: set[tuple[str, str]] = set()

        def admissible(s: str, e: str, t: str) -> bool:
            if (s, e) in taken:
                return False
            return not (
                s in tgts[e] or t in tgts[e] or t in srcs[e]
            )

        wedged = False
        for i in range(1, n):
            cands = [
                (states[p], e, states[i])
                for p in range(i)
                for e in events
                if admissible(states[p], e, states[i])
            ]
            if not cands:
                wedged = True
                break
            s, e, t = cands[rng.randrange(len(cands))]
            edges.append((s, e, t))
            taken.add((s, e))
            srcs[e].add(s)
            tgts[e].add(t)
        if wedged:
            continue
        for _ in range(rng.randint(0, n)):
            cands = [
                (states[a], e, states[b])
                for a in range(n)
                for b in range(n)
                if a != b
                for e in events
                if admissible(states[a], e, states[b])
            ]
            if not cands:
                break
            s, e, t = cands[rng.randrange(len(cands))]
            edges.append((s, e, t))
            taken.add((s, e))
            srcs[e].add(s)
            tgts[e].add(t)
        return validate_ts(edges, states[0])


def enumerate_small_ts(
    max_states: int,
    max_events: int,
    table_budget: int = 5000,
) -> list[TransitionSystem]:
    """All small systems up to state/event renaming, each once.

    Takes each (n, k) whose raw table count (n+1)^(n*k) stays within
    ``table_budget``.  Orderly generation (Read 1978; McKay 1998): only
    breadth-first-numbered tables are walked, so every one is reachable, and
    a table is kept iff it uses every event and no event permutation gives
    a smaller canonical key than the identity.  A key compares as its table
    does, so the kept table is the least raw table of its class, and the
    systems come out in the order of a walk over every raw table.  The walk
    recurses at most max_states*max_events + 1 deep.
    """
    out: list[TransitionSystem] = []
    for n in range(1, max_states + 1):
        for k in range(max_events + 1):
            if (n + 1) ** (n * k) > table_budget:
                continue
            perms = list(permutations(range(k)))
            for table in _bfs_tables(n, k):
                if any(all(table[s * k + e] == n for s in range(n)) for e in range(k)):
                    continue
                key = _canonical_key(table, n, k, perms[0])
                if all(key <= _canonical_key(table, n, k, perm) for perm in perms):
                    _, _, canon_edges = key
                    out.append(
                        validate_ts(
                            [(f"s{a}", f"e{b}", f"s{c}") for a, b, c in canon_edges],
                            "s0",
                        )
                    )
    return out


def _bfs_tables(n: int, k: int):
    """Transition tables over n states and k events, numbered breadth-first.

    ``table[s*k + e]`` is the target of event e at state s, n meaning
    undefined.  A cell names a state already reached, the next new state,
    or n, in that order, so the tables come out in lexicographic order.  A
    branch stops when a state's cells come up before it is reached, and a
    table is whole only once all n states are reached (with k = 0, only
    for n = 1).  The recursion is n*k + 1 deep.
    """
    table = [n] * (n * k)

    def fill(cell: int, reached: int):
        if cell == n * k and reached == n:
            yield tuple(table)
        elif cell < reached * k:
            for t in [*range(min(reached + 1, n)), n]:
                table[cell] = t
                yield from fill(cell + 1, max(reached, t + 1) if t < n else reached)

    return fill(0, 1)


def _canonical_key(
    table: tuple[int, ...],
    n: int,
    k: int,
    perm: tuple[int, ...],
) -> tuple:
    relabel = {0: 0}
    order = [0]
    cursor = 0
    while cursor < len(order):
        s = order[cursor]
        cursor += 1
        for e in perm:
            t = table[s * k + e]
            if t != n and t not in relabel:
                relabel[t] = len(order)
                order.append(t)
    edges = []
    for s in range(n):
        for pos, e in enumerate(perm):
            t = table[s * k + e]
            if t != n:
                edges.append((relabel[s], pos, relabel[t]))
    return (n, k, tuple(sorted(edges)))


# ---------------------------------------------------------------------------
# named check suites


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


def _check(results: list[CheckResult], name: str, ok: bool, detail: str = ""):
    results.append(CheckResult(name=name, ok=bool(ok), detail=detail))


def suite_interactions() -> list[CheckResult]:
    results: list[CheckResult] = []
    undefined = {
        (i, x)
        for i in Interaction
        for x in (0, 1)
        if i.apply(x) is None
    }
    _check(
        results,
        "interaction-table-domain",
        undefined
        == {(I.INP, 0), (I.OUT, 1), (I.USED, 0), (I.FREE, 1)},
        "exactly four undefined cells",
    )
    _check(
        results,
        "interaction-identity",
        I.NOP.apply(0) == 0 and I.NOP.apply(1) == 1,
    )
    return results


def suite_classification() -> list[CheckResult]:
    results: list[CheckResult] = []
    census = row_census()
    _check(results, "row-census", census == ROW_SIZES, f"{census}")
    _check(results, "type-count", sum(census.values()) == 256)
    flips_ok = all(
        classify_type(tau).complexity is classify_type(flip_type(tau)).complexity
        for tau in enumerate_types()
    )
    _check(results, "flip-preserves-complexity", flips_ok)
    return results


def suite_fixtures() -> list[CheckResult]:
    results: list[CheckResult] = []
    wide = frozenset({I.NOP, I.SET, I.SWAP, I.USED})
    narrow = frozenset({I.NOP, I.INP})
    cyc = fixture_event_cycle()
    r1 = propagate_region(cyc, 0, {"a": I.SWAP})
    _check(
        results,
        "cycle-swap-region",
        r1 is not None
        and is_region(cyc, wide, r1)
        and r1.solves(("s0", "s1")),
    )
    _check(
        results,
        "cycle-narrow-unseparable",
        decide_ssp(cyc, narrow).decision is Decision.LACKS_SSP,
    )
    par = fixture_parallel_pair()
    _check(
        results,
        "parallel-separable-both-ways",
        decide_ssp(par, wide).decision is Decision.HAS_SSP
        and decide_ssp(par, narrow).decision is Decision.HAS_SSP,
    )
    chain = fixture_chain()
    region = propagate_region(
        chain, 1, {"a": I.USED, "b": I.SWAP, "c": I.SET}
    )
    ok = region is not None and not is_normalized(chain, region)
    if ok:
        norm = normalize_region(chain, wide, region)
        ok = (
            is_normalized(chain, norm)
            and norm.support == region.support
            and norm.signature["a"] is I.NOP
        )
    _check(results, "chain-normalization", ok)
    return results


def suite_engine_oracle(seed: int = 20260822, trials: int = 150) -> list[CheckResult]:
    results: list[CheckResult] = []
    rng = random.Random(seed)
    mismatch = 0
    for _ in range(trials):
        ts = random_ts(rng)
        for _ in range(3):
            tau = random_type(rng)
            got = decide_ssp(ts, tau)
            want = brute_force_decide(ts, tau)
            if (
                got.decision is not want.decision
                or got.witness_atom != want.witness_atom
            ):
                mismatch += 1
    _check(
        results,
        "engine-matches-oracle",
        mismatch == 0,
        f"{trials * 3} instances, {mismatch} mismatches",
    )
    return results


def suite_reductions() -> list[CheckResult]:
    results: list[CheckResult] = []
    phi = example_formula()
    model = cm_oracle(phi)
    _check(results, "fixture-model", model == ("X0", "X4"))
    inst = gen_nop_inp(phi)
    _check(
        results,
        "nop-inp-sizes",
        len(inst.ts.states) == 45 and len(inst.ts.events) == 26,
    )
    witness = gen_nop_inp_witness(phi, model or ())
    _check(
        results,
        "nop-inp-witness-covers",
        embedding_certificate(inst.ts, witness).injective,
        f"{len(witness)} regions",
    )
    _check(results, "unsat-fixture", cm_oracle(unsat_formula_m4()) is None)
    return results


def suite_fast_path(seed: int = 4096, trials: int = 200) -> list[CheckResult]:
    results: list[CheckResult] = []
    rng = random.Random(seed)
    taus = [
        frozenset({I.SWAP}),
        frozenset({I.SWAP, I.INP}),
        frozenset({I.SWAP, I.OUT}),
        frozenset({I.SWAP, I.INP, I.OUT}),
    ]
    mismatch = 0
    for _ in range(trials):
        ts = random_ts(rng, max_states=5, max_events=2)
        for tau in taus:
            got = fast_path_swap_core(ts, tau)
            want = brute_force_decide(ts, tau)
            if (got.decision, got.witness_atom) != (want.decision, want.witness_atom):
                mismatch += 1
    _check(
        results,
        "fast-path-matches-oracle",
        mismatch == 0,
        f"{trials * 4} instances, {mismatch} mismatches",
    )
    return results


SUITES: dict[str, Callable[[], list[CheckResult]]] = {
    "interactions": suite_interactions,
    "classification": suite_classification,
    "fixtures": suite_fixtures,
    "engine": suite_engine_oracle,
    "reductions": suite_reductions,
    "fast-path": suite_fast_path,
}


def run_suites(names: Sequence[str] | None = None) -> list[CheckResult]:
    """Run the named suites, all by default; an unknown name runs none."""
    picked = list(names) if names else list(SUITES)
    for name in picked:
        if name not in SUITES:
            raise KeyError(f"unknown check suite {name!r}")
    return [result for name in picked for result in SUITES[name]()]
