"""Formula-to-system generators, their witness regions, and extensions.

Input formulas are exact-cover style: negation-free clauses of three
distinct variables, every variable occurring in exactly three clauses, and
as many variables as clauses.  ``gen_nop_inp`` emits an instance whose
separation property under {nop, inp} tracks satisfiability; ``gen_nop_free``
does the same under {swap, free} without any identity interaction, using
bi-directed gadgets.  Both come with explicit witness-region families for
satisfiable inputs.  ``extend`` grows a loop-free system with backward
edges and loops so that separation transfers to further types.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Iterable, Sequence

from .core import (
    InternalCheckFailed,
    Interaction,
    Region,
    SspKitError,
    TransitionSystem,
    is_region,
    propagate_region,
    validate_ts,
)

I = Interaction

MAX_CLAUSES = 24

NOP_INP = frozenset({I.NOP, I.INP})
SWAP_FREE = frozenset({I.SWAP, I.FREE})


# ---------------------------------------------------------------------------
# formulas


class FormulaError(SspKitError):
    pass


class MalformedClause(FormulaError):
    pass


class DuplicateClause(FormulaError):
    pass


class OccurrenceNotThree(FormulaError):
    def __init__(self, variable: str, count: int):
        super().__init__(f"variable {variable!r} occurs {count} times, not 3")
        self.variable = variable
        self.count = count


class VariableCountMismatch(FormulaError):
    pass


class SizeCapExceeded(FormulaError):
    pass


class ModelNotOneInThree(FormulaError):
    pass


class GadgetNameClash(FormulaError):
    pass


#: Formula variable names must leave the apostrophe free: primed copies of
#: a variable x are spelled x + "'" and must stay fresh.
_VAR_RE = re.compile(r"[A-Za-z0-9_.-]+\Z")


@dataclass(frozen=True)
class CmFormula:
    """Clauses of three distinct variables; every variable in exactly three."""

    variables: tuple[str, ...]
    clauses: tuple[tuple[str, str, str], ...]

    @property
    def m(self) -> int:
        return len(self.clauses)


def cm_validate(
    clauses: Sequence[Sequence[str]],
    variables: Iterable[str] | None = None,
) -> CmFormula:
    """Check the shape constraints and build a :class:`CmFormula`.

    Also enforces the generator size cap of ``MAX_CLAUSES`` clauses.
    """
    counts: dict[str, int] = {}
    order: list[str] = []
    seen_sets: set[frozenset[str]] = set()
    built: list[tuple[str, str, str]] = []
    for raw in clauses:
        names = tuple(raw)
        if len(names) != 3 or len(set(names)) != 3:
            raise MalformedClause(
                f"clause must hold three distinct variables: {list(raw)!r}"
            )
        for name in names:
            if not isinstance(name, str) or not _VAR_RE.match(name):
                raise MalformedClause(f"bad variable name: {name!r}")
            if name not in counts:
                counts[name] = 0
                order.append(name)
            counts[name] += 1
        key = frozenset(names)
        if key in seen_sets:
            raise DuplicateClause(f"clause repeats variable set {sorted(key)!r}")
        seen_sets.add(key)
        built.append(names)  # type: ignore[arg-type]
    for name in order:
        if counts[name] != 3:
            raise OccurrenceNotThree(name, counts[name])
    if len(order) != len(built):
        raise VariableCountMismatch(
            f"{len(order)} variables against {len(built)} clauses"
        )
    if variables is not None:
        declared = list(variables)
        if sorted(declared) != sorted(order):
            raise VariableCountMismatch(
                "declared variable set does not match the clauses"
            )
        order = declared
    if len(built) > MAX_CLAUSES:
        raise SizeCapExceeded(f"{len(built)} clauses exceed the cap of {MAX_CLAUSES}")
    return CmFormula(variables=tuple(order), clauses=tuple(built))


def check_one_in_three(formula: CmFormula, model: Iterable[str]) -> frozenset[str]:
    """Verify that ``model`` hits every clause exactly once; returns it frozen."""
    chosen = frozenset(model)
    unknown = chosen - set(formula.variables)
    if unknown:
        raise ModelNotOneInThree(f"model uses unknown variables {sorted(unknown)!r}")
    for clause in formula.clauses:
        hits = sum(1 for v in clause if v in chosen)
        if hits != 1:
            raise ModelNotOneInThree(
                f"clause {list(clause)!r} meets the model {hits} times"
            )
    return chosen


def cm_oracle(formula: CmFormula) -> tuple[str, ...] | None:
    """Least exact-cover model in variable order, or None when none exists."""
    index = {v: k for k, v in enumerate(formula.variables)}
    clauses = formula.clauses
    best: tuple[int, ...] | None = None
    assign: dict[str, bool] = {}

    def dfs(ci: int) -> None:
        nonlocal best
        if ci == len(clauses):
            key = tuple(sorted(index[v] for v, val in assign.items() if val))
            if best is None or key < best:
                best = key
            return
        for pick in clauses[ci]:
            fresh: dict[str, bool] = {}
            ok = True
            for v in clauses[ci]:
                want = v == pick
                if v in assign:
                    if assign[v] != want:
                        ok = False
                        break
                else:
                    fresh[v] = want
            if ok:
                assign.update(fresh)
                dfs(ci + 1)
                for v in fresh:
                    del assign[v]

    dfs(0)
    if best is None:
        return None
    return tuple(formula.variables[k] for k in best)


def prime_formula(formula: CmFormula) -> CmFormula:
    """Same shape over primed variable names (x -> x')."""
    return CmFormula(
        variables=tuple(v + "'" for v in formula.variables),
        clauses=tuple(
            (a + "'", b + "'", c + "'") for a, b, c in formula.clauses
        ),
    )


def example_formula() -> CmFormula:
    """A satisfiable six-clause fixture; its least model is (X0, X4)."""
    return cm_validate(
        [
            ("X0", "X1", "X2"),
            ("X0", "X2", "X3"),
            ("X0", "X1", "X3"),
            ("X2", "X4", "X5"),
            ("X1", "X4", "X5"),
            ("X3", "X4", "X5"),
        ]
    )


def unsat_formula_m4() -> CmFormula:
    """The four-clause fixture with no exact-cover model.

    All four 3-subsets of four variables: a model would need a variable set
    hitting each subset once, forcing both one and two picks among any four
    elements; moreover the clause count of a coverable formula is divisible
    by three.
    """
    return cm_validate(
        [tuple(c) for c in combinations(("X0", "X1", "X2", "X3"), 3)]
    )


# ---------------------------------------------------------------------------
# generator under {nop, inp}


@dataclass(frozen=True)
class ReductionInstance:
    ts: TransitionSystem
    alpha: tuple[str, str]
    formula: CmFormula


def _check_fresh_variables(formula: CmFormula, reserved: set[str]) -> None:
    clash = set(formula.variables) & reserved
    if clash:
        raise GadgetNameClash(
            f"variable names collide with generated events: {sorted(clash)!r}"
        )


def gen_nop_inp(formula: CmFormula) -> ReductionInstance:
    """Instance whose {nop, inp}-separation matches formula coverability.

    A spine counts clauses and ends in the designated pair; every clause
    contributes a path spelling its three variables plus a guarded escape,
    so that a region separating the designated pair forces exactly one
    consumed variable per clause.
    """
    m = formula.m
    reserved = {"k", "v"}
    for i in range(m):
        reserved.update((f"w_{i}", f"u_{i}", f"y_{i}"))
    _check_fresh_variables(formula, reserved)

    edges: list[tuple[str, str, str]] = []
    spine = [f"t_{i}_0" for i in range(m + 2)]
    for i in range(m):
        edges.append((spine[i], f"w_{i}", spine[i + 1]))
    edges.append((spine[m], "k", spine[m + 1]))
    edges.append((spine[m + 1], "v", "TOP"))
    for i, clause in enumerate(formula.clauses):
        path = [spine[i]] + [f"t_{i}_{j}" for j in (1, 2, 3)]
        for j, var in enumerate(clause):
            edges.append((path[j], var, path[j + 1]))
        edges.append((path[3], f"u_{i}", "TOP"))
        edges.append((spine[0], f"y_{i}", f"g_{i}_0"))
        edges.append((f"g_{i}_0", f"u_{i}", f"g_{i}_1"))
        edges.append((f"g_{i}_1", "k", f"g_{i}_2"))
    ts = validate_ts(edges, spine[0])
    return ReductionInstance(ts=ts, alpha=(spine[m], spine[m + 1]), formula=formula)


#: Per generator type, the form of its witness regions: the initial
#: support, the interaction of the picked events and that of the others.
_WITNESS_FORM = {NOP_INP: (1, I.INP, I.NOP), SWAP_FREE: (0, I.SWAP, I.FREE)}


def _witness_region(
    ts: TransitionSystem, tau: frozenset[Interaction], picked: Iterable[str]
) -> Region:
    """The region a witness signature of type ``tau`` propagates to."""
    init, on, off = _WITNESS_FORM[tau]
    picked = set(picked)
    signature = {e: (on if e in picked else off) for e in ts.events}
    region = propagate_region(ts, init, signature)
    if region is None or not is_region(ts, tau, region):
        raise InternalCheckFailed("witness signature does not yield a region")
    return region


def gen_nop_inp_witness(
    formula: CmFormula,
    model: Iterable[str],
) -> list[Region]:
    """Region family separating every pair of the generated instance.

    Each region takes full initial support and consumes a chosen event set;
    together they give pairwise distinct membership vectors whenever
    ``model`` hits every clause exactly once.
    """
    chosen = check_one_in_three(formula, model)
    inst = gen_nop_inp(formula)
    ts = inst.ts
    m = formula.m
    ys = [f"y_{i}" for i in range(m)]
    us = [f"u_{i}" for i in range(m)]
    ws = [f"w_{i}" for i in range(m)]
    regions = [_witness_region(ts, NOP_INP, ys)]
    for i in range(m):
        regions.append(_witness_region(ts, NOP_INP, [ws[i]] + us[: i + 1] + ys[i + 1:]))
    regions.append(_witness_region(ts, NOP_INP, ["v"] + us))
    regions.append(_witness_region(ts, NOP_INP, ["k"] + sorted(chosen)))
    for i in range(m - 1):
        regions.append(_witness_region(ts, NOP_INP, ys[i + 1:]))
    clause_sets = [set(c) for c in formula.clauses]
    for var in formula.variables:
        away = [us[j] for j, cl in enumerate(clause_sets) if var not in cl]
        regions.append(_witness_region(ts, NOP_INP, [var, "v"] + away))
    return regions


# ---------------------------------------------------------------------------
# generator under {swap, free}


def _nop_free_reserved(m: int) -> set[str]:
    names = {"k0", "k1"}
    for j in range(7 * m):
        names.update((f"v_{j}", f"w_{j}", f"vp_{j}", f"wp_{j}"))
    for j in range(14 * m):
        names.update((f"OTIMES_{j}", f"ODOT_{j}", f"ODOTp_{j}"))
    for j in range(2 * m):
        names.update((f"OPLUS_{j}", f"OMINUS_{j}", f"OMINUSp_{j}"))
    return names


def _prime(name: str) -> str:
    return name + "'"


def _pair_chain(
    pairs: list[tuple[str, str, str]],
    states: Sequence[str],
    events: Sequence[str],
) -> None:
    for k, e in enumerate(events):
        pairs.append((states[k], e, states[k + 1]))


def _gadget_states(kind: str, j: int) -> list[str]:
    return [f"{kind}_{j}_{p}" for p in range(5)]


def _t0_states(i: int, primed: bool) -> list[str]:
    pre = "tp" if primed else "t"
    return [f"{pre}_{i}_0_{p}" for p in range(12)]


def _t1_states(i: int, primed: bool) -> list[str]:
    pre = "tp" if primed else "t"
    return [f"{pre}_{i}_1_{p}" for p in range(4)]


def _vw(j: int, primed: bool) -> tuple[str, str]:
    if primed:
        return f"vp_{j}", f"wp_{j}"
    return f"v_{j}", f"w_{j}"


def _t0_events(clause: Sequence[str], i: int, primed: bool) -> list[str]:
    bracket = "k1" if primed else "k0"
    var = (lambda x: _prime(x)) if primed else (lambda x: x)
    v = [_vw(7 * i + q, primed)[0] for q in range(6)]
    return [
        bracket,
        v[0],
        v[1],
        var(clause[0]),
        v[2],
        var(clause[1]),
        v[3],
        var(clause[2]),
        v[4],
        v[5],
        bracket,
    ]


def _t1_events(clause: Sequence[str], i: int, primed: bool) -> list[str]:
    var = (lambda x: _prime(x)) if primed else (lambda x: x)
    v6 = _vw(7 * i + 6, primed)[0]
    return [var(clause[0]), v6, var(clause[2])]


def nop_free_expected_sizes(m: int) -> tuple[int, int, int]:
    """(states, events, directed edges) from the gadget inventory.

    Spine: 14m outer and 2m inner stations plus the root.  Four five-state
    link gadgets per index below 7m; per clause two twelve-state and two
    four-state spellers.  Events: paired v/w per index and side, the two
    brackets, variables and their primes, and one connector per station
    edge.  Every undirected pair contributes two directed edges.
    """
    states = (14 * m + 2 * m + 1) + 4 * 5 * (7 * m) + 2 * m * (12 + 4)
    events = (
        4 * (7 * m)  # v, w, primed v, primed w
        + 2  # brackets
        + 2 * m  # variables and primes
        + 14 * m  # outer spine steps
        + 2 * m  # inner spine steps
        + 2 * 14 * m  # outer attachments, both sides
        + 2 * 2 * m  # inner attachments, both sides
    )
    pairs = (
        4 * 4 * (7 * m)  # link gadget chains
        + 2 * m * (11 + 3)  # speller chains
        + 14 * m
        + 2 * m
        + 2 * 14 * m
        + 2 * 2 * m
    )
    return states, events, 2 * pairs


def gen_nop_free(formula: CmFormula) -> ReductionInstance:
    """Bi-directed instance whose {swap, free}-separation matches coverability.

    No identity interaction exists here, so every event must either flip or
    zero-test each edge it labels.  Paired link gadgets force the two
    bracket events apart on the designated pair; clause spellers then admit
    a region exactly when one variable per clause escapes the flip role.
    """
    m = formula.m
    _check_fresh_variables(formula, _nop_free_reserved(m))
    pairs: list[tuple[str, str, str]] = []

    for j in range(7 * m):
        v, w = _vw(j, False)
        vp, wp = _vw(j, True)
        _pair_chain(pairs, _gadget_states("g", j), [v, w, "k0", "k1"])
        _pair_chain(pairs, _gadget_states("f", j), [v, w, "k1", "k0"])
        _pair_chain(pairs, _gadget_states("gp", j), [vp, wp, "k1", "k0"])
        _pair_chain(pairs, _gadget_states("fp", j), [vp, wp, "k0", "k1"])

    for i, clause in enumerate(formula.clauses):
        _pair_chain(pairs, _t0_states(i, False), _t0_events(clause, i, False))
        _pair_chain(pairs, _t1_states(i, False), _t1_events(clause, i, False))
        _pair_chain(pairs, _t0_states(i, True), _t0_events(clause, i, True))
        _pair_chain(pairs, _t1_states(i, True), _t1_events(clause, i, True))

    tops = [f"TOP_{j}" for j in range(14 * m)]
    bots = [f"BOT_{j}" for j in range(2 * m)]
    prev = "iota"
    for j, top in enumerate(tops):
        pairs.append((prev, f"OTIMES_{j}", top))
        prev = top
    prev = "iota"
    for j, bot in enumerate(bots):
        pairs.append((prev, f"OPLUS_{j}", bot))
        prev = bot
    for j, top in enumerate(tops):
        kind = "g" if j % 2 == 0 else "f"
        start = _gadget_states(kind, j // 2)[0]
        pairs.append((top, f"ODOT_{j}", start))
        startp = _gadget_states(kind + "p", j // 2)[0]
        pairs.append((top, f"ODOTp_{j}", startp))
    for j, bot in enumerate(bots):
        i = j // 2
        if j % 2 == 0:
            pairs.append((bot, f"OMINUS_{j}", _t0_states(i, False)[0]))
            pairs.append((bot, f"OMINUSp_{j}", _t0_states(i, True)[0]))
        else:
            pairs.append((bot, f"OMINUS_{j}", _t1_states(i, False)[0]))
            pairs.append((bot, f"OMINUSp_{j}", _t1_states(i, True)[0]))

    edges = [(a, e, b) for a, e, b in pairs]
    edges += [(b, e, a) for a, e, b in pairs]
    ts = validate_ts(edges, "iota")
    return ReductionInstance(ts=ts, alpha=("g_0_2", "g_0_4"), formula=formula)


def _attach_connectors(m: int) -> list[str]:
    out = [f"ODOT_{j}" for j in range(14 * m)]
    out += [f"ODOTp_{j}" for j in range(14 * m)]
    out += [f"OMINUS_{j}" for j in range(2 * m)]
    out += [f"OMINUSp_{j}" for j in range(2 * m)]
    return out


def _spine_events(m: int) -> list[str]:
    return [f"OTIMES_{j}" for j in range(14 * m)] + [
        f"OPLUS_{j}" for j in range(2 * m)
    ]


def _occurrence_records(
    formula: CmFormula,
) -> dict[str, list[tuple[int, str, int]]]:
    """variable -> [(clause index, speller kind, clause position), ...]."""
    records: dict[str, list[tuple[int, str, int]]] = {
        v: [] for v in formula.variables
    }
    for i, clause in enumerate(formula.clauses):
        for p, var in enumerate(clause):
            records[var].append((i, "T0", p))
            if p in (0, 2):
                records[var].append((i, "T1", p))
    return records


def _selected_v_index(record: tuple[int, str, int]) -> int:
    i, kind, p = record
    if kind == "T0":
        return 7 * i + 1 + p
    return 7 * i + 6


def _pulse_swapset(
    formula: CmFormula,
    i: int,
    kind: str,
    pos: int,
    primed: bool,
) -> set[str]:
    clause = formula.clauses[i]
    if kind == "T0":
        events = _t0_events(clause, i, primed)
        var_pos_of_index = {3: 0, 5: 1, 7: 2}
    else:
        events = _t1_events(clause, i, primed)
        var_pos_of_index = {0: 0, 2: 2}
    base_indices = (pos - 1, pos)
    chosen: set[str] = set()
    records = _occurrence_records(formula)
    strip = (lambda x: x[:-1]) if primed else (lambda x: x)
    for idx in base_indices:
        name = events[idx]
        if idx in var_pos_of_index:
            var = strip(name)
            chosen.add(name)
            home = (i, kind, var_pos_of_index[idx])
            for record in records[var]:
                if record == home:
                    continue
                v, w = _vw(_selected_v_index(record), primed)
                chosen.update((v, w))
        else:
            # a v event; its partnered w keeps the link gadgets consistent
            j = int(name.rsplit("_", 1)[1])
            v, w = _vw(j, primed)
            chosen.update((v, w))
    return chosen


def gen_nop_free_alpha_region(
    formula: CmFormula,
    model: Iterable[str],
) -> Region:
    """The {swap, free}-region separating the designated pair.

    The second bracket flips, the first zero-tests; all pairing events flip;
    within each clause exactly the model variable keeps the zero-test role,
    which is consistent exactly when the model hits each clause once.
    """
    chosen = check_one_in_three(formula, model)
    return _nop_free_alpha_region(formula, chosen, gen_nop_free(formula))


def _nop_free_alpha_region(
    formula: CmFormula,
    chosen: frozenset[str],
    inst: ReductionInstance,
) -> Region:
    """:func:`gen_nop_free_alpha_region` on the instance ``inst`` of
    ``formula`` and the checked model ``chosen``."""
    m = formula.m
    swap: set[str] = {"k1"}
    for j in range(7 * m):
        v, w = _vw(j, False)
        vp, wp = _vw(j, True)
        swap.update((v, w, vp, wp))
    for var in formula.variables:
        if var not in chosen:
            swap.add(var)
        swap.add(_prime(var))
    swap.update(f"ODOT_{j}" for j in range(14 * m) if j % 2 == 1)
    swap.update(f"ODOTp_{j}" for j in range(14 * m) if j % 2 == 0)
    region = _witness_region(inst.ts, SWAP_FREE, swap)
    if not region.solves(inst.alpha):
        raise InternalCheckFailed("designated pair left unseparated")
    return region


def gen_nop_free_witness(
    formula: CmFormula,
    model: Iterable[str],
) -> list[Region]:
    """Region family separating every pair of the bi-directed instance."""
    chosen = check_one_in_three(formula, model)
    inst = gen_nop_free(formula)
    ts = inst.ts
    m = formula.m
    internal: set[str] = {"k0", "k1"}
    vs: list[str] = []
    ws: list[str] = []
    for j in range(7 * m):
        for primed in (False, True):
            v, w = _vw(j, primed)
            vs.append(v)
            ws.append(w)
    variables = list(formula.variables) + [
        _prime(v) for v in formula.variables
    ]
    internal.update(vs)
    internal.update(ws)
    internal.update(variables)
    infrastructure = set(_spine_events(m)) | set(_attach_connectors(m))

    regions = [_witness_region(ts, SWAP_FREE, internal)]
    for connector in _attach_connectors(m):
        regions.append(_witness_region(ts, SWAP_FREE, internal | {connector}))

    spine_states = ["iota"] + [f"TOP_{j}" for j in range(14 * m)] + [
        f"BOT_{j}" for j in range(2 * m)
    ]
    for state in spine_states:
        ks = ts.state_arcs[ts.sidx[state]]
        incident = {ts.events[ts.arcs[k][1]] for k in ks}
        support = {s: (1 if s == state else 0) for s in ts.states}
        signature = {
            e: (I.SWAP if e in incident else I.FREE) for e in ts.events
        }
        region = Region(support=support, signature=signature)
        if not is_region(ts, SWAP_FREE, region):
            raise InternalCheckFailed(f"station region failed at {state!r}")
        regions.append(region)

    brackets = {"k0", "k1"}
    ominus = {f"OMINUS{p}_{2 * i}" for i in range(m) for p in ("", "p")}
    odot = {f"ODOT{p}_{j}" for j in range(14 * m) for p in ("", "p")}
    for swapset in (
        brackets | ominus,
        brackets | odot | set(vs) | set(variables),
        brackets | set(vs) | set(ws) | set(variables),
    ):
        regions.append(_witness_region(ts, SWAP_FREE, swapset))
    regions.append(_nop_free_alpha_region(formula, chosen, inst))

    for i in range(m):
        for primed in (False, True):
            for kind, positions in (("T0", range(2, 10)), ("T1", (1, 2))):
                for pos in positions:
                    swapset = _pulse_swapset(formula, i, kind, pos, primed)
                    regions.append(_witness_region(ts, SWAP_FREE, swapset))
    # the infrastructure events never flip in the bulk regions above; spot
    # check the bookkeeping rather than trust it
    if infrastructure & internal:
        raise InternalCheckFailed("event classified as both link and spine")
    return regions


# ---------------------------------------------------------------------------
# structural facts about separating regions of the bi-directed instance


class FactCheckFailed(SspKitError):
    """A region violates a structural necessity of the generated instance."""


@dataclass(frozen=True)
class GadgetFacts:
    bracket_signatures: tuple[Interaction, Interaction]
    model_side_primed: bool
    model: tuple[str, ...]


def nop_free_gadget_facts(
    formula: CmFormula,
    region: Region,
) -> GadgetFacts:
    """Check the forced structure of any region separating the pair.

    Exactly one bracket event flips while the other keeps a test/constant
    role; all pairing events flip; on the non-flipping bracket's side each
    clause leaves exactly one variable out of the flip role.  Extracts that
    variable set, verifies it hits every clause once, and returns the facts.
    """
    m = formula.m
    sig = region.signature
    k0, k1 = sig["k0"], sig["k1"]
    flips = [k for k in (k0, k1) if k is I.SWAP]
    if len(flips) != 1:
        raise FactCheckFailed(
            f"bracket events must split roles, got {k0.value}/{k1.value}"
        )
    for j in range(7 * m):
        for primed in (False, True):
            for name in _vw(j, primed):
                if sig[name] is not I.SWAP:
                    raise FactCheckFailed(f"pairing event {name!r} does not flip")
    model_side_primed = k0 is I.SWAP
    model: list[str] = []
    for clause in formula.clauses:
        holders = []
        for var in clause:
            name = _prime(var) if model_side_primed else var
            if sig[name] is not I.SWAP:
                holders.append(var)
        if len(holders) != 1:
            raise FactCheckFailed(
                f"clause {list(clause)!r} has {len(holders)} non-flip variables"
            )
        model.append(holders[0])
    chosen = check_one_in_three(formula, model)
    return GadgetFacts(
        bracket_signatures=(k0, k1),
        model_side_primed=model_side_primed,
        model=tuple(sorted(chosen)),
    )


def substitute_free_res(region: Region) -> Region:
    """Replace every zero-test by the reset interaction.

    Any edge carried by the zero-test has source support 0, where reset
    agrees, so the result is a region of the reset-based type with the same
    support.
    """
    return Region(
        support=dict(region.support),
        signature={
            e: (I.RES if i is I.FREE else i)
            for e, i in region.signature.items()
        },
    )


# ---------------------------------------------------------------------------
# extensions of loop-free systems


class NotLoopFree(SspKitError):
    pass


class ExtensionKind(Enum):
    BACKWARD = "backward"
    ONEWAY_LOOP = "oneway-loop"
    LOOP = "loop"


def extend(ts: TransitionSystem, kind: ExtensionKind) -> TransitionSystem:
    """Add reversed edges (and loops) with fresh companion events.

    Each event e gets a companion spelled e' (further primed until fresh)
    labeling the reversed edges.  BACKWARD adds reversals only; ONEWAY_LOOP
    also loops every edge target on the original event; LOOP additionally
    loops every edge source on the companion.  The input must be loop-free;
    the result is only deterministic when no event repeats along a path and
    no two edges of an event share a target, so a
    :class:`~ssp_kit.core.NondeterministicEdge` surfaces otherwise.
    """
    if not ts.loop_free:
        raise NotLoopFree("extensions are defined for loop-free systems only")
    taken = set(ts.events)
    companion: dict[str, str] = {}
    for e in ts.events:
        fresh = e + "'"
        while fresh in taken:
            fresh += "'"
        taken.add(fresh)
        companion[e] = fresh
    edges: list[tuple[str, str, str]] = list(ts.edges)
    edges += [(t, companion[e], s) for s, e, t in ts.edges]
    if kind is not ExtensionKind.BACKWARD:
        edges += [(t, e, t) for s, e, t in ts.edges]
    if kind is ExtensionKind.LOOP:
        edges += [(s, companion[e], s) for s, e, t in ts.edges]
    return validate_ts(edges, ts.initial)
