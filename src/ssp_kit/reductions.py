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
from enum import Enum
from itertools import combinations
from typing import Iterable, NamedTuple, Sequence

from .core import (
    InternalCheckFailed,
    Interaction,
    PartialAssignment,
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


class CmFormula(NamedTuple):
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


class ReductionInstance(NamedTuple):
    ts: TransitionSystem
    alpha: tuple[str, str]
    formula: CmFormula


def _chain(
    pairs: list[tuple[str, str, str]], prefix: str, events: Sequence[str]
) -> None:
    """Append the path ``prefix_0 -> prefix_1 -> ...`` spelling ``events``."""
    states = [f"{prefix}_{k}" for k in range(len(events) + 1)]
    pairs.extend(zip(states, events, states[1:]))


def _check_fresh_variables(
    formula: CmFormula, gadget_edges: Iterable[tuple[str, str, str]]
) -> None:
    """Reject variables spelled like an event of the gadget edges emitted so far."""
    clash = set(formula.variables) & {e for _, e, _ in gadget_edges}
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
    edges: list[tuple[str, str, str]] = []
    spine = [f"t_{i}_0" for i in range(m + 2)]
    for i in range(m):
        edges.append((spine[i], f"w_{i}", spine[i + 1]))
    edges.append((spine[m], "k", spine[m + 1]))
    edges.append((spine[m + 1], "v", "TOP"))
    for i in range(m):
        edges.append((f"t_{i}_3", f"u_{i}", "TOP"))
        edges.append((spine[0], f"y_{i}", f"g_{i}_0"))
        _chain(edges, f"g_{i}", [f"u_{i}", "k"])
    # the edges so far carry every generated event; the clause paths follow
    _check_fresh_variables(formula, edges)
    for i, clause in enumerate(formula.clauses):
        _chain(edges, f"t_{i}", clause)
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


def _vw(j: int, primed: bool) -> tuple[str, str]:
    if primed:
        return f"vp_{j}", f"wp_{j}"
    return f"v_{j}", f"w_{j}"


def _link_pairs(m: int) -> list[tuple[str, str]]:
    """Every link pair (v, w) and (vp, wp), by index."""
    return [_vw(j, primed) for j in range(7 * m) for primed in (False, True)]


def _spellers(formula: CmFormula, i: int, primed: bool) -> tuple[list[str], list[str]]:
    """Clause ``i``'s two speller event lists, T0 and T1, on one side.

    T0 spells the clause's three variables between the side's link events
    7i .. 7i+5 inside two brackets; T1 spells its first and last variable
    around the link event 7i+6.  The primed side spells primed variables.
    """
    mark = "'" if primed else ""
    a, b, c = (x + mark for x in formula.clauses[i])
    v = [_vw(7 * i + q, primed)[0] for q in range(7)]
    bracket = "k1" if primed else "k0"
    t0 = [bracket, v[0], v[1], a, v[2], b, v[3], c, v[4], v[5], bracket]
    return t0, [a, v[6], c]


def _connectors(m: int) -> list[tuple[str, str, str]]:
    """Every (station, connector, gadget start) edge from the spine.

    ``ODOT_j`` and ``ODOTp_j`` join the outer station ``TOP_j`` to link
    gadget j // 2: ``g`` and ``gp`` for even j, ``f`` and ``fp`` for odd.
    ``OMINUS_j`` and ``OMINUSp_j`` join the inner station ``BOT_j`` to
    clause j // 2's spellers on either side: T0 for even j, T1 for odd.
    The witness family's connector regions come in this order.
    """
    out = []
    for p in ("", "p"):
        for j in range(14 * m):
            out.append((f"TOP_{j}", f"ODOT{p}_{j}", f"{'gf'[j % 2]}{p}_{j // 2}_0"))
    for p in ("", "p"):
        for j in range(2 * m):
            out.append((f"BOT_{j}", f"OMINUS{p}_{j}", f"t{p}_{j // 2}_{j % 2}_0"))
    return out


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
    pairs: list[tuple[str, str, str]] = []
    for j in range(7 * m):
        v, w = _vw(j, False)
        vp, wp = _vw(j, True)
        _chain(pairs, f"g_{j}", [v, w, "k0", "k1"])
        _chain(pairs, f"f_{j}", [v, w, "k1", "k0"])
        _chain(pairs, f"gp_{j}", [vp, wp, "k1", "k0"])
        _chain(pairs, f"fp_{j}", [vp, wp, "k0", "k1"])
    # the spine: two chains of stations from the root
    for station, step, count in (("TOP", "OTIMES", 14 * m), ("BOT", "OPLUS", 2 * m)):
        prev = "iota"
        for j in range(count):
            pairs.append((prev, f"{step}_{j}", f"{station}_{j}"))
            prev = f"{station}_{j}"
    pairs += _connectors(m)
    # the pairs so far carry every generated event; the spellers follow
    _check_fresh_variables(formula, pairs)
    for i in range(m):
        for p, primed in (("", False), ("p", True)):
            for kind, events in enumerate(_spellers(formula, i, primed)):
                _chain(pairs, f"t{p}_{i}_{kind}", events)
    edges = pairs + [(b, e, a) for a, e, b in pairs]
    ts = validate_ts(edges, "iota")
    return ReductionInstance(ts=ts, alpha=("g_0_2", "g_0_4"), formula=formula)


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
    swap = {"k1"}
    for pair in _link_pairs(formula.m):
        swap.update(pair)
    for var in formula.variables:
        if var not in chosen:
            swap.add(var)
        swap.add(var + "'")
    # the connectors into the link gadgets that pass k1 before k0
    swap.update(
        c for _, c, start in _connectors(formula.m) if start.startswith(("f_", "gp_"))
    )
    region = _witness_region(inst.ts, SWAP_FREE, swap)
    if not region.solves(inst.alpha):
        raise InternalCheckFailed("designated pair left unseparated")
    return region


def gen_nop_free_witness(
    formula: CmFormula,
    model: Iterable[str],
) -> list[Region]:
    """Region family separating every pair of the bi-directed instance:
    60m + 5 regions for m clauses, none of them twice."""
    chosen = check_one_in_three(formula, model)
    inst = gen_nop_free(formula)
    ts = inst.ts
    m = formula.m
    connectors = _connectors(m)
    brackets = {"k0", "k1"}
    pair_of = {pair[0]: pair for pair in _link_pairs(m)}
    variables = set(formula.variables) | {x + "'" for x in formula.variables}
    internal = brackets | {e for pair in pair_of.values() for e in pair} | variables

    regions = [_witness_region(ts, SWAP_FREE, internal)]
    for _, connector, _ in connectors:
        regions.append(_witness_region(ts, SWAP_FREE, internal | {connector}))

    stations = dict.fromkeys(station for station, _, _ in connectors)
    for state in ["iota", *stations]:
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

    # the connectors into the link gadgets, and those into the T0 spellers
    odot = {c for station, c, _ in connectors if station.startswith("TOP_")}
    ominus = {
        c for _, c, start in connectors if start[0] == "t" and start.endswith("_0_0")
    }
    # the third bracket region, over ``internal``, is the first region
    for swapset in (
        brackets | ominus,
        brackets | odot | set(pair_of) | variables,  # the v of every link pair
    ):
        regions.append(_witness_region(ts, SWAP_FREE, swapset))
    regions.append(_nop_free_alpha_region(formula, chosen, inst))

    spellers = [
        (i, kind, speller)
        for i in range(m)
        for primed in (False, True)
        for kind, speller in enumerate(_spellers(formula, i, primed))
    ]
    # each variable occurrence, as its speller place, with the link pair
    # spelled next to it: before it, or after it at the start of T1
    partners: dict[str, list[tuple[tuple[int, int, int], tuple[str, str]]]] = {}
    for i, kind, speller in spellers:
        for at, name in enumerate(speller):
            if name in variables:
                link = pair_of[speller[at - 1] if at else speller[1]]
                partners.setdefault(name, []).append(((i, kind, at), link))
    pulses: set[frozenset[str]] = set()
    for i, kind, speller in spellers:
        for pos in (range(2, 10), (1, 2))[kind]:
            # a pulse over speller places pos - 1 and pos: a variable flips
            # with the link pairs of its other occurrences, a v with its w;
            # places that spell the same pair pulse once
            swapset = set()
            for at in (pos - 1, pos):
                name = speller[at]
                if name in variables:
                    swapset.add(name)
                    for home, pair in partners[name]:
                        if home != (i, kind, at):
                            swapset.update(pair)
                else:
                    swapset.update(pair_of[name])
            if frozenset(swapset) not in pulses:
                pulses.add(frozenset(swapset))
                regions.append(_witness_region(ts, SWAP_FREE, swapset))
    return regions


# ---------------------------------------------------------------------------
# structural facts about separating regions of the bi-directed instance


class FactCheckFailed(SspKitError):
    """A region violates a structural necessity of the generated instance."""


class GadgetFacts(NamedTuple):
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
    sig = region.signature
    links = [name for pair in _link_pairs(formula.m) for name in pair]
    read = ["k0", "k1", *links, *formula.variables]
    read += [var + "'" for var in formula.variables]
    missing = [e for e in read if e not in sig]
    if missing:
        raise PartialAssignment(f"signature missing events {missing!r}")
    foreign = [e for e in read if not isinstance(sig[e], I)]
    if foreign:
        raise FactCheckFailed(f"signature of {foreign!r} is not an interaction")
    k0, k1 = sig["k0"], sig["k1"]
    flips = [k for k in (k0, k1) if k is I.SWAP]
    if len(flips) != 1:
        raise FactCheckFailed(
            f"bracket events must split roles, got {k0.value}/{k1.value}"
        )
    for name in links:
        if sig[name] is not I.SWAP:
            raise FactCheckFailed(f"pairing event {name!r} does not flip")
    model_side_primed = k0 is I.SWAP
    model: list[str] = []
    for clause in formula.clauses:
        holders = []
        for var in clause:
            name = var + "'" if model_side_primed else var
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
