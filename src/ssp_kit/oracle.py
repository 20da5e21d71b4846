"""Checkers independent of the search: the exhaustive oracle, the swap
fast path and embedding certificates.

``brute_force_decide`` decides by every feasible support of a small
system, ``fast_path_swap_core`` (swap plus inp/out) by a two-colouring.
Each gives every state a code and names as witness the first atom in
sorted order whose states share one (:func:`_code_report`).  The module
imports nothing from the package but ``core``, so a fault in the search's
tables or scan cannot hide by showing on both sides of a comparison.
"""

from __future__ import annotations

import time
from itertools import product
from typing import Mapping, NamedTuple, Sequence

from .core import (
    INTERACTION_ORDER, Decision, Interaction, Region, SearchStats, SeparationReport,
    SspKitError, TransitionSystem,
)

#: The most states the exhaustive oracles enumerate the supports of.
ORACLE_CAP = 16


class OracleCapExceeded(SspKitError):
    """The exhaustive enumerator refuses systems above its state cap."""


class WrongTypeFamily(SspKitError):
    """A specialized decision procedure was handed a type it does not cover."""


def _code_report(ts: TransitionSystem, codes: Sequence[int]) -> SeparationReport:
    """The decision of per-state ``codes``, two states inseparable iff they
    share one: the witness is the first atom in sorted order whose states
    share a code, and the atoms up to it are checked.  Linear in the states."""
    first: dict[int, int] = {}
    for j, code in enumerate(codes):
        first.setdefault(code, j)
    shared = [(first[code], j) for j, code in enumerate(codes) if first[code] != j]
    n = len(codes)
    stats = SearchStats(atoms_checked=n * (n - 1) // 2)
    if not shared:
        return SeparationReport(Decision.HAS_SSP, None, stats=stats)
    i, j = min(shared)
    # the atoms of the first states before i, then (i, i + 1) to (i, j)
    stats.atoms_checked = i * (2 * n - i - 1) // 2 + j - i
    witness = (ts.states[i], ts.states[j])
    return SeparationReport(Decision.LACKS_SSP, witness, stats=stats)


# ---------------------------------------------------------------------------
# exhaustive oracles for small systems


#: a member of the type with its table pair, (value at 0, value at 1)
_Member = tuple[Interaction, tuple[int | None, int | None]]


def _oracle_input(
    ts: TransitionSystem,
    tau: frozenset[Interaction],
) -> tuple[range, list[list[tuple[int, int]]], list[_Member]]:
    """What the oracles scan: every support as an int, bit i the value of
    state i, in mask order; per event the (source, target) state ids of its
    edges; and the members of ``tau`` in :data:`INTERACTION_ORDER`, each
    with its table pair :attr:`Interaction.pair`."""
    n = len(ts.states)
    if n > ORACLE_CAP:
        raise OracleCapExceeded(f"{n} states exceeds the oracle cap of {ORACLE_CAP}")
    pairs = [[(ts.arcs[k][0], ts.arcs[k][2]) for k in ks] for ks in ts.event_arcs]
    return range(1 << n), pairs, [(i, i.pair) for i in INTERACTION_ORDER if i in tau]


def _carriers(
    pairs: list[list[tuple[int, int]]],
    members: list[_Member],
    sup: int,
) -> list[list[Interaction]] | None:
    """Per event, the ``members`` carrying its edge ``pairs`` under the
    support ``sup``, read from each member's table pair, (value at 0,
    value at 1); None at the first event with none.  No events give
    ``[]``, not None."""
    per_event = []
    for edges in pairs:
        choices = [
            i for i, pair in members
            if all(pair[sup >> s & 1] == sup >> t & 1 for s, t in edges)
        ]
        if not choices:
            return None
        per_event.append(choices)
    return per_event


def brute_force_regions(
    ts: TransitionSystem,
    tau: frozenset[Interaction],
) -> list[Region]:
    """Every tau-region of ``ts``, by brute enumeration; small systems only."""
    regions: list[Region] = []
    supports, pairs, members = _oracle_input(ts, tau)
    for sup in supports:
        per_event = _carriers(pairs, members, sup)
        if per_event is None:
            continue
        support = {s: sup >> k & 1 for k, s in enumerate(ts.states)}
        for combo in product(*per_event):
            regions.append(Region(dict(support), dict(zip(ts.events, combo))))
    return regions


def brute_force_supports(
    ts: TransitionSystem,
    tau: frozenset[Interaction],
) -> set[tuple[int, ...]]:
    """Supports (as bit tuples over sorted states) admitting a tau-region."""
    supports, pairs, members = _oracle_input(ts, tau)
    kept = [sup for sup in supports if _carriers(pairs, members, sup) is not None]
    return {tuple(sup >> k & 1 for k in range(len(ts.states))) for sup in kept}


def brute_force_decide(
    ts: TransitionSystem,
    tau: frozenset[Interaction],
) -> SeparationReport:
    """Oracle twin of ``decide_ssp`` by exhaustive support enumeration.

    Supports are scanned in mask order.  One that splits a class of the
    partition so far and admits a region refines it, and its region, each
    event on its first carrier, joins ``report.regions``.  Each state's
    class code gets its bit under a kept support appended, ``c + c + bit``,
    so two states share a code iff no kept support splits them, and a
    support splits a class iff it makes more distinct codes.  The scan
    stops once every class is a singleton; ``nodes_expanded`` counts the
    supports scanned, and the final codes name the witness.
    """
    t0 = time.perf_counter()
    n = len(ts.states)
    supports, pairs, members = _oracle_input(ts, tau)
    cls = [0] * n
    regions: list[Region] = []
    scanned = 0
    classes = 1
    for sup in supports:
        scanned += 1
        if classes == n:
            break
        refined = [c + c + (sup >> k & 1) for k, c in enumerate(cls)]
        split = len(set(refined))
        if split == classes:
            continue
        per_event = _carriers(pairs, members, sup)
        if per_event is None:
            continue
        cls, classes = refined, split
        support = {s: sup >> k & 1 for k, s in enumerate(ts.states)}
        signature = {e: c[0] for e, c in zip(ts.events, per_event)}
        regions.append(Region(support, signature))
    report = _code_report(ts, cls)
    report.regions = regions
    report.stats.nodes_expanded = scanned
    report.stats.wall_ms = (time.perf_counter() - t0) * 1000.0
    return report


# ---------------------------------------------------------------------------
# the swap family: swap with optional inp/out


def fast_path_swap_core(
    ts: TransitionSystem,
    tau: frozenset[Interaction],
) -> SeparationReport:
    """Decide SSP for types {swap} <= tau <= {swap, inp, out} by two-colouring.

    Every member of such a type inverts the value wherever defined, so a
    support admits a region iff it properly two-colours the undirected,
    connected graph of the edges, and then every event can take ``swap``.
    A loop or an odd cycle leaves no region and all states in one class;
    otherwise the two colours are the classes.  The colours name the
    witness that ``decide_ssp`` and the oracle name, and a has-ssp report
    carries the colouring as its region when there is one.
    """
    family = {Interaction.SWAP, Interaction.INP, Interaction.OUT}
    if Interaction.SWAP not in tau or not tau <= family:
        raise WrongTypeFamily(
            "fast path covers exactly the types between {swap} and {swap,inp,out}"
        )
    colour = [0] + [-1] * (len(ts.states) - 1)
    stack = [0]
    while stack:
        s = stack.pop()
        for k in ts.state_arcs[s]:
            si, _, ti = ts.arcs[k]
            t = ti if si == s else si
            if colour[t] < 0:
                colour[t] = 1 - colour[s]
                stack.append(t)
            elif colour[t] == colour[s]:
                return _code_report(ts, [0] * len(colour))
    report = _code_report(ts, colour)
    if report.decision is Decision.HAS_SSP:
        swap = dict.fromkeys(ts.events, Interaction.SWAP)
        report.regions.append(Region(dict(zip(ts.states, colour)), swap))
    return report


# ---------------------------------------------------------------------------
# embeddings


class EmbeddingCertificate(NamedTuple):
    vectors: Mapping[str, tuple[int, ...]]
    injective: bool


def embedding_certificate(
    ts: TransitionSystem,
    regions: Sequence[Region],
) -> EmbeddingCertificate:
    """Per-state bit vectors over ``regions`` and whether they are distinct.

    Distinct vectors mean the region set separates every pair, i.e. the map
    from states into region space is injective.
    """
    vectors = {
        s: tuple(r.support[s] for r in regions) for s in ts.states
    }
    injective = len(set(vectors.values())) == len(ts.states)
    return EmbeddingCertificate(vectors=vectors, injective=injective)
