"""Boolean interactions, labeled transition systems, and regions.

This module holds the ground vocabulary of the package: the eight Boolean
interactions (partial maps on {0,1}), Boolean types (sets of interactions),
validated deterministic transition systems, and regions of a transition
system together with propagation, path images, and normalization.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence


class SspKitError(Exception):
    """Base class for all structured errors raised by this package."""


class InternalCheckFailed(SspKitError):
    """A self-check that should be unreachable failed; indicates a bug."""


# ---------------------------------------------------------------------------
# validation errors


class TsValidationError(SspKitError):
    """A proposed transition system violates a structural invariant."""


class EmptyStateSet(TsValidationError):
    pass


class InvalidIdentifier(TsValidationError):
    pass


class NondeterministicEdge(TsValidationError):
    def __init__(self, state: str, event: str, targets: Iterable[str]):
        tgt = sorted(set(targets))
        super().__init__(f"state {state!r} has {event!r}-edges to {tgt!r}")
        self.state = state
        self.event = event
        self.targets = tuple(tgt)


class UnreachableState(TsValidationError):
    def __init__(self, states: Iterable[str]):
        bad = sorted(set(states))
        super().__init__(f"states not reachable from the initial state: {bad!r}")
        self.states = tuple(bad)


class UnusedEvent(TsValidationError):
    def __init__(self, events: Iterable[str]):
        bad = sorted(set(events))
        super().__init__(f"declared events that label no edge: {bad!r}")
        self.events = tuple(bad)


# ---------------------------------------------------------------------------
# region errors


class PartialAssignment(SspKitError):
    """A region was given without a value for some state or event."""


class NopNotInType(SspKitError):
    """Normalization requires the identity interaction to be available."""


class DisconnectedPath(SspKitError):
    """A path walked through a transition system left its edge relation."""


# ---------------------------------------------------------------------------
# interactions


class Interaction(Enum):
    """One of the eight Boolean interactions: a partial map {0,1} -> {0,1}.

    ``nop`` is the identity; ``inp``/``out`` consume/produce and are undefined
    at 0/1 respectively; ``res``/``set`` force 0/1; ``swap`` inverts; ``used``
    and ``free`` test for 1 and 0 without changing the value.
    """

    NOP = "nop"
    INP = "inp"
    OUT = "out"
    RES = "res"
    SET = "set"
    SWAP = "swap"
    USED = "used"
    FREE = "free"

    def apply(self, x: int) -> int | None:
        """Value of this interaction at ``x``, or None where undefined."""
        return _APPLY[self][x]

    def defined_at(self, x: int) -> bool:
        return _APPLY[self][x] is not None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


# (value at 0, value at 1); None marks the undefined cells.
_APPLY: dict[Interaction, tuple[int | None, int | None]] = {
    Interaction.NOP: (0, 1),
    Interaction.INP: (None, 0),
    Interaction.OUT: (1, None),
    Interaction.RES: (0, 0),
    Interaction.SET: (1, 1),
    Interaction.SWAP: (1, 0),
    Interaction.USED: (None, 1),
    Interaction.FREE: (0, None),
}

#: Canonical listing order used everywhere (bit i of a type mask, CLI output,
#: branching order of the search).
INTERACTION_ORDER: tuple[Interaction, ...] = (
    Interaction.NOP,
    Interaction.INP,
    Interaction.OUT,
    Interaction.RES,
    Interaction.SET,
    Interaction.SWAP,
    Interaction.USED,
    Interaction.FREE,
)

INTERACTION_BY_NAME: dict[str, Interaction] = {i.value: i for i in Interaction}

#: The steps x -> apply(x) of each interaction as cells: bit 2x+y is set iff
#: the interaction is defined at x with value y.
STEP_CELLS: dict[Interaction, int] = {
    i: sum(1 << (2 * x + y) for x, y in enumerate(_APPLY[i]) if y is not None)
    for i in Interaction
}


def type_mask(tau: frozenset[Interaction]) -> int:
    """The type as 8 bits: bit b set iff ``INTERACTION_ORDER[b]`` is in it."""
    return sum(1 << b for b, i in enumerate(INTERACTION_ORDER) if i in tau)


def type_of(*interactions: Interaction) -> frozenset[Interaction]:
    return frozenset(interactions)


def type_name(tau: frozenset[Interaction]) -> str:
    """Canonical comma-separated rendering, empty string for the empty type."""
    return ",".join(i.value for i in INTERACTION_ORDER if i in tau)


# ---------------------------------------------------------------------------
# transition systems

_IDENT_RE = re.compile(r"[A-Za-z0-9_.'-]+\Z")

Edge = tuple[str, str, str]


class SystemIndex(NamedTuple):
    """The integer form of a system, and its one adjacency form.

    States and events are numbered by their position in the sorted
    ``states`` and ``events``.  The search, the region checks and the
    oracles walk its edges; all but ``descents`` is independent of a type
    and serves every walker on the system, which must not modify it.
    Its sequences are lists: as small tuples, freed with their system, they
    would stay in CPython's tuple free lists, which kept the peak resident
    memory of a few thousand decisions on small systems about 1 MB higher.
    """

    #: state name -> state id
    sidx: dict[str, int]
    #: (source id, event id, target id) per edge, grouped by event
    edges: list[tuple[int, int, int]]
    #: edge ids per event id
    event_edges: list[list[int]]
    #: edge ids per state id (a loop once)
    state_edges: list[list[int]]
    #: event ids in branching order: busiest first, ties by name
    order: list[int]
    #: per type mask, what the search keeps as long as the system; starts empty
    descents: dict[int, dict]


def _build_index(ts: TransitionSystem) -> SystemIndex:
    sidx = {s: k for k, s in enumerate(ts.states)}
    eidx = {e: k for k, e in enumerate(ts.events)}
    edges = [(sidx[s], eidx[e], sidx[t]) for s, e, t in ts.edges]
    edges.sort(key=itemgetter(1))  # stable: by event, then source and target
    event_edges: list[list[int]] = [[] for _ in ts.events]
    state_edges: list[list[int]] = [[] for _ in ts.states]
    for k, (si, ei, ti) in enumerate(edges):
        event_edges[ei].append(k)
        state_edges[si].append(k)
        if ti != si:
            state_edges[ti].append(k)
    order = sorted(
        range(len(ts.events)),
        key=lambda ei: (-len(event_edges[ei]), ts.events[ei]),
    )
    return SystemIndex(sidx, edges, event_edges, state_edges, order, {})


class TransitionSystem:
    """A finite, deterministic, initialized, fully reachable labeled system.

    Instances are produced by :func:`validate_ts`; state and event names are
    plain strings, edges are (source, event, target) triples.  Its one
    adjacency form is the :class:`SystemIndex` that :meth:`index` builds on
    first use; by name it only answers :meth:`delta`.  Equality and hashing
    go by content, so regenerating a system yields an equal one; the cached
    index takes no part in either.
    """

    __slots__ = (
        "states",
        "events",
        "edges",
        "initial",
        "loop_free",
        "bi_directed",
        "_delta",
        "_index",
    )

    def __init__(
        self,
        states: tuple[str, ...],
        events: tuple[str, ...],
        edges: tuple[Edge, ...],
        initial: str,
        loop_free: bool,
        bi_directed: bool,
        delta: dict[tuple[str, str], str],
    ):
        self.states = states
        self.events = events
        self.edges = edges
        self.initial = initial
        self.loop_free = loop_free
        self.bi_directed = bi_directed
        self._delta = delta
        self._index: SystemIndex | None = None

    def delta(self, state: str, event: str) -> str | None:
        """Target of the ``event``-edge out of ``state``, or None."""
        return self._delta.get((state, event))

    def index(self) -> SystemIndex:
        """The integer form of the system, built on first use and kept."""
        if self._index is None:
            self._index = _build_index(self)
        return self._index

    def atoms(self) -> Iterator[tuple[str, str]]:
        """All unordered state pairs, each as a sorted tuple, in sorted order."""
        n = len(self.states)
        for i in range(n):
            for j in range(i + 1, n):
                yield (self.states[i], self.states[j])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TransitionSystem):
            return NotImplemented
        return (
            self.initial == other.initial
            and self.states == other.states
            and self.events == other.events
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.initial, self.states, self.events, self.edges))

    def __repr__(self) -> str:
        return (
            f"TransitionSystem({len(self.states)} states, "
            f"{len(self.events)} events, {len(self.edges)} edges, "
            f"initial={self.initial!r})"
        )


def validate_ts(
    edges: Iterable[Sequence[str]],
    initial: str,
    *,
    states: Iterable[str] | None = None,
    events: Iterable[str] | None = None,
) -> TransitionSystem:
    """Check structural invariants and build a :class:`TransitionSystem`.

    ``states``/``events`` may add isolated names to the declared sets; any
    name appearing on an edge is declared implicitly.  Raises a subclass of
    :class:`TsValidationError` when an invariant fails: deterministic edges,
    at least one state, every state reachable from ``initial``, every event
    used on some edge, and well-formed identifiers.
    """
    edge_list: list[Edge] = []
    state_set: set[str] = set(states or ())
    event_set: set[str] = set(events or ())
    state_set.add(initial)
    for raw in edges:
        if len(raw) != 3:
            raise InvalidIdentifier(f"edge must be (source, event, target): {raw!r}")
        s, e, t = raw
        edge_list.append((s, e, t))
        state_set.update((s, t))
        event_set.add(e)
    for name in sorted(state_set | event_set):
        if not isinstance(name, str) or not _IDENT_RE.match(name):
            raise InvalidIdentifier(f"bad state/event name: {name!r}")
    if not state_set:
        raise EmptyStateSet("a transition system needs at least one state")

    delta: dict[tuple[str, str], str] = {}
    for s, e, t in edge_list:
        prev = delta.get((s, e))
        if prev is not None and prev != t:
            raise NondeterministicEdge(s, e, (prev, t))
        delta[(s, e)] = t

    # dedupe repeated identical edges, then canonicalize the order
    edge_tuple = tuple(sorted({(s, e, t) for s, e, t in edge_list}))

    unused = event_set - {e for _, e, _ in edge_tuple}
    if unused:
        raise UnusedEvent(unused)

    succ: dict[str, list[str]] = {}
    for s, _, t in edge_tuple:
        succ.setdefault(s, []).append(t)
    seen = {initial}
    frontier = [initial]
    while frontier:
        here = frontier.pop()
        for t in succ.get(here, ()):
            if t not in seen:
                seen.add(t)
                frontier.append(t)
    missing = state_set - seen
    if missing:
        raise UnreachableState(missing)

    loop_free = all(s != t for s, _, t in edge_tuple)
    edge_set = set(edge_tuple)
    bi_directed = loop_free and all((t, e, s) in edge_set for s, e, t in edge_tuple)

    return TransitionSystem(
        states=tuple(sorted(state_set)),
        events=tuple(sorted(event_set)),
        edges=edge_tuple,
        initial=initial,
        loop_free=loop_free,
        bi_directed=bi_directed,
        delta=delta,
    )


# ---------------------------------------------------------------------------
# regions


@dataclass(frozen=True)
class Region:
    """A support (state -> {0,1}) plus a signature (event -> interaction).

    A region of a system maps every edge s --e--> s' to a defined step
    sig(e): sup(s) -> sup(s') of the interaction table; :func:`is_region`
    checks exactly that.
    """

    support: Mapping[str, int]
    signature: Mapping[str, Interaction]

    def solves(self, atom: tuple[str, str]) -> bool:
        """True when the two states of ``atom`` get different support."""
        a, b = atom
        return self.support[a] != self.support[b]

    def separated_atoms(self, ts: TransitionSystem) -> set[tuple[str, str]]:
        return {atom for atom in ts.atoms() if self.solves(atom)}

    def key(self) -> tuple:
        """Hashable canonical form (sorted items), for dedup and comparison."""
        return (
            tuple(sorted(self.support.items())),
            tuple(sorted((e, i.value) for e, i in self.signature.items())),
        )


def _is_bit(value: object) -> bool:
    # a float 0.0 or 1.0 compares equal to the int but cannot index cells
    return isinstance(value, int) and value in (0, 1)


def is_region(
    ts: TransitionSystem,
    tau: frozenset[Interaction],
    region: Region,
) -> bool:
    """Check that ``region`` is a tau-region of ``ts``.

    Requires a total support/signature over the system's states and events
    (:class:`PartialAssignment` otherwise).  Returns False when some edge is
    not carried to a defined step of its signature interaction, or when some
    signature interaction lies outside ``tau``.
    """
    sup = region.support
    sig = region.signature
    missing_s = [s for s in ts.states if s not in sup]
    missing_e = [e for e in ts.events if e not in sig]
    if missing_s or missing_e:
        raise PartialAssignment(
            f"missing support for {missing_s!r}, signature for {missing_e!r}"
        )
    for s in ts.states:
        if not _is_bit(sup[s]):
            raise PartialAssignment(f"support of {s!r} must be 0 or 1")
    for e in ts.events:
        if sig[e] not in tau:
            return False
    bits = [sup[s] for s in ts.states]
    steps = [STEP_CELLS[sig[e]] for e in ts.events]
    for si, ei, ti in ts.index().edges:
        if not steps[ei] >> (2 * bits[si] + bits[ti]) & 1:
            return False
    return True


def propagate_region(
    ts: TransitionSystem,
    initial_support: int,
    signature: Mapping[str, Interaction],
) -> Region | None:
    """Unfold the unique support implied by a signature, if one exists.

    Fixing the support of the initial state and an interaction per event
    determines the support of every reachable state; returns None when the
    unfolding hits an undefined interaction cell or assigns two different
    values to a state.  Signature must be total (:class:`PartialAssignment`).
    """
    missing = [e for e in ts.events if e not in signature]
    if missing:
        raise PartialAssignment(f"signature missing events {missing!r}")
    if not _is_bit(initial_support):
        raise PartialAssignment("initial support must be 0 or 1")
    index = ts.index()
    steps = [_APPLY[signature[e]] for e in ts.events]
    bits: list[int | None] = [None] * len(ts.states)
    start = index.sidx[ts.initial]
    bits[start] = initial_support
    frontier = [start]
    # every state is reachable, so each is valued and popped once, and each
    # edge is checked from its source against the value of its target
    while frontier:
        here = frontier.pop()
        for k in index.state_edges[here]:
            si, ei, ti = index.edges[k]
            if si != here:
                continue
            val = steps[ei][bits[si]]
            if val is None or bits[ti] not in (None, val):
                return None
            if bits[ti] is None:
                bits[ti] = val
                frontier.append(ti)
    return Region(support=dict(zip(ts.states, bits)), signature=dict(signature))


@dataclass(frozen=True)
class PathImage:
    """Image of a walk under a region: support bits and interactions seen."""

    bits: tuple[int, ...]
    interactions: tuple[Interaction, ...]
    changing_events: frozenset[str]


def image_of_path(
    ts: TransitionSystem,
    region: Region,
    path: Sequence[str],
    start: str | None = None,
) -> PathImage:
    """Walk ``path`` (a list of events) from ``start`` and record the image.

    Raises :class:`DisconnectedPath` when an event has no edge at the current
    state.  ``start`` defaults to the initial state.
    """
    here = ts.initial if start is None else start
    if here not in region.support:
        raise PartialAssignment(f"no support for state {here!r}")
    bits = [region.support[here]]
    inters: list[Interaction] = []
    changing: set[str] = set()
    for e in path:
        nxt = ts.delta(here, e)
        if nxt is None:
            raise DisconnectedPath(f"no {e!r}-edge at state {here!r}")
        if e not in region.signature:
            raise PartialAssignment(f"no signature for event {e!r}")
        i = region.signature[e]
        inters.append(i)
        if region.support[nxt] != region.support[here]:
            changing.add(e)
        here = nxt
        bits.append(region.support[here])
    return PathImage(
        bits=tuple(bits),
        interactions=tuple(inters),
        changing_events=frozenset(changing),
    )


def _changing_events(ts: TransitionSystem, support: Mapping[str, int]) -> set[str]:
    """The events with an edge whose two ends get different support."""
    bits = [support[s] for s in ts.states]
    return {ts.events[ei] for si, ei, ti in ts.index().edges if bits[si] != bits[ti]}


def normalize_region(
    ts: TransitionSystem,
    tau: frozenset[Interaction],
    region: Region,
) -> Region:
    """Rewrite signatures so state-preserving events use the identity.

    Keeps the support untouched.  An event whose edges all preserve support
    gets ``nop``; an event with a support-changing edge keeps its original
    interaction, which is necessarily value-changing and so never a pure
    test.  Requires ``nop`` in ``tau`` (:class:`NopNotInType`) and a valid
    input region (ValueError otherwise); the result is again a region with
    the same support, hence separating the same atoms.
    """
    if Interaction.NOP not in tau:
        raise NopNotInType(f"cannot normalize for type {{{type_name(tau)}}}")
    if not is_region(ts, tau, region):
        raise ValueError("input is not a region of the given type")
    changing = _changing_events(ts, region.support)
    sig = region.signature
    new_sig = {e: sig[e] if e in changing else Interaction.NOP for e in ts.events}
    out = Region(support=dict(region.support), signature=new_sig)
    if not is_region(ts, tau, out):
        raise InternalCheckFailed("normalization produced a non-region")
    return out


def is_normalized(ts: TransitionSystem, region: Region) -> bool:
    """True when pure tests are absent and only changing events leave nop."""
    changing = _changing_events(ts, region.support)
    for e in ts.events:
        sig = region.signature[e]
        if sig in (Interaction.USED, Interaction.FREE):
            return False
        # exactly the changing events leave nop: a region can never map a
        # changing edge through the identity
        if (e in changing) == (sig is Interaction.NOP):
            return False
    return True
