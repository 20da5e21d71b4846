"""Boolean interactions, labeled transition systems, and regions.

This module holds the ground vocabulary of the package: the eight Boolean
interactions (partial maps on {0,1}), Boolean types (sets of interactions),
validated deterministic transition systems, regions with propagation and
normalization, and the report every decider returns.
"""

from __future__ import annotations

import re
from collections.abc import ItemsView, Mapping, ValuesView
from enum import Enum
from itertools import islice
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, NoReturn, Sequence


class SspKitError(Exception):
    """Base class for all structured errors raised by this package."""


class InternalCheckFailed(SspKitError):
    """A self-check that should be unreachable failed; indicates a bug."""


# ---------------------------------------------------------------------------
# validation errors


class TsValidationError(SspKitError):
    """A proposed transition system violates a structural invariant."""


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


# ---------------------------------------------------------------------------
# region errors


class PartialAssignment(SspKitError):
    """A region was given without a value for some state or event."""


class NopNotInType(SspKitError):
    """Normalization requires the identity interaction to be available."""


# ---------------------------------------------------------------------------
# interactions


class Interaction(Enum):
    """One of the eight Boolean interactions: a partial map {0,1} -> {0,1}.

    ``nop`` is the identity; ``inp``/``out`` consume/produce and are undefined
    at 0/1 respectively; ``res``/``set`` force 0/1; ``swap`` inverts; ``used``
    and ``free`` test for 1 and 0 without changing the value.

    Each member carries its table pair, ``pair``: the exhaustive oracles in
    ``oracle`` read each member's pair, never the search's step ``cells``.
    """

    NOP = "nop"
    INP = "inp"
    OUT = "out"
    RES = "res"
    SET = "set"
    SWAP = "swap"
    USED = "used"
    FREE = "free"

    #: the member's bit in a type mask; its steps x -> apply(x) as cells:
    #: bit 2x+y is set iff it is defined at x with value y; and its table
    #: pair, (value at 0, value at 1) with None where undefined
    bit: int
    cells: int
    pair: tuple[int | None, int | None]

    def apply(self, x: int) -> int | None:
        """Value of this interaction at ``x``, or None where undefined."""
        return self.pair[x]

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

#: Canonical listing order used everywhere: bit i of a type mask, CLI output,
#: and the order the oracles try an event's interactions in.  The search
#: tries a node's interactions in its own order, nop, then swap, then the
#: rest in this one (see ``engine._FIRST``).
INTERACTION_ORDER: tuple[Interaction, ...] = tuple(Interaction)

INTERACTION_BY_NAME: dict[str, Interaction] = {i.value: i for i in Interaction}

# Each interaction also carries its type-mask bit, its step cells and its
# table pair, so a checker reads them as attributes instead of hashing the
# member per event; ``_APPLY`` is read only here.
for _bit, _interaction in enumerate(INTERACTION_ORDER):
    _interaction.bit = 1 << _bit
    _interaction.pair = _APPLY[_interaction]
    _interaction.cells = sum(
        1 << (2 * x + y) for x, y in enumerate(_interaction.pair) if y is not None
    )


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


class TransitionSystem:
    """A finite, deterministic, initialized, fully reachable labeled system.

    Instances are produced by :func:`validate_ts`; state and event names are
    plain strings, edges are (source, event, target) triples.  The system
    also holds its integer form, built in the pass that checks it: states
    and events are numbered by their position in the sorted ``states`` and
    ``events``, as ``sidx`` and ``eidx`` record, and the search, the region
    checks and the oracles walk its ``arcs``.  The regions the search
    builds share ``sidx`` and ``eidx`` as their keys (see
    :class:`PackedMap`).  It holds no search policy: the order a search
    branches over the events in is the search's own, built only for the
    systems that get searched.  Equality and hashing go by content, the
    tuple ``(states, events, edges, initial)``, so regenerating a system
    yields an equal one; the integer form takes no part in either.  The
    fields are ``__slots__``, set once by ``__init__``; assigning or
    deleting one raises ``dataclasses.FrozenInstanceError``, as on a frozen
    dataclass.
    Nothing changes a system once built: the searches keep their state to
    themselves and only read the integer form, so searches in several
    threads may share one system.  The integer form's sequences are lists:
    as small tuples, freed with their system, they would stay in CPython's
    tuple free lists, which kept the peak resident memory of a few
    thousand decisions on small systems about 1 MB higher.
    """

    __slots__ = (
        "states", "events", "edges", "initial", "loop_free",
        "sidx", "eidx", "arcs", "event_arcs", "state_arcs",
    )

    states: tuple[str, ...]
    events: tuple[str, ...]
    #: (source, event, target) per edge, sorted by name
    edges: tuple[Edge, ...]
    initial: str
    loop_free: bool
    #: state name -> state id
    sidx: dict[str, int]
    #: event name -> event id
    eidx: dict[str, int]
    #: (source id, event id, target id) per edge, grouped by event, so not
    #: in the order of ``edges``
    arcs: list[tuple[int, int, int]]
    #: positions in ``arcs`` per event id
    event_arcs: list[list[int]]
    #: positions in ``arcs`` per state id (a loop once)
    state_arcs: list[list[int]]

    def __init__(
        self,
        *,
        states: tuple[str, ...],
        events: tuple[str, ...],
        edges: tuple[Edge, ...],
        initial: str,
        loop_free: bool,
        sidx: dict[str, int],
        eidx: dict[str, int],
        arcs: list[tuple[int, int, int]],
        event_arcs: list[list[int]],
        state_arcs: list[list[int]],
    ) -> None:
        init = object.__setattr__
        init(self, "states", states)
        init(self, "events", events)
        init(self, "edges", edges)
        init(self, "initial", initial)
        init(self, "loop_free", loop_free)
        init(self, "sidx", sidx)
        init(self, "eidx", eidx)
        init(self, "arcs", arcs)
        init(self, "event_arcs", event_arcs)
        init(self, "state_arcs", state_arcs)

    def _content(self) -> tuple:
        return (self.states, self.events, self.edges, self.initial)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._content() == other._content()

    def __hash__(self) -> int:
        return hash(self._content())

    def __setattr__(self, name: str, value: object) -> None:
        _frozen(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        _frozen(f"cannot delete field {name!r}")

    def atoms(self) -> Iterator[tuple[str, str]]:
        """All unordered state pairs, each as a sorted tuple, in sorted order."""
        n = len(self.states)
        for i in range(n):
            for j in range(i + 1, n):
                yield (self.states[i], self.states[j])

    def __repr__(self) -> str:
        return (
            f"TransitionSystem({len(self.states)} states, "
            f"{len(self.events)} events, {len(self.edges)} edges, "
            f"initial={self.initial!r})"
        )


def _frozen(message: str) -> NoReturn:
    # dataclasses costs a process about 10 ms to import, inspect included;
    # only this error path needs it
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(message)


def validate_ts(edges: Iterable[Sequence[str]], initial: str) -> TransitionSystem:
    """Check structural invariants and build a :class:`TransitionSystem`.

    The states are ``initial`` and the ends of the edges, the events the
    edge labels.  Raises a subclass of :class:`TsValidationError` when an
    invariant fails: well-formed identifiers, deterministic edges, and
    every state reachable from ``initial``.  The last two are checked on
    the system's integer form, built in the same pass.
    """
    if not isinstance(initial, str):
        raise InvalidIdentifier(f"bad state/event name: {initial!r}")
    edge_set: set[Edge] = set()
    state_set: set[str] = {initial}
    event_set: set[str] = set()
    raw = None
    try:
        for raw in edges:
            if len(raw) != 3:
                raise InvalidIdentifier(
                    f"edge must be (source, event, target): {raw!r}"
                )
            s, e, t = raw
            edge_set.add((s, e, t))
            state_set.update((s, t))
            event_set.add(e)
    except TypeError:  # an edge without a length, or a name without a hash
        raise InvalidIdentifier(
            f"edge must be (source, event, target) of names: {raw!r}"
        ) from None
    names = state_set | event_set
    try:
        ordered = sorted(names)
    except TypeError:  # a name that is not a string, among strings
        ordered = sorted(names, key=repr)
    for name in ordered:
        if not isinstance(name, str) or not _IDENT_RE.match(name):
            raise InvalidIdentifier(f"bad state/event name: {name!r}")

    states = tuple(sorted(state_set))
    events = tuple(sorted(event_set))
    edge_tuple = tuple(sorted(edge_set))
    sidx = {s: k for k, s in enumerate(states)}
    eidx = {e: k for k, e in enumerate(events)}
    arcs = [(sidx[s], eidx[e], sidx[t]) for s, e, t in edge_tuple]
    arcs.sort(key=itemgetter(1))  # stable: by event, then source and target
    event_arcs: list[list[int]] = [[] for _ in events]
    state_arcs: list[list[int]] = [[] for _ in states]
    prev = (-1, -1, -1)
    for k, arc in enumerate(arcs):
        si, ei, ti = arc
        # sorted, so a state's arcs with one event sit side by side
        if si == prev[0] and ei == prev[1]:
            raise NondeterministicEdge(
                states[si], events[ei], (states[prev[2]], states[ti])
            )
        prev = arc
        event_arcs[ei].append(k)
        state_arcs[si].append(k)
        if ti != si:
            state_arcs[ti].append(k)

    # a state's arc list holds its incoming arcs too; their target is the
    # state itself, already seen
    start = sidx[initial]
    seen = bytearray(len(states))
    seen[start] = 1
    frontier = [start]
    while frontier:
        for k in state_arcs[frontier.pop()]:
            ti = arcs[k][2]
            if not seen[ti]:
                seen[ti] = 1
                frontier.append(ti)
    if not all(seen):
        raise UnreachableState(s for s, hit in zip(states, seen) if not hit)

    loop_free = all(si != ti for si, _, ti in arcs)
    return TransitionSystem(
        states=states,
        events=events,
        edges=edge_tuple,
        initial=initial,
        loop_free=loop_free,
        sidx=sidx,
        eidx=eidx,
        arcs=arcs,
        event_arcs=event_arcs,
        state_arcs=state_arcs,
    )


# ---------------------------------------------------------------------------
# regions


class PackedMap(Mapping):
    """A read-only mapping packed over a shared name index: the value of
    key k is byte ``index[k]`` of the ``bytes`` object ``row``.

    ``index`` maps its keys, in order, to 0, 1, 2, ...; a key whose
    position lies past the end of the row has no value.  The regions the
    search builds pack their support over the system's ``sidx``, so one
    index serves every region of a system and each support costs a byte
    per state.  ``values()`` and ``items()`` iterate the row in C.  The map
    equals, and prints as, the dict of its items; ``dict(m)`` is an
    editable copy.
    """

    __slots__ = ("index", "row")

    def __init__(self, index: Mapping[str, int], row: bytes) -> None:
        self.index = index
        self.row = row

    def _values(self) -> Iterator:
        return iter(self.row[: len(self.index)])

    def __getitem__(self, key: str):
        try:
            return self.row[self.index[key]]
        except IndexError:
            raise KeyError(key) from None

    def __iter__(self) -> Iterator[str]:
        return islice(self.index, len(self.row))

    def __len__(self) -> int:
        return min(len(self.index), len(self.row))

    def values(self) -> ValuesView:
        return _PackedValues(self)

    def items(self) -> ItemsView:
        return _PackedItems(self)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


#: The value of each byte of a packed signature: the interaction whose
#: type-mask bit it is, None for a byte that is no interaction's bit.  A
#: dict's ``__getitem__`` maps a row faster than a tuple's.
_BY_BIT = dict.fromkeys(range(256))
_BY_BIT.update((i.bit, i) for i in INTERACTION_ORDER)


class PackedSignature(PackedMap):
    """A :class:`PackedMap` of interactions, as the search packs a signature
    over the system's ``eidx``: each byte is an interaction's type-mask
    bit."""

    __slots__ = ()

    def _values(self) -> Iterator:
        return map(_BY_BIT.__getitem__, super()._values())

    def __getitem__(self, key: str):
        return _BY_BIT[super().__getitem__(key)]


class _PackedValues(ValuesView):
    __slots__ = ()

    def __iter__(self) -> Iterator:
        return self._mapping._values()


class _PackedItems(ItemsView):
    __slots__ = ()

    def __iter__(self) -> Iterator[tuple]:
        return zip(self._mapping.index, self._mapping._values())


class Region(NamedTuple):
    """A support (state -> {0,1}) plus a signature (event -> interaction).

    A region of a system maps every edge s --e--> s' to a defined step
    sig(e): sup(s) -> sup(s') of the interaction table; :func:`is_region`
    checks exactly that.  Either part may be any mapping.  The search
    returns read-only ones, a :class:`PackedMap` over the system's ``sidx``
    and a :class:`PackedSignature` over its ``eidx``; ``dict(region.support)``
    is an editable copy.
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
        """Hashable canonical form (sorted items), for comparing regions."""
        return (
            tuple(sorted(self.support.items())),
            tuple(sorted((e, i.value) for e, i in self.signature.items())),
        )


#: The bytes a packed support and a packed signature may hold.
_BITS = bytes(range(2))
_INTERACTION_BITS = bytes(i.bit for i in INTERACTION_ORDER)


def _packed_rows(
    region: Region, sidx: Mapping[str, int], eidx: Mapping[str, int]
) -> tuple[bytes, bytes] | None:
    """The support and signature rows of ``region`` if it is packed as the
    search packs one, None otherwise: a :class:`PackedMap` support over
    ``sidx`` and a :class:`PackedSignature` over ``eidx``, those very
    objects, a byte per name, the support's bytes 0 or 1 and the
    signature's each an interaction's type-mask bit."""
    support, signature = region
    if (
        type(support) is PackedMap
        and type(signature) is PackedSignature
        and support.index is sidx
        and signature.index is eidx
        and len(support.row) == len(sidx)
        and len(signature.row) == len(eidx)
        and not support.row.translate(None, _BITS)
        and not signature.row.translate(None, _INTERACTION_BITS)
    ):
        return support.row, signature.row
    return None


#: The only value types a well-formed support and signature hold.
_INT = {int}
_INTERACTION = {Interaction}


def _values_at(mapping: Mapping, keys: tuple[str, ...]) -> list:
    """The values of ``mapping`` at ``keys``, None where it has none.  A
    mapping keyed in the order of ``keys``, as every region built here is,
    is read without a lookup per key; any other is read with ``get``, since
    indexing a mapping with a default fills in a gap."""
    if tuple(mapping) == keys:
        return list(mapping.values())
    return list(map(mapping.get, keys))


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
    states = ts.states
    bits = _values_at(sup, states)
    acts = _values_at(sig, ts.events)
    if not (
        set(map(type, bits)) <= _INT
        and bits.count(0) + bits.count(1) == len(bits)
        and set(map(type, acts)) <= _INTERACTION
    ):
        missing_s = [s for s in states if s not in sup]
        missing_e = [e for e in ts.events if e not in sig]
        if missing_s or missing_e:
            raise PartialAssignment(
                f"missing support for {missing_s!r}, signature for {missing_e!r}"
            )
        for s, bit in zip(states, bits):
            if not _is_bit(bit):
                raise PartialAssignment(f"support of {s!r} must be 0 or 1")
        if not set(map(type, acts)) <= _INTERACTION:
            return False
    in_tau = 0
    for i in tau:
        if type(i) is Interaction:
            in_tau |= i.bit
    steps = [act.cells for act in acts if act.bit & in_tau]
    if len(steps) != len(acts):
        return False
    for si, ei, ti in ts.arcs:
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
    steps = [signature[e].pair for e in ts.events]
    bits: list[int | None] = [None] * len(ts.states)
    start = ts.sidx[ts.initial]
    bits[start] = initial_support
    frontier = [start]
    # every state is reachable, so each is valued and popped once, and each
    # edge is checked from its source against the value of its target
    while frontier:
        here = frontier.pop()
        for k in ts.state_arcs[here]:
            si, ei, ti = ts.arcs[k]
            if si != here:
                continue
            val = steps[ei][bits[si]]
            if val is None or bits[ti] not in (None, val):
                return None
            if bits[ti] is None:
                bits[ti] = val
                frontier.append(ti)
    return Region(support=dict(zip(ts.states, bits)), signature=dict(signature))


def _changing_events(ts: TransitionSystem, support: Mapping[str, int]) -> set[str]:
    """The events with an edge whose two ends get different support."""
    bits = [support[s] for s in ts.states]
    return {ts.events[ei] for si, ei, ti in ts.arcs if bits[si] != bits[ti]}


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


# ---------------------------------------------------------------------------
# separation reports


class Decision(Enum):
    HAS_SSP = "has-ssp"
    LACKS_SSP = "lacks-ssp"
    UNKNOWN = "unknown"


class _Record:
    """Equality and a ``Name(field=value, ...)`` repr over ``__slots__``, and
    no hash: what a mutable dataclass gives, for the records a sweep fills in."""

    __slots__ = ()
    __hash__ = None  # type: ignore[assignment]

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(self.__slots__, self._values())
        )
        return f"{type(self).__name__}({fields})"


class SearchStats(_Record):
    __slots__ = (
        "atoms_checked",
        "atoms_searched",
        "nodes_expanded",
        "revisions",
        "wall_ms",
        "atoms_repaired",
    )

    def __init__(
        self,
        atoms_checked: int = 0,
        atoms_searched: int = 0,
        nodes_expanded: int = 0,
        revisions: int = 0,
        wall_ms: float = 0.0,
        atoms_repaired: int = 0,
    ) -> None:
        self.atoms_checked = atoms_checked
        self.atoms_searched = atoms_searched
        self.nodes_expanded = nodes_expanded
        self.revisions = revisions
        self.wall_ms = wall_ms
        #: of the atoms searched, those whose region a repair found
        self.atoms_repaired = atoms_repaired


class SeparationReport(_Record):
    __slots__ = ("decision", "witness_atom", "regions", "stats")

    def __init__(
        self,
        decision: Decision,
        witness_atom: tuple[str, str] | None,
        regions: list[Region] | None = None,
        stats: SearchStats | None = None,
    ) -> None:
        self.decision = decision
        self.witness_atom = witness_atom
        #: a fresh list and fresh stats per report unless given
        self.regions = [] if regions is None else regions
        self.stats = SearchStats() if stats is None else stats
