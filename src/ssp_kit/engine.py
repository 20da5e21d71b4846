"""Deciding the state separation property.

``solve_atom`` looks for a region separating one pair of states by
backtracking over event signatures with constraint propagation: event
domains are pruned per edge, and state supports live in a union-find with
parity so equalities/disequalities between supports propagate before any
value is known.

"No region splits s and t" is an equivalence relation, and a system has
the SSP iff its partition is discrete.  ``decide_ssp`` refines it by one
search per class it cannot yet split, the oracle ``brute_force_decide`` by
every feasible support, and ``fast_path_swap_core`` (swap plus inp/out)
computes it as a two-colouring.  All three name as witness the first atom
in sorted order whose states share a class.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations, product
from typing import Iterable, Mapping, Sequence

from .core import (
    INTERACTION_ORDER,
    STEP_CELLS,
    InternalCheckFailed,
    Interaction,
    Region,
    SspKitError,
    TransitionSystem,
    is_region,
    type_mask,
)

DEFAULT_MAX_NODES = 10_000_000

#: The most states the exhaustive oracles enumerate the supports of.
ORACLE_CAP = 16


class OracleCapExceeded(SspKitError):
    """The exhaustive enumerator refuses systems above its state cap."""


class WrongTypeFamily(SspKitError):
    """A specialized decision procedure was handed a type it does not cover."""


class InvalidAtom(SspKitError):
    """An atom must name two distinct states of the system."""


class Decision(Enum):
    HAS_SSP = "has-ssp"
    LACKS_SSP = "lacks-ssp"
    UNKNOWN = "unknown"


class AtomStatus(Enum):
    SOLVED = "solved"
    UNSOLVABLE = "unsolvable"
    EXHAUSTED = "exhausted"


@dataclass(frozen=True)
class AtomVerdict:
    status: AtomStatus
    region: Region | None
    nodes: int
    #: edges revised by propagation, including the descents this search
    #: started and the steps it advanced them
    revisions: int = 0


@dataclass
class SearchStats:
    atoms_checked: int = 0
    atoms_searched: int = 0
    nodes_expanded: int = 0
    revisions: int = 0
    wall_ms: float = 0.0


@dataclass
class SeparationReport:
    decision: Decision
    witness_atom: tuple[str, str] | None
    regions: list[Region] = field(default_factory=list)
    stats: SearchStats = field(default_factory=SearchStats)


# ---------------------------------------------------------------------------
# the backtracking search

# Propagation tables.  The support pair (x, y) of an edge, source value x
# and target value y, is one of four cells, bit 2x+y; interaction bit b of a
# type mask can carry the edge iff one of its ``STEP_CELLS`` is allowed.

#: The cells with a known source value, target value or parity, by value.
_SOURCE_IS = (0b0011, 0b1100)
_TARGET_IS = (0b0101, 0b1010)
_PARITY_IS = (0b1001, 0b0110)

_CELLS = [STEP_CELLS[i] for i in INTERACTION_ORDER]
#: _STEPS[mask]: the cells some interaction in ``mask`` steps through.
_STEPS = [0]
for _cells in _CELLS:  # the masks with the next bit set add its cells
    _STEPS += [steps | _cells for steps in _STEPS]
#: _KEEPS[cells]: the interactions with a step in ``cells``.
_KEEPS = [
    sum(1 << b for b, c in enumerate(_CELLS) if c & cells) for cells in range(16)
]
#: _PROJ[cells]: the source values, target values and parities source^target
#: of ``cells``, each as a 2-bit set.
_PROJ = [
    tuple(
        sum(1 << v for v in (0, 1) if cells & is_value[v])
        for is_value in (_SOURCE_IS, _TARGET_IS, _PARITY_IS)
    )
    for cells in range(16)
]


#: The search state: the union-find's root and parity of every node, its
#: class member lists, the event domains and the trail.
_State = tuple[list[int], list[int], list[list[int]], list[int], list[tuple]]
#: A search frame: the position in ``order`` of the event a node branches
#: on, the interaction bits not yet tried there, and the node's trail mark.
_Frame = tuple[int, int, int]
#: A type's descent from one initial value, kept per type mask and initial
#: value in :attr:`SystemIndex.descents`, None where the value leaves no
#: region: the depth-first search without any atom, from the fixpoint of
#: that value alone toward the type's first region.  It is the state of the
#: node it stopped at and the frames of that node's ancestors, and a search
#: starts it when first needed and advances it in place.
_Descent = tuple[_State, list[_Frame]]


class _Exhausted(Exception):
    pass


class _AtomSearch:
    """One search for a region separating an atom under one type.

    States are variables over {0,1} kept in a parity union-find against a
    virtual constant-0 node; events are variables over subsets of the type,
    kept as bitmasks.  Arc consistency per edge plus chronological
    backtracking over event signatures.  Propagating an edge reads the step
    tables above: the cells its known values and parity allow select the
    interactions kept and the values and parity forced.

    The union-find is flat: ``parent[x]`` is the root of x's class and
    ``par[x]`` the parity of x to it, so a find is two list reads, and
    ``members[r]`` lists the class of each root r.  A union rewrites both
    arrays for the states of the class it moves, and its undo rewrites
    them back.  A state in the zero node's class has its value as parity.

    Propagation is a closure: when it succeeds, revising any edge again
    changes nothing.  Its fixpoint is therefore the same whatever the order
    of the unions and revisions that reached it, and so is everything the
    search derives from it.  The search branches on the first event in
    ``order`` that is not yet a singleton and tries its bits in ascending
    order, so its leaves, the regions, come in lexicographic order of
    their signatures, and it returns the first region with the atom.

    Every search under a type therefore shares the type's descent (see
    :data:`_Descent`).  A search for the atom (a, b) advances it, counting
    the nodes it enters, until it reaches a leaf or a node where a and b
    are forced equal.  A leaf that is not such a node separates the atom
    and is its answer.  Otherwise no leaf below that node separates the
    atom, and no leaf left of the descent's path is a region at all.  So
    the search backtracks from there, on a copy of the descent, adding the
    atom's disequality to each child it tries: the children it propagates
    reach the fixpoints a search from the root with the atom reaches, so
    the first region found is the one that search finds.
    """

    def __init__(
        self,
        ts: TransitionSystem,
        mask: int,
        max_nodes: int | None,
    ):
        index = ts.index()
        self.ts = ts
        self.index = index
        self.n = len(ts.states)
        self.zero = self.n  # virtual node carrying the constant 0
        self.sidx = index.sidx
        self.edges = index.edges
        self.event_edges = index.event_edges
        self.state_edges = index.state_edges
        self.order = index.order
        self.full_mask = mask
        self.max_nodes = max_nodes
        self.expanded = 0
        self.revisions = 0
        self.queue: list[int] = []
        self.inq = bytearray(len(self.edges))

    # -- union-find with parity, trail-based undo

    def _reset(self) -> None:
        n1 = self.n + 1
        self.parent = list(range(n1))
        self.par = [0] * n1
        self.members: list[list[int]] = [[k] for k in range(n1)]
        self.dom = [self.full_mask] * len(self.event_edges)
        self.trail: list[tuple] = []

    def _bind(self, state: _State) -> None:
        self.parent, self.par, self.members, self.dom, self.trail = state

    def _detach(self) -> None:
        """Go on with a copy of the state, leaving a stored descent as is."""
        self._bind((
            self.parent[:],
            self.par[:],
            [m[:] for m in self.members],
            self.dom[:],
            self.trail[:],
        ))

    def _union(self, x: int, y: int, parity: int) -> bool:
        parent = self.parent
        par = self.par
        rx = parent[x]
        ry = parent[y]
        want = parity ^ par[x] ^ par[y]
        if rx == ry:
            return want == 0
        members = self.members
        zero = self.zero
        # ry's class moves under rx.  The zero node stays a root, so the
        # moved class is always the one whose states learn something; other
        # classes unite by size, so a state moves at most log2(n) times
        # before it moves into the zero node's class.
        if ry == zero or (rx != zero and len(members[rx]) < len(members[ry])):
            rx, ry = ry, rx
        moved = members[ry]
        inq = self.inq
        queue = self.queue
        state_edges = self.state_edges
        if rx == zero:
            # every moved state learns its value
            for member in moved:
                for k in state_edges[member]:
                    if not inq[k]:
                        inq[k] = 1
                        queue.append(k)
        else:
            # only the pairs across the two classes learn a parity, so only
            # the edges into the surviving class can be revised further;
            # loops and edges within the class or to a third one cannot
            edges = self.edges
            for member in moved:
                for k in state_edges[member]:
                    if inq[k]:
                        continue
                    si, _, other = edges[k]
                    if other == member:
                        other = si
                    if parent[other] == rx:
                        inq[k] = 1
                        queue.append(k)
        # each moved parity flips by ``want``: ry's, 0 before, becomes it,
        # which is where _rollback reads it back
        for member in moved:
            parent[member] = rx
            par[member] ^= want
        self.trail.append(("uf", ry, rx))
        members[rx].extend(moved)
        return True

    def _set_dom(self, ei: int, mask: int) -> None:
        self.trail.append(("dom", ei, self.dom[ei]))
        self.dom[ei] = mask

    def _rollback(self, mark: int) -> None:
        trail = self.trail
        parent = self.parent
        par = self.par
        members = self.members
        dom = self.dom
        while len(trail) > mark:
            entry = trail.pop()
            if entry[0] == "dom":
                _, ei, old = entry
                dom[ei] = old
            else:
                _, ry, rx = entry
                moved = members[ry]
                want = par[ry]
                for member in moved:
                    parent[member] = ry
                    par[member] ^= want
                del members[rx][-len(moved):]

    # -- propagation

    def _enqueue_all(self, edges: Iterable[int]) -> None:
        inq = self.inq
        queue = self.queue
        for k in edges:
            if not inq[k]:
                inq[k] = 1
                queue.append(k)

    def _propagate(self) -> bool:
        """Revise the queued edges until none is left; False, with the
        queue drained, when an event's domain empties or a union fails.

        An edge stays marked as queued until its revision ends, so neither
        its domain change nor its unions queue it again: every cell it kept
        has the values and parity it forces, so revising it again after
        them would change nothing."""
        queue = self.queue
        inq = self.inq
        edges = self.edges
        event_edges = self.event_edges
        parent = self.parent
        par = self.par
        dom = self.dom
        trail = self.trail
        union = self._union
        zero = self.zero
        popped = 0
        while queue:
            k = queue.pop()
            popped += 1
            si, ei, ti = edges[k]
            ra = parent[si]
            rb = parent[ti]
            pa = par[si]
            pb = par[ti]
            allowed = (
                (_SOURCE_IS[pa] if ra == zero else 15)
                & (_TARGET_IS[pb] if rb == zero else 15)
                & (_PARITY_IS[pa ^ pb] if ra == rb else 15)
            )
            mask = dom[ei]
            new_mask = mask & _KEEPS[allowed]
            if new_mask == 0:
                break
            if new_mask != mask:
                trail.append(("dom", ei, mask))
                dom[ei] = new_mask
                for k2 in event_edges[ei]:
                    if not inq[k2]:
                        inq[k2] = 1
                        queue.append(k2)
            # the source values, target values and parities still feasible
            xs, ys, ps = _PROJ[_STEPS[new_mask] & allowed]
            if ra != zero and xs in (1, 2) and not union(si, zero, xs >> 1):
                break
            if rb != zero and ys in (1, 2) and not union(ti, zero, ys >> 1):
                break
            if ra != rb and ps in (1, 2) and not union(si, ti, ps >> 1):
                break
            inq[k] = 0
        else:
            self.revisions += popped
            return True
        self.revisions += popped
        inq[k] = 0
        for k in queue:
            inq[k] = 0
        queue.clear()
        return False

    def _root(self, init_value: int) -> _Descent | None:
        """A descent at the fixpoint of the initial state's value alone, or
        None.  Its stack starts with a frame with no bits to try, so the
        descent has run out of regions once that frame is popped."""
        self._reset()
        self._union(self.sidx[self.ts.initial], self.zero, init_value)
        self._enqueue_all(range(len(self.edges)))
        if not self._propagate():
            return None
        return (self.parent, self.par, self.members, self.dom, []), [(0, 0, 0)]

    # -- search

    def _build_region(self) -> Region:
        states = self.ts.states
        parent = self.parent
        zero = self.zero
        if parent.count(zero) != len(parent):
            # cannot happen: the initial state is pinned and every other
            # state has an incoming edge whose singleton interaction forces
            # its value or its parity to the source
            name = next(s for s, r in zip(states, parent) if r != zero)
            raise InternalCheckFailed(
                f"state {name!r} left unvalued at a search leaf"
            )
        # the zero node is every state's root, so a state's parity is its value
        support = dict(zip(states, self.par))
        signature = {
            name: INTERACTION_ORDER[mask.bit_length() - 1]
            for name, mask in zip(self.ts.events, self.dom)
        }
        return Region(support=support, signature=signature)

    def _expand(
        self, stack: list[_Frame], pair: tuple[int, int], descent: bool
    ) -> Region | None:
        """Depth-first search from the current, propagated node: the first
        leaf's region, or None once the stack's first frame is popped.

        The stack holds one frame per open node and starts with one that
        has no bits to try: its position is where the current node looks
        for its branch event, its mark where the search rolls back to when
        it gives up.  Children are tried in ascending bit order, and the
        trail is rolled back to the mark before each child and before the
        frame is dropped, so depth costs heap, not Python frames.  Every
        event before a node's position is a singleton there and stays one
        below it, so a child looks for its branch event from its parent's
        position on.

        A ``descent`` enters the current node first, and returns None at
        the first node where the two state ids ``pair`` are forced equal,
        before entering it, leaving that node's state and its ancestors'
        frames as they are.  Otherwise the search is for the atom ``pair``:
        it starts by backtracking into the stack's top frame, and unites
        the pair with parity 1 before it propagates each child.
        """
        order = self.order
        dom = self.dom
        parent = self.parent
        par = self.par
        a, b = pair
        enter = descent
        while True:
            if enter:
                # entering a node; an atom search's nodes keep a != b
                if parent[a] == parent[b] and par[a] == par[b]:
                    return None
                if self.max_nodes is not None and self.expanded >= self.max_nodes:
                    raise _Exhausted
                self.expanded += 1
                pos = stack[-1][0]
                while pos < len(order) and not dom[order[pos]] & (dom[order[pos]] - 1):
                    pos += 1
                if pos == len(order):
                    return self._build_region()
                stack.append((pos, dom[order[pos]], len(self.trail)))
            enter = True
            # find the next child that propagates, backtracking as needed
            while stack:
                pos, untried, mark = stack.pop()
                self._rollback(mark)
                if not untried or not (descent or self._union(a, b, 1)):
                    continue
                low = untried & -untried
                stack.append((pos, untried ^ low, mark))
                ei = order[pos]
                self._set_dom(ei, low)
                self._enqueue_all(self.event_edges[ei])
                if self._propagate():
                    break
            else:
                return None

    def run(self, atom: tuple[str, str]) -> tuple[Region | None, bool]:
        """Returns (region-or-None, exhausted-flag).  Under each initial
        value, the search advances the type's descent, then searches for
        the atom from where it stopped, on a copy."""
        if self.max_nodes is not None and self.max_nodes <= 0:
            return None, True
        descents = self.index.descents.setdefault(self.full_mask, {})
        pair = (self.sidx[atom[0]], self.sidx[atom[1]])
        try:
            for init_value in (0, 1):
                if init_value not in descents:
                    descents[init_value] = self._root(init_value)
                if descents[init_value] is None:
                    continue
                state, stack = descents[init_value]
                self._bind(state)
                try:
                    region = self._expand(stack, pair, True)
                except _Exhausted:
                    raise  # raised on entering a node, so the descent is whole
                except BaseException:
                    del descents[init_value]  # it may have stopped mid-propagation
                    raise
                if region is None and not stack:
                    descents[init_value] = None  # no region under this value
                elif region is None:
                    self._detach()  # the descent stays where it stopped
                    region = self._expand(stack[:], pair, False)
                if region is not None:
                    return region, False
        except _Exhausted:
            return None, True
        return None, False


def solve_atom(
    ts: TransitionSystem,
    tau: frozenset[Interaction],
    atom: tuple[str, str],
    budget: int | None = DEFAULT_MAX_NODES,
) -> AtomVerdict:
    """Search for a tau-region separating ``atom``.

    ``budget`` caps the search nodes expanded; None means unlimited.
    Returns SOLVED with a validated region, UNSOLVABLE after exhausting the
    search space, or EXHAUSTED when the node budget ran out first; ``nodes``
    reports expansions spent either way.  A search resumes the type's
    descents kept with the system (see ``SystemIndex.descents``), starting
    the ones no earlier search on the system did, and advances them as far
    as its atom needs, then backtracks from there with the atom added; the
    nodes and revisions that costs count here and against ``budget``.  So
    the status and region depend only on the system, type and atom, while
    ``nodes`` and ``revisions`` also depend on the searches run on the
    system before.
    """
    a, b = atom
    if a == b or a not in ts.states or b not in ts.states:
        raise InvalidAtom(f"atom must be two distinct states: {atom!r}")
    search = _AtomSearch(ts, type_mask(tau), budget)
    region, exhausted = search.run(atom)
    if region is not None:
        if not is_region(ts, tau, region) or not region.solves(atom):
            raise InternalCheckFailed("search produced an invalid region")
        status = AtomStatus.SOLVED
    elif exhausted:
        status = AtomStatus.EXHAUSTED
    else:
        status = AtomStatus.UNSOLVABLE
    return AtomVerdict(status, region, search.expanded, search.revisions)


def _refine(cls: list[int], bits: Iterable[int]) -> list[int]:
    """Split the classes ``cls`` by the support ``bits``, in state order.
    Ids count up by first appearance: a support splitting none returns cls."""
    ids: dict[tuple[int, int], int] = {}
    return [ids.setdefault(key, len(ids)) for key in zip(cls, bits)]


def _partition_report(ts: TransitionSystem, cls: list[int]) -> SeparationReport:
    """The decision of a final partition: its first same-class atom in
    sorted order is the witness, and the atoms up to it are checked."""
    report = SeparationReport(decision=Decision.HAS_SSP, witness_atom=None)
    states = ts.states
    for i, j in combinations(range(len(states)), 2):
        report.stats.atoms_checked += 1
        if cls[i] == cls[j]:
            report.decision = Decision.LACKS_SSP
            report.witness_atom = (states[i], states[j])
            break
    return report


def decide_ssp(
    ts: TransitionSystem,
    tau: frozenset[Interaction],
    budget: int | None = DEFAULT_MAX_NODES,
) -> SeparationReport:
    """Decide whether every pair of distinct states is separable.

    Atoms are visited in sorted order.  An atom that a region found earlier
    already separates needs no search; any other atom gets a ``solve_atom``
    search under the node cap ``budget`` (None: unlimited), and the region
    it finds joins ``report.regions``.  The searches share the type's
    descents toward its first region, so each one repeats little of what
    the searches before it did; ``stats`` counts the nodes and revisions
    of each search, descent steps included.  The sweep stops at the first
    provably unsolvable atom, the witness.  If a search ran out of budget
    and no atom was unsolvable, the decision is UNKNOWN and no regions are
    reported.
    """
    t0 = time.perf_counter()
    report = SeparationReport(decision=Decision.HAS_SSP, witness_atom=None)
    stats = report.stats
    exhausted_any = False
    states = ts.states
    # two states share a class iff every region found so far gives them the
    # same support, i.e. iff no found region separates them
    cls = [0] * len(states)
    for i, j in combinations(range(len(states)), 2):
        stats.atoms_checked += 1
        if cls[i] != cls[j]:
            continue
        atom = (states[i], states[j])
        verdict = solve_atom(ts, tau, atom, budget)
        stats.atoms_searched += 1
        stats.nodes_expanded += verdict.nodes
        stats.revisions += verdict.revisions
        if verdict.status is AtomStatus.SOLVED:
            report.regions.append(verdict.region)
            cls = _refine(cls, map(verdict.region.support.__getitem__, states))
        elif verdict.status is AtomStatus.EXHAUSTED:
            exhausted_any = True
        else:
            report.decision = Decision.LACKS_SSP
            report.witness_atom = atom
            break
    if report.decision is not Decision.LACKS_SSP and exhausted_any:
        report.decision = Decision.UNKNOWN
        report.regions.clear()
    stats.wall_ms = (time.perf_counter() - t0) * 1000.0
    return report


# ---------------------------------------------------------------------------
# exhaustive oracles for small systems


def _event_pairs(ts: TransitionSystem) -> list[list[tuple[str, str]]]:
    """Per event, the (source, target) names of its edges."""
    index = ts.index()
    states = ts.states
    return [
        [(states[index.edges[k][0]], states[index.edges[k][2]]) for k in ks]
        for ks in index.event_edges
    ]


def _carriers(
    pairs: list[list[tuple[str, str]]],
    tau: frozenset[Interaction],
    bit_of: Mapping[str, int],
) -> list[list[Interaction]] | None:
    """Per event, the members of ``tau`` carrying its edge ``pairs`` under
    ``bit_of``; None at the first event with none.  No events give ``[]``, not None."""
    per_event = []
    for edges in pairs:
        choices = [
            i for i in INTERACTION_ORDER
            if i in tau and all(i.apply(bit_of[s]) == bit_of[t] for s, t in edges)
        ]
        if not choices:
            return None
        per_event.append(choices)
    return per_event


def _support_masks(ts: TransitionSystem) -> Iterable[dict[str, int]]:
    n = len(ts.states)
    if n > ORACLE_CAP:
        raise OracleCapExceeded(f"{n} states exceeds the oracle cap of {ORACLE_CAP}")
    for mask in range(1 << n):
        yield {s: (mask >> k) & 1 for k, s in enumerate(ts.states)}


def brute_force_regions(
    ts: TransitionSystem,
    tau: frozenset[Interaction],
) -> list[Region]:
    """Every tau-region of ``ts``, by brute enumeration; small systems only."""
    regions: list[Region] = []
    pairs = _event_pairs(ts)
    for bit_of in _support_masks(ts):
        per_event = _carriers(pairs, tau, bit_of)
        if per_event is None:
            continue
        for combo in product(*per_event):
            regions.append(Region(dict(bit_of), dict(zip(ts.events, combo))))
    return regions


def brute_force_supports(
    ts: TransitionSystem,
    tau: frozenset[Interaction],
) -> set[tuple[int, ...]]:
    """Supports (as bit tuples over sorted states) admitting a tau-region."""
    found: set[tuple[int, ...]] = set()
    pairs = _event_pairs(ts)
    for bit_of in _support_masks(ts):
        if _carriers(pairs, tau, bit_of) is not None:
            found.add(tuple(bit_of[s] for s in ts.states))
    return found


def brute_force_decide(
    ts: TransitionSystem,
    tau: frozenset[Interaction],
) -> SeparationReport:
    """Oracle twin of :func:`decide_ssp` by exhaustive support enumeration.

    Supports are scanned in mask order.  One that splits a class of the
    partition so far and admits a region refines it, and its region, each
    event on its first carrier, joins ``report.regions``.  The scan stops
    once every class is a singleton; ``nodes_expanded`` counts the supports
    scanned.
    """
    t0 = time.perf_counter()
    n = len(ts.states)
    cls = [0] * n
    regions: list[Region] = []
    pairs = _event_pairs(ts)
    scanned = 0
    for bit_of in _support_masks(ts):
        scanned += 1
        if len(set(cls)) == n:
            break
        refined = _refine(cls, bit_of.values())
        if refined == cls:
            continue
        per_event = _carriers(pairs, tau, bit_of)
        if per_event is None:
            continue
        cls = refined
        signature = {e: c[0] for e, c in zip(ts.events, per_event)}
        regions.append(Region(bit_of, signature))
    report = _partition_report(ts, cls)
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
    otherwise the two colours are the classes.  The witness is the one
    :func:`decide_ssp` and the oracle name, and a has-ssp report carries the
    colouring as its region when there is one.
    """
    family = {Interaction.SWAP, Interaction.INP, Interaction.OUT}
    if Interaction.SWAP not in tau or not tau <= family:
        raise WrongTypeFamily(
            "fast path covers exactly the types between {swap} and {swap,inp,out}"
        )
    index = ts.index()
    colour = [0] + [-1] * (len(ts.states) - 1)
    stack = [0]
    while stack:
        s = stack.pop()
        for k in index.state_edges[s]:
            si, _, ti = index.edges[k]
            t = ti if si == s else si
            if colour[t] < 0:
                colour[t] = 1 - colour[s]
                stack.append(t)
            elif colour[t] == colour[s]:
                return _partition_report(ts, [0] * len(ts.states))
    report = _partition_report(ts, colour)
    if report.decision is Decision.HAS_SSP:
        swap = dict.fromkeys(ts.events, Interaction.SWAP)
        report.regions.append(Region(dict(zip(ts.states, colour)), swap))
    return report


# ---------------------------------------------------------------------------
# embeddings


@dataclass(frozen=True)
class EmbeddingCertificate:
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
