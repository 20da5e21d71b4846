"""Deciding the state separation property.

``solve_atom`` looks for a region separating one pair of states by
backtracking over event signatures with constraint propagation: event
domains are pruned per edge, and state supports live in a union-find with
parity so equalities/disequalities between supports propagate before any
value is known.  It checks the region it returns with ``is_region``;
``decide_ssp`` runs the same search per atom, after first trying to repair
its last region in a small ball around the atom, then in a larger one, and
checks all the regions of its sweep at once, in one pass over the edges,
bit-parallel across regions.

"No region splits s and t" is an equivalence relation, and a system has
the SSP iff its partition is discrete.  ``decide_ssp`` refines it by one
search per atom no region found so far splits, and names as witness the
first atom in sorted order that no support splits, found by one scan,
:func:`_unseparated`.  The checkers it is tested against live in
:mod:`ssp_kit.oracle`, which shares neither the search nor this scan;
their names are importable from here as well.
"""

from __future__ import annotations

import time
from enum import Enum
from functools import cache
from typing import Iterable, Iterator, NamedTuple, Sequence

from .core import (
    INTERACTION_ORDER,
    Decision,
    InternalCheckFailed,
    Interaction,
    PackedMap,
    PackedSignature,
    Region,
    SearchStats,  # noqa: F401  (still importable from here)
    SeparationReport,
    SspKitError,
    TransitionSystem,
    _packed_rows,
    is_region,
    type_mask,
)
from .oracle import (  # noqa: F401  (the checkers, still importable from here)
    ORACLE_CAP, EmbeddingCertificate, OracleCapExceeded, WrongTypeFamily,
    brute_force_decide, brute_force_regions, brute_force_supports,
    embedding_certificate, fast_path_swap_core,
)

DEFAULT_MAX_NODES = 10_000_000


class InvalidAtom(SspKitError):
    """An atom must name two distinct states of the system."""


class AtomStatus(Enum):
    SOLVED = "solved"
    UNSOLVABLE = "unsolvable"
    EXHAUSTED = "exhausted"


class AtomVerdict(NamedTuple):
    status: AtomStatus
    region: Region | None
    nodes: int
    #: edges revised by propagation, including the descents this atom's
    #: search started and the steps it advanced them
    revisions: int = 0
    #: whether the region is a repair of the sweep's last region
    repaired: bool = False


# ---------------------------------------------------------------------------
# the backtracking search

# Propagation tables.  The support pair (x, y) of an edge, source value x
# and target value y, is one of four cells, bit 2x+y; interaction bit b of a
# type mask can carry the edge iff one of its step ``cells`` is allowed.

#: The cells with a known source value, target value or parity, by value.
_SOURCE_IS = (0b0011, 0b1100)
_TARGET_IS = (0b0101, 0b1010)
_PARITY_IS = (0b1001, 0b0110)

_CELLS = [i.cells for i in INTERACTION_ORDER]
#: _STEPS[mask]: the cells some interaction in ``mask`` steps through.
_STEPS = [0]
for _cells in _CELLS:  # the masks with the next bit set add its cells
    _STEPS += [steps | _cells for steps in _STEPS]
#: _COVER[mask]: the cells every interaction in ``mask`` steps through.
_COVER = [15]
for _cells in _CELLS:
    _COVER += [cover & _cells for cover in _COVER]
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
#: _TEACHES[mask]: bit 2*end + v, end 0 the source and 1 the target, is set
#: iff revising an edge whose event's domain is ``mask``, with that end of
#: value v and the other end in an unvalued class, empties or shrinks the
#: domain or forces the other end's value.
_TEACHES = [0] * 256
for _mask in range(256):
    for _end, _is_value in enumerate((_SOURCE_IS, _TARGET_IS)):
        for _v in (0, 1):
            _kept = _mask & _KEEPS[_is_value[_v]]
            _other = _PROJ[_STEPS[_kept] & _is_value[_v]][1 - _end]
            if not _kept or _kept != _mask or _other in (1, 2):
                _TEACHES[_mask] |= 1 << (2 * _end + _v)
#: The bits of nop and swap, the two total interactions.  A node tries
#: them first, nop before swap, and then the others in ascending order:
#: under the ascending order, types holding res or set next to swap sent
#: searches for separable atoms deep under res or set, past budgets of
#: 300,000 nodes that this order does not need.
_FIRST = Interaction.NOP.bit | Interaction.SWAP.bit

#: A repair frees the states within each of these many hops of the atom's
#: states in turn, in ascending order, until a try finds a region.
_REPAIR_RADII = (1, 4)
#: It tries a ball only while it is at most this share of the system's states.
_REPAIR_SHARE = 1 / 8
#: The nodes each try may enter; then the next try, or the full search.
_REPAIR_NODES = 16


#: The search state, ``(parent, par, members, bound, own, dom, trail)``:
#: the union-find's root and parity of every node, its class member lists
#: and boundaries, the flags of the roots whose members and boundary the
#: state owns, the event domains and the trail.  A state shares what it
#: does not own, with the system or with the descent it was copied from: a
#: boundary is the system's ``state_arcs`` list until it first changes, and
#: then an edge-keyed dict, so an edge leaves it in one step; a dict's
#: order steers only the order edges are queued in.  It is the one form the
#: search holds its state in, in use, in a descent and in a checkpoint
#: alike, so storing it is a reference and resuming from it an assignment.
#: It is a plain tuple: each method unpacks the fields it reads once per
#: call, and CPython unpacks an exact tuple in a fast path that a
#: NamedTuple, a tuple subclass, misses; one made the 753-state sweep
#: about 3.5% slower.
_State = tuple[
    list[int],
    list[int],
    list[list[int]],
    list[list[int] | dict[int, None]],
    bytearray,
    list[int],
    list[tuple],
]
#: A search frame: the position in ``order`` of the event a node branches
#: on, the interaction bits not yet tried there, and the node's trail mark.
_Frame = tuple[int, int, int]
#: A checkpoint of a descent: the state of a node on its path, as it was on
#: entering the node, and the node's stack length, so the descent's frames
#: up to it are those of the node's ancestors.
_Checkpoint = tuple[_State, int]

#: Trail entries a descent grows by, at first, between two checkpoints.
_CHECKPOINT_SPACING = 16
#: The most checkpoints a descent holds.
_CHECKPOINT_CAP = 32


class _Descent:
    """A type's descent from one initial value, kept per initial value in
    :attr:`_AtomSearch.descents`, None where the value leaves no region:
    the depth-first search without any atom, from the fixpoint of that
    value alone toward the type's first region.

    It is the ``state`` of the node it stopped at, the search state tuple
    the search works on while it advances the descent, and the ``stack``
    of that node's ancestors' frames.  The search starts it when an atom
    first needs it and advances it in place.  An atom's search that
    backtracks from it does so on a copy that owns no class's lists, so
    the descent's lists stay as they are.

    On its way down it keeps ``checkpoints``, shallowest first, all on its
    current path: on entering a node once its trail has grown by
    ``spacing`` entries since the last checkpoint, it keeps the node's
    state tuple and goes on with a copy, so each checkpoint stays as it
    was taken.  When it holds :data:`_CHECKPOINT_CAP` of them it drops
    every other one, the last one kept, and doubles ``spacing``; when it
    pops a frame above a checkpoint, that checkpoint is dropped.
    """

    __slots__ = ("state", "stack", "checkpoints", "spacing")

    def __init__(self, state: _State, stack: list[_Frame]) -> None:
        self.state = state
        self.stack = stack
        self.checkpoints: list[_Checkpoint] = []
        self.spacing = _CHECKPOINT_SPACING

    def due(self) -> int:
        """The trail length at which the next checkpoint is due."""
        last = len(self.checkpoints[-1][0][6]) if self.checkpoints else 0
        return last + self.spacing


class _Exhausted(Exception):
    pass


class _AtomSearch:
    """The search for regions separating atoms under one type, run on one
    atom after another.

    States are variables over {0,1} kept in a parity union-find against a
    virtual constant-0 node; events are variables over subsets of the type,
    kept as bitmasks.  Arc consistency per edge plus chronological
    backtracking over event signatures.  Propagating an edge reads the step
    tables above: the cells its known values and parity allow select the
    interactions kept and the values and parity forced.

    The search works on one state, :data:`_State`, held as the tuple
    :attr:`state`: the fields below are its fields, each list changed in
    place, and going on with another state, a copy or a stored one, is
    assigning another tuple.

    The union-find is flat: ``parent[x]`` is the root of x's class and
    ``par[x]`` the parity of x to it, so a find is two list reads, and
    ``members[r]`` lists the class of each root r.  A union rewrites both
    arrays for the states of the class it moves, and its undo rewrites
    them back.  A state in the zero node's class has its value as parity.
    That class never moves, so it keeps no lists: ``members[zero]`` is
    only the zero node, and ``bound[zero]`` is empty.

    Each other root r also keeps a boundary ``bound[r]``: the ids of its
    class's edges that a merge or valuation of the class can still teach
    something.  It holds every edge to another class, the zero node's
    included, and every edge inside the class whose revision leaves in its
    event's domain some interaction that does not carry it with both steps
    of the edge's parity; it may also hold inside edges that have since
    lost that lack.  A singleton's boundary is its ``state_arcs``, and any
    other an edge-keyed dict.  Domains only shrink while a union stands,
    so an inside edge left out stays one that no revision can change, and
    a union scans only the moved class's boundary:

    - a merge of two unvalued classes adds to the surviving class's
      boundary the moved edges that still cross or still lack a step; an
      edge between the two classes, now inside, is queued, and stays on it
      only if it lacks a step of its new parity once revised;
    - a valuation queues an edge with both ends valued only if its domain
      does not carry the cell of their values, and one with an unvalued
      end only if :data:`_TEACHES` says that the new value teaches it.

    By the same rule a search's root queues, besides what its initial
    valuation queues, only edges that can teach before any value is known
    (see :meth:`_root`).  So a boundary changes only in a union and its
    undo, never in a revision, and the trail holds only domain changes and
    unions.

    A merge's undo rebuilds the surviving class's boundary from the moved
    class's, which stays as it was: it puts back the edges between the
    two classes and takes out the rest.  Undone, a boundary holds the
    edges it held, in another order, and the order steers only which edge
    is revised first.

    Propagation is a closure: when it succeeds, revising any edge again
    changes nothing.  Its fixpoint is therefore the same whatever the order
    of the unions and revisions that reached it, and so is everything the
    search derives from it.  The search branches on the first event in
    :attr:`order`, busiest first, that is not yet a singleton and tries
    its bits in one fixed order (see :data:`_FIRST`), so its leaves, the
    regions, come in lexicographic order of their signatures under it,
    and it returns the first region with the atom.

    Every atom's search under a type therefore shares the type's descent
    (see :data:`_Descent`), which this object keeps for the atoms it is
    run on.  The search for the atom (a, b) advances it, counting the
    nodes it enters, until it reaches a leaf or a node where a and b are
    forced equal.  A leaf that is not such a node separates the atom
    and is its answer.  Otherwise no leaf below that node separates the
    atom, and no leaf left of the descent's path is a region at all.  So
    the search backtracks from there, on a copy of the descent, adding the
    atom's disequality to each child it tries: the children it propagates
    reach the fixpoints a search from the root with the atom reaches, so
    the first region found is the one that search finds.  The copy is
    copy-on-write: it copies the arrays and the outer lists of members and
    boundaries, and a class's members and boundary only when a union or
    an undo first changes them there, as ``own`` records.

    The backtracking drops every frame whose node has a and b forced
    equal.  Unions only accumulate down a path, so forced equality only
    grows with depth, and those frames are the deepest ones.  So the
    search starts from the shallowest of the descent's checkpoints where
    a and b are already forced equal, with the descent's frames up to it,
    rather than from where the descent stopped: it tries the same frames
    in the same order, and skips only unwinding the trail of the ones
    below.

    A sweep hands :meth:`run` its last region as a ``base`` to repair
    first (see :meth:`_repair`): most of the next atom's region is that
    region with a few states and events around the atom changed, and the
    search finds such a region by searching only those: it branches over
    the events at the ball alone, taken in :attr:`order` by their ``rank``
    there.  It is a region and splits the atom, but not always the first
    one in the order above, which :func:`solve_atom`, running no repair,
    still returns.  A repair
    that finds nothing leaves the atom to the search above, which alone
    may call it unsolvable.

    The search keeps all its state here and only reads the system: the
    singletons' boundaries are the system's ``state_arcs``, and ``own``
    has a class's members and boundary copied before they first change.  So
    several searches, in several threads, may run on one system.  A
    search whose run raised anything but running out of budget may have
    stopped mid-propagation, and is not run again.
    """

    def __init__(
        self,
        ts: TransitionSystem,
        mask: int,
        max_nodes: int | None,
    ):
        self.ts = ts
        self.n = len(ts.states)
        self.zero = self.n  # virtual node carrying the constant 0
        self.full_mask = mask
        #: the nodes a run may enter, None given for no limit
        self.max_nodes = float("inf") if max_nodes is None else max_nodes
        self.expanded = 0
        self.revisions = 0
        #: the type's descent per initial value, started when first needed
        self.descents: dict[int, _Descent | None] = {}
        self.queue: list[int] = []
        self.inq = bytearray(len(ts.arcs))
        #: event ids in branching order: busiest first, ties by name
        self.order = sorted(
            range(len(ts.events)),
            key=lambda ei: (-len(ts.event_arcs[ei]), ts.events[ei]),
        )
        #: each event's position in ``order``
        self.rank = [0] * len(ts.events)
        for pos, ei in enumerate(self.order):
            self.rank[ei] = pos

    # -- union-find with parity, trail-based undo

    def _reset(self) -> None:
        n1 = self.n + 1
        self.state: _State = (
            list(range(n1)),
            [0] * n1,
            [[k] for k in range(n1)],
            [*self.ts.state_arcs, []],
            bytearray(n1),
            [self.full_mask] * len(self.ts.events),
            [],
        )

    def _detach(self) -> None:
        """Go on with a copy of the state, leaving a stored descent as is.
        The copy shares every class's lists until it first changes them."""
        parent, par, members, bound, own, dom, trail = self.state
        self.state = (
            parent[:],
            par[:],
            members[:],
            bound[:],
            bytearray(len(own)),
            dom[:],
            trail[:],
        )

    def _own(self, root: int) -> None:
        """Give the state its own copies of ``root``'s members and boundary,
        the boundary as a dict."""
        _, _, members, bound, own, _, _ = self.state
        own[root] = 1
        members[root] = members[root][:]
        bound[root] = dict.fromkeys(bound[root])

    def _union(self, x: int, y: int, parity: int) -> bool:
        parent, par, members, bound, own, dom, trail = self.state
        rx = parent[x]
        ry = parent[y]
        want = parity ^ par[x] ^ par[y]
        if rx == ry:
            return want == 0
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
        arcs = self.ts.arcs
        if rx == zero:
            # every moved state learns its value: a boundary edge with both
            # ends now valued learns something unless every interaction left
            # carries their cell, and one with an unvalued end if _TEACHES
            # says the new value teaches it
            for member in moved:
                parent[member] = zero
                par[member] ^= want
            for k in bound[ry]:
                if inq[k]:
                    continue
                si, ei, ti = arcs[k]
                ra = parent[si]
                if ra == parent[ti]:
                    if _COVER[dom[ei]] >> (2 * par[si] + par[ti]) & 1:
                        continue
                elif not _TEACHES[dom[ei]] >> (
                    par[si] if ra == zero else 2 + par[ti]
                ) & 1:
                    continue
                inq[k] = 1
                queue.append(k)
            trail.append(("uf", ry, zero))
            return True
        # only the pairs across the two classes learn a parity, so only the
        # edges between them, now inside rx's class, can be revised further:
        # they are queued, and stay on rx's boundary only if some
        # interaction their revision keeps lacks a step of their new
        # parity.  Of the rest, those that still cross or still lack a step
        # join it.
        if not own[rx]:
            self._own(rx)
        grown = bound[rx]
        for k in bound[ry]:
            si, ei, ti = arcs[k]
            ra = parent[si]
            rb = parent[ti]
            if ra == rb:
                cells = _PARITY_IS[par[si] ^ par[ti]]
                if _COVER[dom[ei]] & cells != cells:
                    grown[k] = None
            elif ra != rx and rb != rx:
                grown[k] = None
            else:
                cells = _PARITY_IS[par[si] ^ par[ti] ^ want]
                if _COVER[_KEEPS[cells] & dom[ei]] & cells == cells:
                    del grown[k]
                if not inq[k]:
                    inq[k] = 1
                    queue.append(k)
        # each moved parity flips by ``want``: ry's, 0 before, becomes it,
        # which is where _rollback reads it back
        for member in moved:
            parent[member] = rx
            par[member] ^= want
        members[rx].extend(moved)
        trail.append(("uf", ry, rx))
        return True

    def _set_dom(self, ei: int, mask: int) -> None:
        _, _, _, _, _, dom, trail = self.state
        trail.append(("dom", ei, dom[ei]))
        dom[ei] = mask

    def _rollback(self, mark: int) -> None:
        parent, par, members, bound, own, dom, trail = self.state
        arcs = self.ts.arcs
        zero = self.zero
        for _ in range(len(trail) - mark):
            tag, x, y = trail.pop()
            if tag == "dom":
                dom[x] = y
                continue
            ry, rx = x, y
            moved = members[ry]
            want = par[ry]
            for member in moved:
                parent[member] = ry
                par[member] ^= want
            if rx == zero:
                continue
            if not own[rx]:
                self._own(rx)
            del members[rx][-len(moved):]
            # the edges between the two classes, which the merge kept or
            # took out, are on rx's boundary again, and the rest of ry's,
            # which the merge added or left out, leave
            grown = bound[rx]
            for k in bound[ry]:
                si, _, ti = arcs[k]
                if parent[si] == rx or parent[ti] == rx:
                    grown[k] = None
                else:
                    grown.pop(k, None)

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
        queue drained, when an event's domain empties.

        An edge stays marked as queued until its revision ends, so neither
        its domain change nor its unions queue it again: every cell it kept
        has the values and parity it forces, so revising it again after
        them would change nothing.  A revision reads and writes no
        boundary: the unions it makes keep them (see :meth:`_union`)."""
        queue = self.queue
        inq = self.inq
        arcs = self.ts.arcs
        event_arcs = self.ts.event_arcs
        parent, par, _, _, _, dom, trail = self.state
        union = self._union
        zero = self.zero
        popped = 0
        while queue:
            k = queue.pop()
            popped += 1
            si, ei, ti = arcs[k]
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
                for k2 in event_arcs[ei]:
                    if not inq[k2]:
                        inq[k2] = 1
                        queue.append(k2)
            # the source values, target values and parities still feasible.
            # They are projections of one set of cells, so each union below
            # joins two classes or agrees with one made before it in this
            # revision: a failed one is a bug, not a dead branch.
            xs, ys, ps = _PROJ[_STEPS[new_mask] & allowed]
            if (
                ra != zero and xs in (1, 2) and not union(si, zero, xs >> 1)
                or rb != zero and ys in (1, 2) and not union(ti, zero, ys >> 1)
                or ra != rb and ps in (1, 2) and not union(si, ti, ps >> 1)
            ):
                raise InternalCheckFailed(
                    f"edge {k} forced a value or parity its own revision contradicts"
                )
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
        descent has run out of regions once that frame is popped.

        The valuation queues the initial state's edges that it can teach, as
        any valuation does.  Every other edge joins two unvalued singletons
        and teaches something only if it is a loop or if the type's
        interactions all agree on a source value, a target value or a
        parity, which holds for 26 of the 255 nonempty types.  Only then are
        all edges queued, as they are behind the valuation's; otherwise each
        would be revised to no effect, so the propagation is the same but
        for those revisions.  The descent's state is the fixpoint's with a
        fresh trail."""
        self._reset()
        ts = self.ts
        self._union(ts.sidx[ts.initial], self.zero, init_value)
        if not ts.loop_free or any(p in (1, 2) for p in _PROJ[_STEPS[self.full_mask]]):
            self._enqueue_all(range(len(ts.arcs)))
        if not self._propagate():
            return None
        self.state = (*self.state[:6], [])
        return _Descent(self.state, [(0, 0, 0)])

    def _checkpoint(self, descent: _Descent, depth: int) -> None:
        """Keep the state of the node being entered, whose stack length is
        ``depth``, as ``descent``'s last checkpoint, thinning them when
        they are full, and go on with a copy that the descent follows."""
        checkpoints = descent.checkpoints
        checkpoints.append((self.state, depth))
        if len(checkpoints) >= _CHECKPOINT_CAP:
            del checkpoints[-2::-2]
            descent.spacing *= 2
        self._detach()
        descent.state = self.state

    # -- search

    def _build_region(self) -> Region:
        ts = self.ts
        parent, par, _, _, _, dom, _ = self.state
        zero = self.zero
        if parent.count(zero) != len(parent):
            # cannot happen: the initial state is pinned and every other
            # state has an incoming edge whose singleton interaction forces
            # its value or its parity to the source
            name = next(s for s, r in zip(ts.states, parent) if r != zero)
            raise InternalCheckFailed(
                f"state {name!r} left unvalued at a search leaf"
            )
        # the zero node is every state's root, so a state's parity is its
        # value; every domain is a single interaction's bit
        return Region(
            support=PackedMap(ts.sidx, bytes(par[: self.n])),
            signature=PackedSignature(ts.eidx, bytes(dom)),
        )

    def _expand(
        self,
        order: Sequence[int],
        stack: list[_Frame],
        pair: tuple[int, int],
        descent: _Descent | None,
        enter: bool,
        limit: float,
    ) -> Region | None:
        """Depth-first search from the current, propagated node, the one
        :attr:`state` holds: the first leaf's region, or None once the
        stack's first frame is popped.

        A node branches on the first event in ``order`` that is not a
        singleton there, and is a leaf when there is none: ``order`` is
        :attr:`order`, or for a repair the events it opens in that order,
        where every other event is a singleton from the start (see
        :meth:`_repair`).  The stack holds one frame per open node and
        starts with one that has no bits to try: its position in ``order``
        is where the current node looks for its branch event, its mark
        where the search rolls back to when it gives up.  Children are
        tried in the order :data:`_FIRST` sets, and the trail is rolled
        back to the mark before each child and before the frame is dropped,
        so depth costs heap, not Python frames.  Every event before a node's
        position is a singleton there and stays one below it, so a child
        looks for its branch event from its parent's position on.

        It raises :class:`_Exhausted` on entering a node once it has
        counted ``limit`` nodes in :attr:`expanded`.

        With ``enter`` the search enters the current node first; without
        it, it starts by backtracking into the stack's top frame.  Given
        the ``descent`` whose stack ``stack`` is, it returns None at the
        first node where the two state ids ``pair`` are forced equal,
        before entering it, leaving that node's state, the descent's
        ``state`` again, and its ancestors' frames as they are; it takes
        and drops the descent's checkpoints as :class:`_Descent` says.
        Otherwise the search is for the atom ``pair``, and unites the pair
        with parity 1 before it propagates each child.
        """
        n_order = len(order)
        event_arcs = self.ts.event_arcs
        parent, par, _, _, _, dom, trail = self.state
        inq = self.inq
        queue = self.queue
        a, b = pair
        if descent is not None:
            checkpoints = descent.checkpoints
            due = descent.due()
        else:
            checkpoints = ()
            due = float("inf")
        while True:
            if enter:
                # entering a node; an atom search's nodes keep a != b
                if parent[a] == parent[b] and par[a] == par[b]:
                    return None
                if self.expanded >= limit:
                    raise _Exhausted
                self.expanded += 1
                if len(trail) >= due:
                    self._checkpoint(descent, len(stack))
                    parent, par, _, _, _, dom, trail = self.state
                    due = descent.due()
                pos = stack[-1][0]
                while pos < n_order and not dom[order[pos]] & (dom[order[pos]] - 1):
                    pos += 1
                if pos == n_order:
                    return self._build_region()
                stack.append((pos, dom[order[pos]], len(trail)))
            enter = True
            # find the next child that propagates, backtracking as needed
            while stack:
                pos, untried, mark = stack.pop()
                if checkpoints and checkpoints[-1][1] > len(stack):
                    # the descent leaves the nodes of its deepest checkpoints
                    while checkpoints and checkpoints[-1][1] > len(stack):
                        checkpoints.pop()
                    due = descent.due()
                if len(trail) != mark:
                    self._rollback(mark)
                if not untried:
                    continue
                if descent is None:
                    # the atom's disequality; two classes always unite
                    if parent[a] != parent[b]:
                        self._union(a, b, 1)
                    elif par[a] == par[b]:
                        continue
                pref = untried & _FIRST
                low = pref & -pref if pref else untried & -untried
                stack.append((pos, untried ^ low, mark))
                ei = order[pos]
                self._set_dom(ei, low)
                for k in event_arcs[ei]:
                    if not inq[k]:
                        inq[k] = 1
                        queue.append(k)
                if self._propagate():
                    break
            else:
                return None

    def _repair(self, pair: tuple[int, int], base: Region) -> Region | None:
        """A region splitting the state ids ``pair`` that agrees with the
        region ``base`` away from them, or None.

        It tries a ball per radius of :data:`_REPAIR_RADII`, in order, one
        BFS grown from each to the next: the states within that many hops
        of either state of the pair, but for the initial state, whose value
        no edge forces.  Once the ball holds more than :data:`_REPAIR_SHARE`
        of the system's states there is no further try.  A try's start
        state values every other state as ``base`` does, gives every event
        with no arc at the ball ``base``'s interaction and every other event
        the interactions of the type that carry its arcs with both ends
        outside the ball under those values, and leaves the ball's states
        free.  It is built whole, as a new :attr:`state` tuple, not by
        unions: ``base`` is a fixpoint, and so is what is left of it.  The
        try unites the pair with parity 1, propagates the arcs at the ball
        and searches below as :meth:`_expand` does, in at most
        :data:`_REPAIR_NODES` nodes, which count against the atom's budget.
        Domains only shrink, so the events with an arc at the ball are the
        only ones that can be open: the try branches over them alone, in
        :attr:`order`, and so on the events a branch over all of
        :attr:`order` picks, with no node scanning every event.  So it
        returns a region that splits the atom and differs from ``base``
        only on the ball and the events at it, the first try's that finds
        one.  Finding none proves nothing about the atom, whose own search
        comes next: only the atom's budget running out raises
        :class:`_Exhausted` here.
        """
        ts = self.ts
        arcs = ts.arcs
        state_arcs = ts.state_arcs
        event_arcs = ts.event_arcs
        n = self.n
        zero = self.zero
        initial = ts.sidx[ts.initial]
        row = base.support.row
        a, b = pair
        ball = {a, b}
        frontier = [a, b]
        for hops in range(1, _REPAIR_RADII[-1] + 1):
            reached = []
            for s in frontier:
                for k in state_arcs[s]:
                    si, _, ti = arcs[k]
                    t = ti if si == s else si
                    if t not in ball:
                        ball.add(t)
                        reached.append(t)
            if len(ball) > n * _REPAIR_SHARE:
                return None
            frontier = reached
            if hops not in _REPAIR_RADII:
                continue
            free = ball - {initial}
            # outside the ball, a state is valued and never moves, so its
            # members list is never read
            parent = [zero] * (n + 1)
            par = [*row, 0]
            members = [[zero]] * (n + 1)
            for s in free:
                parent[s] = s
                par[s] = 0
                members[s] = [s]
            at_ball = [k for s in free for k in state_arcs[s]]
            dom = list(base.signature.row)
            opened = sorted({arcs[k][1] for k in at_ball}, key=self.rank.__getitem__)
            for ei in opened:
                # base's interaction carries every arc, so no mask is smaller
                least = dom[ei]
                mask = self.full_mask
                for k in event_arcs[ei]:
                    si, _, ti = arcs[k]
                    if parent[si] == zero and parent[ti] == zero:
                        mask &= _KEEPS[1 << (2 * row[si] + row[ti])]
                        if mask == least:
                            break
                dom[ei] = mask
            self.state = (
                parent, par, members, [*state_arcs, []], bytearray(n + 1), dom, []
            )
            self._union(a, b, 1)
            self._enqueue_all(at_ball)
            if not self._propagate():
                continue
            limit = min(self.max_nodes, self.expanded + _REPAIR_NODES)
            try:
                region = self._expand(
                    opened, [(0, 0, len(self.state[6]))], pair, None, True, limit
                )
            except _Exhausted:
                if limit == self.max_nodes:
                    raise  # the atom's budget, not the try's cap, ran out
                region = None
            if region is not None:
                return region
        return None

    def run(self, pair: tuple[int, int], base: Region | None = None) -> AtomVerdict:
        """The verdict of the search for the atom of state ids ``pair``, its
        region not yet checked, counting only what this atom costs.  Given a
        ``base`` region, the search first tries to repair it, in a ball of
        each radius of :data:`_REPAIR_RADII` in turn (see :meth:`_repair`).
        Otherwise, or if no try finds a region, under each initial value,
        the search advances the type's descent, then searches for the atom
        on a copy, from the descent's shallowest checkpoint where the atom's
        states are forced equal, or else from where it stopped."""
        self.expanded = self.revisions = 0
        descents = self.descents
        order = self.order
        a, b = pair
        limit = self.max_nodes
        region = None
        repaired = False
        try:
            if limit <= 0:
                raise _Exhausted
            if base is not None:
                region = self._repair(pair, base)
                repaired = region is not None
            for init_value in () if repaired else (0, 1):
                if init_value not in descents:
                    descents[init_value] = self._root(init_value)
                descent = descents[init_value]
                if descent is None:
                    continue
                self.state = descent.state
                region = self._expand(
                    order, descent.stack, pair, descent, True, limit
                )
                if region is None and not descent.stack:
                    descents[init_value] = None  # no region under this value
                elif region is None:
                    depth = len(descent.stack)
                    for state, at in descent.checkpoints:
                        parent, par = state[0], state[1]
                        if parent[a] == parent[b] and par[a] == par[b]:
                            self.state = state
                            depth = at
                            break
                    self._detach()  # the descent and checkpoints stay as they are
                    region = self._expand(
                        order, descent.stack[:depth], pair, None, False, limit
                    )
                if region is not None:
                    break
            status = AtomStatus.UNSOLVABLE if region is None else AtomStatus.SOLVED
        except _Exhausted:
            # raised on entering a node, so the descent is whole
            status = AtomStatus.EXHAUSTED
        return AtomVerdict(status, region, self.expanded, self.revisions, repaired)


def solve_atom(
    ts: TransitionSystem,
    tau: frozenset[Interaction],
    atom: tuple[str, str],
    budget: int | None = DEFAULT_MAX_NODES,
) -> AtomVerdict:
    """Search for a tau-region separating ``atom``.

    ``budget`` caps the search nodes expanded; None means unlimited.
    Returns SOLVED with a region that :func:`is_region` has checked,
    UNSOLVABLE after exhausting the search space, or EXHAUSTED when the
    node budget ran out first; ``nodes`` reports expansions spent either
    way.  The search starts the type's descents, advances them as far as
    its atom needs, then backtracks with the atom added (see
    :class:`_AtomSearch`); the nodes and revisions that costs count here
    and against ``budget``.  The verdict, counts included, depends only on
    the system, type, atom and budget.
    """
    a, b = atom
    if a == b or a not in ts.sidx or b not in ts.sidx:
        raise InvalidAtom(f"atom must be two distinct states: {atom!r}")
    verdict = _AtomSearch(ts, type_mask(tau), budget).run((ts.sidx[a], ts.sidx[b]))
    region = verdict.region
    if region is not None and not (
        is_region(ts, tau, region) and region.solves(atom)
    ):
        raise InternalCheckFailed("search produced an invalid region")
    return verdict


#: A ``bytes.translate`` table from a packed support's bytes to the digits
#: "0" and "1".
_DIGITS = bytes.maketrans(bytes(range(2)), b"01")


def _support_int(row: bytes) -> int:
    """A support given a byte per state in state order, each 0 or 1, as an
    int whose bit i is the value of state i."""
    return int(row.translate(_DIGITS)[::-1], 2)


def _unseparated(n: int, supports: list[int]) -> Iterator[tuple[int, int]]:
    """The atoms (i, j) of ``n`` states, in sorted order, that no support
    in ``supports`` splits, a support an int with bit i the value of state
    i.  Supports the caller appends while the scan waits at an atom count
    from the next atom on.

    For the first state i the scan keeps ``same``, the later states that
    every support so far puts with i, so a new support costs one AND and
    the next atom is the lowest set bit of ``same >> j``, found in C.  The
    next first state folds in every support again, newest first, until
    ``same`` is 0: a sweep finds its newest supports for the atoms of the
    latest first states, so they tend to split the next one off soonest.
    Only :func:`decide_ssp` runs this scan; the checkers in ``oracle`` name
    their witness from their own codes."""
    full = (1 << n) - 1
    for i in range(n - 1):
        same = full >> (i + 1) << (i + 1)
        fold = reversed(supports)
        used = len(supports)
        j = i + 1
        while True:
            for sup in fold:
                same &= sup if sup >> i & 1 else ~sup
                if not same:
                    break
            rest = same >> j
            if not rest:
                break
            j += (rest & -rest).bit_length() - 1
            yield i, j
            j += 1
            fold = supports[used:]
            used = len(supports)


def _atoms_up_to(n: int, pair: tuple[int, int] | None) -> int:
    """The atoms of ``n`` states in sorted order up to and including the
    atom of state ids ``pair``, all n(n-1)/2 when it is None."""
    if pair is None:
        return n * (n - 1) // 2
    i, j = pair
    return i * n - i * (i + 1) // 2 + (j - i)


# checking all of a sweep's regions at once


@cache
def _blocked_digits(mask: int) -> tuple[bytes, ...]:
    """Per cell c, a ``bytes.translate`` table taking an interaction's
    type-mask bit to the digit b"1" where it is outside the type ``mask``
    or has no step through c, and to b"0" where it has one; it keeps any
    other byte, which :func:`_packed_rows` refuses."""
    bits = bytes(i.bit for i in INTERACTION_ORDER)
    steps = [i.cells if i.bit & mask else 0 for i in INTERACTION_ORDER]
    return tuple(
        bytes.maketrans(bits, bytes(b"01"[not cells >> c & 1] for cells in steps))
        for c in range(4)
    )


def _state_codes(rows: Sequence[bytes], n: int) -> list[int]:
    """Per state, its values under the supports ``rows`` of R, a byte per
    state each: bit R-1-k of state i's code is byte i of row k, the code
    that appending each row's bit in turn, ``c + c + bit``, builds, as
    ``oracle.brute_force_decide`` builds its class codes."""
    joined = b"".join(rows)
    return [int(joined[s::n].translate(_DIGITS), 2) for s in range(n)]


def _all_regions(
    ts: TransitionSystem,
    mask: int,
    regions: Sequence[Region],
) -> bool:
    """``all(is_region(ts, tau, r) for r in regions)``, where ``mask`` is
    ``type_mask(tau)``, for regions packed as the search packs them, in one
    pass over the arcs for all the regions, bit-parallel across them.

    The pass reads a region's rows only if it is packed over the system's
    own ``sidx`` and ``eidx`` (see :func:`_packed_rows`); it reads any
    other region, which the search never builds, as no region.

    Bit R-1-k of state i's code from :func:`_state_codes` is its support
    under region k of R.  Per event and cell c = 2x+y, the pass parses the
    R-bit mask of the regions whose interaction there has no step through
    c, an interaction outside the type none at all; an arc (s, e, t) is
    carried by every region iff no region has its bit set in the mask of
    the cell that the codes of s and t select.
    """
    if not regions:
        return True  # and no empty column for int() to parse
    n = len(ts.states)
    n_events = len(ts.events)
    support_rows = []
    rows = []
    for region in regions:
        packed = _packed_rows(region, ts.sidx, ts.eidx)
        if packed is None:
            return False
        support_rows.append(packed[0])
        rows.append(packed[1])
    cls = _state_codes(support_rows, n)
    # row k holds region k's interaction bits per event, so an event's
    # column, every n_events-th byte, holds its regions' bits, region 0 first
    signatures = b"".join(rows)
    digits = _blocked_digits(mask)
    blocked = []
    for e in range(n_events):
        column = signatures[e::n_events]
        b00, b01, b10, b11 = [int(column.translate(d), 2) for d in digits]
        blocked.append((b00, b00 ^ b10, b01, b01 ^ b11))
    for si, ei, ti in ts.arcs:
        b00, d0, b01, d1 = blocked[ei]
        source = cls[si]
        # the masks of the cells (x, 0) and (x, 1), x each region's source
        # value; then the one of (x, y), y its target value
        y0 = b00 ^ (d0 & source)
        y1 = b01 ^ (d1 & source)
        if y0 ^ ((y0 ^ y1) & cls[ti]):
            return False
    return True


def decide_ssp(
    ts: TransitionSystem,
    tau: frozenset[Interaction],
    budget: int | None = DEFAULT_MAX_NODES,
) -> SeparationReport:
    """Decide whether every pair of distinct states is separable.

    Atoms are visited in sorted order.  An atom that a region found earlier
    already separates needs no search; any other atom gets a search under
    the node cap ``budget`` (None: unlimited), and the region it finds
    joins ``report.regions``.  The search first tries to repair the last
    region found in a ball around the atom's two states, of radius 1 and
    then 4, changing only the states and events in it; only if neither try
    finds a region does it run the search :func:`solve_atom` runs.  So a
    searched atom's region is not always the one :func:`solve_atom`
    returns for it, and ``stats.atoms_repaired`` counts the atoms searched
    whose region a repair found.  Each try's nodes count against the
    atom's budget, so the full search gets what is left; a repair that
    finds nothing never makes an atom unsolvable, and the atom is out of
    budget only when its budget is spent.  The sweep runs one
    :class:`_AtomSearch` on every atom it searches, so they share the
    type's descents toward its first region and each one repeats little of
    what the searches before it did; ``stats`` counts the nodes and
    revisions of each search, repairs and descent steps included.  The
    descents live and die with the sweep, so its stats depend only on the
    system, type and budget.
    The sweep stops at the first provably unsolvable atom, the witness;
    ``stats.atoms_checked`` counts the atoms in sorted order up to and
    including the witness, all of them when there is none.  If a search
    ran out of budget and no atom was unsolvable, the decision is UNKNOWN
    and no regions are reported.

    Each region must separate the atom it was searched for.  Where
    ``solve_atom`` runs ``is_region`` on the region it returns, the sweep
    checks all the regions it found in one bit-parallel pass over the arcs
    before it returns, those an UNKNOWN decision drops included (see
    :func:`_all_regions`).  A failed check raises
    :class:`InternalCheckFailed`.
    """
    t0 = time.perf_counter()
    report = SeparationReport(decision=Decision.HAS_SSP, witness_atom=None)
    stats = report.stats
    exhausted_any = False
    states = ts.states
    mask = type_mask(tau)
    search = _AtomSearch(ts, mask, budget)
    # the supports of the regions found so far: the scan passes over the
    # atoms one of them splits, and an atom that gets no region, exhausted,
    # adds none, so the scan goes on from the atom after it
    supports: list[int] = []
    for pair in _unseparated(len(states), supports):
        verdict = search.run(pair, report.regions[-1] if report.regions else None)
        atom = (states[pair[0]], states[pair[1]])
        stats.atoms_searched += 1
        stats.atoms_repaired += verdict.repaired
        stats.nodes_expanded += verdict.nodes
        stats.revisions += verdict.revisions
        if verdict.status is AtomStatus.SOLVED:
            region = verdict.region
            if not region.solves(atom):
                raise InternalCheckFailed("search produced an invalid region")
            report.regions.append(region)
            # the search packs its support a byte per state, in state order
            supports.append(_support_int(region.support.row))
        elif verdict.status is AtomStatus.EXHAUSTED:
            exhausted_any = True
        else:
            report.decision = Decision.LACKS_SSP
            report.witness_atom = atom
            break
    else:
        pair = None  # no witness: every atom is checked
    del search  # and its descents, before the batch check allocates
    if not _all_regions(ts, mask, report.regions):
        raise InternalCheckFailed("search produced an invalid region")
    stats.atoms_checked = _atoms_up_to(len(states), pair)
    if report.decision is not Decision.LACKS_SSP and exhausted_any:
        report.decision = Decision.UNKNOWN
        report.regions.clear()
    stats.wall_ms = (time.perf_counter() - t0) * 1000.0
    return report
