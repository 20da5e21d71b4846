import copy
import gc
import hashlib
import json
import pickle
import random
import sys
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations, product
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import dense_checkpoints
from ssp_kit import engine
from ssp_kit.classify import enumerate_types
from ssp_kit.core import (
    INTERACTION_ORDER,
    Interaction,
    InternalCheckFailed,
    PackedMap,
    PackedSignature,
    PartialAssignment,
    Region,
    _packed_rows,
    is_region,
    type_mask,
    type_of,
    validate_ts,
)
from ssp_kit.engine import (
    DEFAULT_MAX_NODES,
    AtomStatus,
    Decision,
    InvalidAtom,
    OracleCapExceeded,
    SearchStats,
    SeparationReport,
    WrongTypeFamily,
    brute_force_decide,
    brute_force_regions,
    brute_force_supports,
    decide_ssp,
    embedding_certificate,
    fast_path_swap_core,
    solve_atom,
)
# the propagation tables and the search, for the white-box tests at the end
from ssp_kit.engine import (
    _COVER,
    _KEEPS,
    _PARITY_IS,
    _PROJ,
    _SOURCE_IS,
    _STEPS,
    _TARGET_IS,
    _TEACHES,
    _AtomSearch,
    _all_regions,
    _carriers,
    _oracle_input,
    _state_codes,
    _support_int,
    _unseparated,
)
from ssp_kit.reductions import (
    example_formula,
    gen_nop_free,
    gen_nop_inp,
    unsat_formula_m4,
)
from ssp_kit.verify import (
    enumerate_small_ts,
    fixture_event_cycle,
    fixture_parallel_pair,
    fixture_single_loop,
    fixture_single_state,
    random_ts,
    random_type,
)

I = Interaction
NOP_INP = type_of(I.NOP, I.INP)
SWAP_FREE = type_of(I.SWAP, I.FREE)


def pair_of(ts, atom):
    """The state ids of ``atom``, the pair :meth:`_AtomSearch.run` takes."""
    return ts.sidx[atom[0]], ts.sidx[atom[1]]


@pytest.fixture(scope="module")
def m4_sweep():
    """The 753-state {swap, free} sweep and its system, run once."""
    ts = gen_nop_free(unsat_formula_m4()).ts
    return ts, decide_ssp(ts, SWAP_FREE)


class TestSolveAtom:
    def test_solved_returns_validated_region(self):
        ts = fixture_parallel_pair()
        verdict = solve_atom(ts, NOP_INP, ("r0", "r1"))
        assert verdict.status is AtomStatus.SOLVED
        assert is_region(ts, NOP_INP, verdict.region)
        assert verdict.region.solves(("r0", "r1"))

    def test_unsolvable_on_the_event_cycle(self):
        ts = fixture_event_cycle()
        verdict = solve_atom(ts, NOP_INP, ("s0", "s1"))
        assert verdict.status is AtomStatus.UNSOLVABLE
        assert verdict.region is None

    def test_zero_budget_exhausts_immediately(self):
        ts = fixture_parallel_pair()
        verdict = solve_atom(ts, NOP_INP, ("r0", "r1"), budget=0)
        assert verdict.status is AtomStatus.EXHAUSTED
        assert verdict.nodes == 0

    def test_unlimited_budget(self):
        ts = fixture_parallel_pair()
        verdict = solve_atom(ts, NOP_INP, ("r0", "r1"), budget=None)
        assert verdict.status is AtomStatus.SOLVED
        assert verdict.nodes > 0

    def test_invalid_atom(self):
        ts = fixture_parallel_pair()
        with pytest.raises(InvalidAtom):
            solve_atom(ts, NOP_INP, ("r0", "r0"))
        with pytest.raises(InvalidAtom):
            solve_atom(ts, NOP_INP, ("r0", "ghost"))

    def test_empty_type_cannot_separate(self):
        ts = fixture_parallel_pair()
        verdict = solve_atom(ts, frozenset(), ("r0", "r1"))
        assert verdict.status is AtomStatus.UNSOLVABLE

    def test_a_search_resumes_its_descents_across_atoms(self):
        ts = fixture_parallel_pair()
        search = _AtomSearch(ts, type_mask(NOP_INP), None)
        pair = pair_of(ts, ("r0", "r1"))
        first = search.run(pair)
        descents = search.descents
        before = dict(descents)
        again = search.run(pair)
        # the second run resumes the search's descents, each kept as the
        # same object, where the first run left them
        assert search.descents is descents
        assert descents.keys() == {0, 1}
        assert all(descents[v] is before[v] for v in descents)
        assert again.revisions < first.revisions
        assert again.nodes < first.nodes
        # every other search starts its own, so the system keeps nothing:
        # solve_atom spends on it what it spends on a fresh copy, and every
        # search returns the same verdict
        other = _AtomSearch(ts, type_mask(NOP_INP), None)
        assert other.descents == {}
        assert other.run(pair) == first
        copy = validate_ts(ts.edges, ts.initial)
        fresh = solve_atom(copy, NOP_INP, ("r0", "r1"))
        assert solve_atom(ts, NOP_INP, ("r0", "r1")) == fresh
        assert (first.nodes, first.revisions) == (fresh.nodes, fresh.revisions)
        for verdict in (first, again):
            assert (verdict.status, verdict.region) == (
                fresh.status, fresh.region
            )

    def test_an_interrupted_descent_is_dropped(self):
        class Interrupted(_AtomSearch):
            def _set_dom(self, ei, mask):
                raise KeyboardInterrupt

        ts = fixture_parallel_pair()
        # the descent from 0 stops at its root; the one from 1 branches
        with pytest.raises(KeyboardInterrupt):
            Interrupted(ts, type_mask(NOP_INP), None).run(pair_of(ts, ("r0", "r1")))
        # the descents go with the interrupted search: a new search on the
        # system answers, and spends, what one on a fresh copy does
        verdict = solve_atom(ts, NOP_INP, ("r0", "r1"))
        copy = validate_ts(ts.edges, ts.initial)
        assert verdict == solve_atom(copy, NOP_INP, ("r0", "r1"))

    def test_an_interrupted_descent_drops_its_checkpoints(self):
        taken = []

        class Interrupted(_AtomSearch):
            def _checkpoint(self, descent, depth):
                super()._checkpoint(descent, depth)
                taken.append(descent)

            def _set_dom(self, ei, mask):
                if taken:
                    raise KeyboardInterrupt
                super()._set_dom(ei, mask)

        ts = gen_nop_inp(example_formula()).ts
        mask = type_mask(NOP_INP)
        atom = ts.states[:2]
        with dense_checkpoints():
            with pytest.raises(KeyboardInterrupt):
                Interrupted(ts, mask, None).run(pair_of(ts, atom))
            # the descent stopped between two nodes, and goes with its
            # checkpoints and its search: a new search on the system
            # answers, and spends, what one on a fresh copy does
            assert taken[0].checkpoints
            verdict = solve_atom(ts, NOP_INP, atom)
            copy = validate_ts(ts.edges, ts.initial)
            assert verdict == solve_atom(copy, NOP_INP, atom)
        assert (verdict.status, verdict.region) == reference_search(copy, mask, atom)

    def test_a_budget_spent_at_a_checkpoint_leaves_a_whole_descent(self):
        # a search whose budget runs out on entering the node after a
        # checkpoint leaves a descent that its next runs, unlimited, resume
        # and answer from as a search from the root does
        reference = gen_nop_inp(example_formula()).ts
        edges, initial = reference.edges, reference.initial
        mask = type_mask(NOP_INP)
        atoms = list(reference.atoms())[::37]
        first = pair_of(reference, atoms[0])
        at = []

        class Counting(_AtomSearch):
            def _checkpoint(self, descent, depth):
                super()._checkpoint(descent, depth)
                at.append(self.expanded)

        with dense_checkpoints():
            Counting(validate_ts(edges, initial), mask, None).run(first)
            assert at
            for budget in at:
                search = _AtomSearch(validate_ts(edges, initial), mask, budget)
                spent = search.run(first)
                assert spent.status is AtomStatus.EXHAUSTED
                search.max_nodes = float("inf")
                for atom in atoms:
                    verdict = search.run(pair_of(reference, atom))
                    assert (verdict.status, verdict.region) == reference_search(
                        reference, mask, atom
                    ), (budget, atom)

    @pytest.mark.parametrize("leaves", [1500, 5000])
    def test_deep_star(self, leaves):
        # each leaf event is branched on at its own level, so the search
        # runs far deeper than Python's default recursion limit.  The
        # descent enters its root, and stops below it once e0's lowest
        # interaction gives l0 the value of c; the search then backtracks
        # into the root's frame, tries e0's other interactions with the
        # atom and enters one node per leaf event below the root, the
        # leaves + 1 nodes a search from the root enters
        star = validate_ts(
            [("c", f"e{i}", f"l{i}") for i in range(leaves)], "c"
        )
        verdict = solve_atom(star, frozenset(Interaction), ("c", "l0"))
        assert verdict.status is AtomStatus.SOLVED
        assert verdict.nodes == leaves + 1
        # the descent for the leaf branched on last runs a level per leaf
        # event, taking, thinning and dropping checkpoints, and never
        # holds more than the cap
        held = []

        class Capped(_AtomSearch):
            def _checkpoint(self, descent, depth):
                super()._checkpoint(descent, depth)
                held.append(len(descent.checkpoints))

        search = Capped(star, type_mask(frozenset(Interaction)), None)
        last = star.events[search.order[-1]].replace("e", "l")
        search.run(pair_of(star, ("c", last)))
        assert len(held) > engine._CHECKPOINT_CAP
        assert max(held) <= engine._CHECKPOINT_CAP


class TestDecideSsp:
    def test_single_state_has_ssp_vacuously(self):
        report = decide_ssp(fixture_single_state(), frozenset())
        assert report.decision is Decision.HAS_SSP
        assert report.witness_atom is None
        assert report.regions == []

    def test_lacks_reports_first_unsolvable_atom(self):
        report = decide_ssp(fixture_event_cycle(), NOP_INP)
        assert report.decision is Decision.LACKS_SSP
        assert report.witness_atom == ("s0", "s1")

    def test_unknown_on_exhaustion(self):
        chain = validate_ts(
            [("a", "x", "b"), ("b", "y", "c")], "a"
        )
        report = decide_ssp(chain, NOP_INP, budget=0)
        assert report.decision is Decision.UNKNOWN
        assert report.witness_atom is None

    def test_reuse_skips_searches(self):
        ts = validate_ts(
            [("a", "x", "b"), ("b", "y", "c"), ("c", "z", "d")], "a"
        )
        tau = type_of(I.NOP, I.INP, I.OUT)
        report = decide_ssp(ts, tau)
        # each atom searched on its own, sharing nothing
        every_atom = sum(solve_atom(ts, tau, atom).nodes for atom in ts.atoms())
        assert report.decision is Decision.HAS_SSP
        assert report.stats.nodes_expanded < every_atom

    @pytest.mark.slow
    def test_search_regions_are_packed_over_the_system_index(self, m4_sweep):
        # a byte per state and per event, over the system's own indexes,
        # read-only, and otherwise the mapping its dict form is
        ts, report = m4_sweep
        verdict = solve_atom(ts, SWAP_FREE, ts.states[:2])
        for region in [*report.regions, verdict.region]:
            support, signature = region
            assert support.index is ts.sidx and signature.index is ts.eidx
            assert len(support.row) == len(ts.states)
            assert len(signature.row) == len(ts.events)
            plain = Region(dict(support), dict(signature))
            assert region == plain and plain == region
            assert repr(support) == repr(plain.support)
            assert repr(signature) == repr(plain.signature)
            for twin in (copy.deepcopy(region), pickle.loads(pickle.dumps(region))):
                assert twin == region and type(twin.support) is PackedMap
            with pytest.raises(TypeError):
                support[ts.states[0]] = 0
            with pytest.raises(TypeError):
                signature[ts.events[0]] = I.SWAP

    def test_each_sweep_starts_and_drops_its_descents(self, monkeypatch):
        ts = gen_nop_inp(example_formula()).ts
        mask = type_mask(NOP_INP)
        earlier = _AtomSearch(ts, mask, None)
        earlier.run(pair_of(ts, ("t_6_0", "t_7_0")))
        assert earlier.descents
        built = []

        class Recorded(_AtomSearch):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(weakref.ref(self))

        fresh = sweep_counts(decide_ssp(validate_ts(ts.edges, ts.initial), NOP_INP))
        monkeypatch.setattr(engine, "_AtomSearch", Recorded)
        for sweeps in (1, 2):
            # one search per sweep, whose descents no other search shares,
            # freed with them when the sweep returns
            assert sweep_counts(decide_ssp(ts, NOP_INP)) == fresh
            gc.collect()
            assert len(built) == sweeps and built[-1]() is None

    def test_the_753_state_sweep_retains_under_1_mb_and_peaks_under_2_5_mb(self):
        # tracemalloc counts what is allocated during the sweep: what is
        # still held once it returns, and the most held at once.  The
        # search packs each region a byte per state and per event over the
        # system's shared name indexes.  The type's descents live and die
        # with the sweep's search object, so none is retained, and each
        # keeps at most 32 checkpoints, a copy of the search state each;
        # uncapped, the peak would grow with depth times states.  The sweep
        # retains about 0.2 MB and peaks at about 1.8 MB
        ts = gen_nop_free(unsat_formula_m4()).ts
        tracemalloc.start()
        try:
            report = decide_ssp(ts, SWAP_FREE)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.decision is Decision.LACKS_SSP
        assert retained < 1_000_000, retained
        assert peak < 2_500_000, peak

    def test_threads_may_share_a_system(self):
        # searches keep their state to themselves, so sweeps in two threads
        # on one system each report what a sweep alone does; the short
        # switch interval interleaves the threads inside their searches
        ts = gen_nop_inp(example_formula()).ts
        alone = sweep_counts(decide_ssp(ts, NOP_INP))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            with ThreadPoolExecutor(2) as pool:
                sweeps = [pool.submit(decide_ssp, ts, NOP_INP) for _ in range(2)]
                reports = [sweep.result(timeout=60) for sweep in sweeps]
        finally:
            sys.setswitchinterval(interval)
        assert [sweep_counts(report) for report in reports] == [alone, alone]
        # and a search spends the same on every call
        atom = ("t_6_0", "t_7_0")
        first = solve_atom(ts, NOP_INP, atom)
        assert solve_atom(ts, NOP_INP, atom) == first

    @pytest.mark.parametrize(
        "system, tau",
        [
            (lambda: gen_nop_inp(example_formula()).ts, NOP_INP),
            (lambda: gen_nop_free(unsat_formula_m4()).ts, SWAP_FREE),
        ],
        ids=["45-states", "753-states"],
    )
    def test_searches_leave_the_system_as_it_was(self, system, tau, monkeypatch):
        # a search shares the system's state_arcs as the singletons'
        # boundary lists, and only ``own`` has them copied before they
        # change: a sweep, an atom search, and sweeps interrupted between
        # a union and the rest of its propagation leave the system's
        # integer form as it was
        ts = system()
        fields = ("sidx", "eidx", "arcs", "event_arcs", "state_arcs")

        def integer_form():
            return {name: getattr(ts, name) for name in fields}

        before = copy.deepcopy(integer_form())
        decide_ssp(ts, tau)
        solve_atom(ts, tau, ts.states[-2:])
        assert integer_form() == before

        class Interrupted(_AtomSearch):
            unions = 0
            stop = None

            def _union(self, x, y, parity):
                united = super()._union(x, y, parity)
                Interrupted.unions += 1
                if Interrupted.unions == Interrupted.stop:
                    raise KeyboardInterrupt
                return united

        monkeypatch.setattr(engine, "_AtomSearch", Interrupted)
        decide_ssp(ts, tau)
        total = Interrupted.unions
        for stop in (total // 4, total // 2, 3 * total // 4):
            Interrupted.unions, Interrupted.stop = 0, stop
            with pytest.raises(KeyboardInterrupt):
                decide_ssp(ts, tau)
            assert integer_form() == before

    def test_report_region_vectors_separate_all_atoms(self):
        ts = validate_ts(
            [("a", "x", "b"), ("b", "y", "c"), ("c", "z", "a")], "a"
        )
        report = decide_ssp(ts, type_of(I.NOP, I.INP, I.OUT))
        assert report.decision is Decision.HAS_SSP
        assert embedding_certificate(ts, report.regions).injective


class TestBruteForce:
    def test_region_count_on_the_event_cycle(self):
        regions = brute_force_regions(fixture_event_cycle(), NOP_INP)
        keys = {r.key() for r in regions}
        assert len(regions) == len(keys) == 2
        assert all(r.signature["a"] is I.NOP for r in regions)

    def test_all_eight_on_single_state(self):
        loop = fixture_single_loop()
        regions = brute_force_regions(loop, frozenset(Interaction))
        # loops admit exactly the value-preserving interactions per support
        sigs = {(r.support["s0"], r.signature["a"]) for r in regions}
        assert sigs == {
            (0, I.NOP), (0, I.RES), (0, I.FREE),
            (1, I.NOP), (1, I.SET), (1, I.USED),
        }

    def test_single_state_gets_both_constant_supports(self):
        # no events: each support admits exactly the empty signature
        regions = brute_force_regions(fixture_single_state(), NOP_INP)
        assert [r.key() for r in regions] == [
            ((("s0", 0),), ()),
            ((("s0", 1),), ()),
        ]

    @pytest.mark.parametrize(
        "oracle", [brute_force_regions, brute_force_supports, brute_force_decide]
    )
    def test_cap_enforced(self, oracle):
        edges = [(f"s{i}", "x", f"s{i+1}") for i in range(17)]
        big = validate_ts(edges, "s0")
        with pytest.raises(OracleCapExceeded):
            oracle(big, NOP_INP)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.randoms(use_true_random=False))
    def test_finds_every_region_of_the_definition(self, rng):
        # every support, and every signature over the type's members, that
        # is_region accepts: the oracle lists each such region once, and
        # the supports of those regions
        ts = random_ts(rng, max_states=3, max_events=2)
        tau = random_type(rng)
        members = [i for i in INTERACTION_ORDER if i in tau]
        keys, supports = set(), set()
        for bits in product((0, 1), repeat=len(ts.states)):
            for acts in product(members, repeat=len(ts.events)):
                region = Region(dict(zip(ts.states, bits)), dict(zip(ts.events, acts)))
                if is_region(ts, tau, region):
                    keys.add(region.key())
                    supports.add(bits)
        found = [r.key() for r in brute_force_regions(ts, tau)]
        assert len(found) == len(set(found))
        assert set(found) == keys
        assert brute_force_supports(ts, tau) == supports

    def test_carriers_read_each_edge_as_apply_does(self):
        # per event, the members that carry every one of its edges, each
        # edge read through Interaction.apply by state and event name, on
        # every support of each system; None once an event has none
        rng = random.Random(35)
        systems = [random_ts(rng, max_states=5, max_events=3) for _ in range(40)]
        types = [random_type(rng) for _ in range(12)]
        for ts in systems:
            for tau in types:
                supports, pairs, members = _oracle_input(ts, tau)
                acts = [i for i in INTERACTION_ORDER if i in tau]
                for sup in supports:
                    bit = {s: sup >> ts.sidx[s] & 1 for s in ts.states}
                    want = [
                        [
                            i for i in acts
                            if all(
                                i.apply(bit[s]) == bit[t]
                                for s, e2, t in ts.edges if e2 == e
                            )
                        ]
                        for e in ts.events
                    ]
                    if not all(want):
                        want = None
                    assert _carriers(pairs, members, sup) == want

    def test_decide_agrees_with_engine(self):
        rng = random.Random(31337)
        for _ in range(60):
            ts = random_ts(rng, max_states=5, max_events=3)
            tau = random_type(rng)
            got = decide_ssp(ts, tau)
            want = brute_force_decide(ts, tau)
            assert got.decision is want.decision
            assert got.witness_atom == want.witness_atom


small_systems = st.randoms(use_true_random=False).map(
    lambda rng: random_ts(rng, max_states=5, max_events=3)
)


def assert_regions_back_decision(ts, tau, report):
    """Every region is a tau-region; those of a has-ssp report separate all
    atoms, those of a lacks-ssp report every atom before the witness and
    never the witness."""
    assert all(is_region(ts, tau, r) for r in report.regions)
    cert = embedding_certificate(ts, report.regions)
    if report.decision is Decision.HAS_SSP:
        assert cert.injective
        return
    for a, b in ts.atoms():
        if (a, b) == report.witness_atom:
            assert cert.vectors[a] == cert.vectors[b]
            return
        assert cert.vectors[a] != cert.vectors[b], (a, b)
    raise AssertionError(f"witness {report.witness_atom} is not an atom")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(small_systems, st.integers(0, 255))
def test_sweep_matches_oracle(ts, mask):
    tau = enumerate_types()[mask]
    got = decide_ssp(ts, tau)
    want = brute_force_decide(ts, tau)
    assert got.decision is want.decision
    assert got.witness_atom == want.witness_atom
    assert all(is_region(ts, tau, r) for r in got.regions)
    assert len({r.key() for r in got.regions}) == len(got.regions)
    assert_regions_back_decision(ts, tau, want)


search_systems = st.randoms(use_true_random=False).map(
    lambda rng: random_ts(rng, max_states=6, max_events=3)
)


class ClosureCheckingSearch(_AtomSearch):
    """A search that re-revises every edge after each successful propagation.

    Propagation is a closure iff that changes nothing: each edge, queued
    alone, propagates with one revision, and no union, domain change or
    enqueue follows.
    """

    def _propagate(self):
        if not super()._propagate():
            return False
        trail = self.state[6]
        mark = len(trail)
        for k in range(len(self.ts.arcs)):
            revisions = self.revisions
            self._enqueue_all([k])
            assert super()._propagate()
            assert self.revisions == revisions + 1, k
            assert len(trail) == mark and not self.queue, k
        return True


@settings(max_examples=100, deadline=None, derandomize=True)
@given(search_systems, st.integers(0, 255))
def test_propagation_is_a_closure(ts, mask):
    # one search runs on every atom: its first run checks the type's
    # descents as it computes them, later runs the steps they advance them,
    # and every run its root with the atom added and each branch it tries
    search = ClosureCheckingSearch(ts, mask, None)
    for atom in ts.atoms():
        search.run(pair_of(ts, atom))


class EveryArcRoot(_AtomSearch):
    """A search whose root revises every edge after the initial state's
    valuation, not only those the valuation or the type can teach."""

    def _root(self, init_value):
        self._reset()
        ts = self.ts
        self._union(ts.sidx[ts.initial], self.zero, init_value)
        self._enqueue_all(range(len(ts.arcs)))
        if not self._propagate():
            return None
        self.state = (*self.state[:6], [])
        return engine._Descent(self.state, [(0, 0, 0)])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(search_systems)
def test_the_root_revises_only_what_can_teach(ts):
    # for every type and initial value: the same fixpoint, or no region
    # under that value for both, in no more revisions
    for mask in range(256):
        for init_value in (0, 1):
            got = _AtomSearch(ts, mask, None)
            want = EveryArcRoot(ts, mask, None)
            descent = got._root(init_value)
            reference = want._root(init_value)
            assert (descent is None) == (reference is None), (mask, init_value)
            if descent is not None:
                parent, par, _, _, _, dom, _ = got.state
                assert (parent, par, dom) == (
                    want.state[0],
                    want.state[1],
                    want.state[5],
                ), (mask, init_value)
            assert got.revisions <= want.revisions, (mask, init_value)


def test_propagation_is_a_closure_on_larger_systems():
    # systems of up to 10 states and 4 events merge classes that hold
    # inside edges often enough that a boundary list dropping such an edge
    # breaks the closure within the first few hundred of these
    rng = random.Random(1)
    for _ in range(1000):
        ts = random_ts(rng, max_states=10, max_events=4)
        search = ClosureCheckingSearch(ts, rng.randrange(256), None)
        for atom in ts.atoms():
            search.run(pair_of(ts, atom))


def union_find_state(state):
    # a boundary's order steers only the queue, so it is compared as a set
    parent, par, members, bound, _, dom, _ = state
    return (
        parent[:],
        par[:],
        [m[:] for m in members],
        [set(b) for b in bound],
        dom[:],
    )


class InvariantCheckingSearch(_AtomSearch):
    """A search that checks its union-find after every union, propagation
    and rollback, and the descents' checkpoints after every search.

    Every node's ``parent`` is a root, its own parent with parity 0, and
    every root but the zero node, whose class keeps no lists, lists the
    node in its ``members``.  Each such root holds in ``bound`` every edge
    from its class to another and every edge inside it that its revision
    would leave with an interaction without both steps of the edge's
    parity, and only edges with an end in its class.  A merge decides an
    inside edge's place by that rule, queued or not, and domains only
    shrink, so the check holds after every union and propagation, failed
    ones included, with no edge exempt.  A rollback to a mark restores
    ``parent``, ``par``, ``members``, ``bound`` and ``dom`` exactly as they
    were when the mark was taken, each boundary as a set: a node's mark is
    its trail's length on entering it, so the state is recorded at that
    length when a propagation succeeds, and at the root.

    Records are kept per trail in ``records.trails``, shared by every run
    of the search, so those of a descent outlive the run that made them.
    A copy of the state starts with a copy of its trail's records, so a
    rollback into one of the descent's frames, in a later run, is checked
    against the state recorded when that frame's node was entered.  The
    copy shares the descent's lists until it changes them, so the descent
    must end the run as it was when the copy was made.  A checkpoint is a
    state the descent copies and leaves, so it must stay as it was taken
    across every later run, which ``records.checkpoints`` holds; and a
    climb from it, on a copy, through the descent's frames up to it must
    restore the state recorded on entering each frame's node.  No descent
    may hold more checkpoints than the cap.
    """

    def __init__(self, ts, mask, records):
        super().__init__(ts, mask, None)
        self.records = records
        self.detached = []
        self.taken = []

    def at_mark(self):
        # keyed by id; the trail is kept in the value so no id is reused
        trails = self.records.trails
        trail = self.state[6]
        return trails.setdefault(id(trail), (trail, {}))[1]

    def record(self):
        self.at_mark()[len(self.state[6])] = union_find_state(self.state)

    def check(self):
        assert type(self.state) is tuple
        parent, par, members, bound, _, dom, _ = self.state
        for x, root in enumerate(parent):
            assert parent[root] == root and par[root] == 0, (x, root)
            assert root == self.zero or x in members[root], (x, root)
        assert members[self.zero] == [self.zero] and not bound[self.zero]
        assert sum(
            len(members[root]) for root in set(parent) - {self.zero}
        ) == len(parent) - parent.count(self.zero)
        bound = [set(b) for b in bound]
        arcs = self.ts.arcs
        for k, (si, ei, ti) in enumerate(arcs):
            ra, rb = parent[si], parent[ti]
            if ra != rb:
                ends = {ra, rb} - {self.zero}
            elif ra != self.zero:
                cells = _PARITY_IS[par[si] ^ par[ti]]
                kept = _KEEPS[cells] & dom[ei]
                ends = {ra} if _COVER[kept] & cells != cells else set()
            else:
                ends = set()
            for root in ends:
                assert k in bound[root], (k, root)
        for root in set(parent) - {self.zero}:
            for k in bound[root]:
                si, _, ti = arcs[k]
                assert root in (parent[si], parent[ti]), (k, root)

    def _union(self, x, y, parity):
        united = super()._union(x, y, parity)
        self.check()
        return united

    def _propagate(self):
        propagated = super()._propagate()
        assert not self.queue and not any(self.inq)
        self.check()
        if propagated:
            self.record()
        return propagated

    def _root(self, init_value):
        descent = super()._root(init_value)
        if descent is not None:
            self.record()
        return descent

    def _detach(self):
        at_mark = self.at_mark()
        descent = self.state
        self.detached.append((descent, union_find_state(descent)))
        super()._detach()
        trail = self.state[6]
        self.records.trails[id(trail)] = (trail, dict(at_mark))

    def _checkpoint(self, descent, depth):
        state = self.state
        taken = (state, union_find_state(state), descent.stack[:depth])
        self.records.checkpoints.append(taken)
        self.taken.append(taken)
        before = {id(cp[6]) for cp, _ in descent.checkpoints}
        super()._checkpoint(descent, depth)
        assert descent.checkpoints[-1][0][6] is state[6]
        assert type(descent.state) is tuple
        assert len(descent.checkpoints) <= engine._CHECKPOINT_CAP
        self.records.thinned |= before - {id(cp[6]) for cp, _ in descent.checkpoints}

    def _rollback(self, mark):
        at_mark = self.at_mark()
        super()._rollback(mark)
        self.check()
        assert union_find_state(self.state) == at_mark[mark], mark

    def climb(self, state, frames):
        """Roll a copy of ``state`` back through ``frames``, deepest first,
        checking each mark's state."""
        self.state = state
        self._detach()
        for _, _, mark in reversed(frames):
            self._rollback(mark)

    def run(self, pair, base=None):
        self.detached = []
        self.taken = []
        result = super().run(pair, base)
        for state, _, frames in self.taken:
            self.climb(state, frames)
        for descent, when_copied in self.detached:
            assert union_find_state(descent) == when_copied
        frames_of = {}
        for state, when_taken, frames in self.records.checkpoints:
            assert union_find_state(state) == when_taken
            frames_of[id(state[6])] = frames
        # a checkpoint is held only while its node is on the descent's path
        for descent in self.descents.values():
            for state, depth in descent.checkpoints if descent else ():
                assert descent.stack[:depth] == frames_of[id(state[6])]
        return result


def search_records():
    """Per trail its records; the checkpoints taken, and the trails of
    those dropped by thinning."""
    return SimpleNamespace(trails={}, checkpoints=[], thinned=set())


def check_union_find(ts, mask):
    """One checking search run on every atom, returned when done."""
    search = InvariantCheckingSearch(ts, mask, search_records())
    for atom in ts.atoms():
        search.run(pair_of(ts, atom))
    return search


@settings(max_examples=100, deadline=None, derandomize=True)
@given(search_systems, st.integers(0, 255))
def test_union_find_holds_its_invariant(ts, mask):
    check_union_find(ts, mask)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(search_systems, st.integers(0, 255))
def test_union_find_holds_its_invariant_at_dense_checkpoints(ts, mask):
    with dense_checkpoints():
        check_union_find(ts, mask)


def test_union_find_holds_its_invariant_on_larger_systems():
    # on systems of up to 8 states and 4 events, merges make edges inside
    # a class whose revision still leaves an interaction without a step
    # of their new parity; a merge that drops them all from the boundary,
    # or tests the lack at their parity before the merge, fails within
    # the first ten systems
    rng = random.Random(1)
    for _ in range(200):
        ts = random_ts(rng, max_states=8, max_events=4)
        check_union_find(ts, rng.randrange(256))


def test_a_descent_that_backtracks_drops_the_checkpoints_it_leaves():
    # under {res, set, swap}, a descent on this system backtracks out of a
    # node whose children all fail, above checkpoints taken below it
    ts = validate_ts(
        [
            ("s0", "e1", "s1"), ("s1", "e0", "s2"), ("s1", "e1", "s4"),
            ("s2", "e0", "s3"), ("s4", "e0", "s1"), ("s4", "e1", "s2"),
        ],
        "s0",
    )
    mask = type_mask(type_of(I.RES, I.SET, I.SWAP))
    with dense_checkpoints():
        search = check_union_find(ts, mask)
    records = search.records
    taken = {id(state[6]) for state, _, _ in records.checkpoints}
    held = {
        id(cp[6])
        for descent in search.descents.values()
        if descent
        for cp, _ in descent.checkpoints
    }
    assert taken - records.thinned - held


def test_sweeps_search_from_checkpoints(monkeypatch):
    # under dense checkpoints the 45-state nop-inp sweep starts atom
    # searches from them (test_pins.py pins its record there)
    resumed = []

    class Resuming(_AtomSearch):
        def _detach(self):
            # a search copies the state it resumes from; a checkpoint's
            # state is also copied when it is taken, but then it is still
            # its descent's own state
            descents = [d for d in self.descents.values() if d]
            held = [cp for d in descents for cp, _ in d.checkpoints]
            if any(self.state is cp for cp in held) and not any(
                self.state is d.state for d in descents
            ):
                resumed.append(self.state)
            super()._detach()

    monkeypatch.setattr(engine, "_AtomSearch", Resuming)
    with dense_checkpoints():
        decide_ssp(gen_nop_inp(example_formula()).ts, NOP_INP)
    assert resumed


def reference_search(ts, mask, atom):
    """The search from the root with the atom that the shared descents
    replace: the (status, region) of an unlimited ``solve_atom``.

    For each initial value, it propagates that value and the atom's
    disequality, then searches depth first: each node branches on the first
    event in branching order that is not a singleton, trying its bits in
    order nop, swap, then the rest ascending, and the first leaf is the
    region.
    """
    search = _AtomSearch(ts, mask, None)
    order, arcs_of = search.order, ts.event_arcs
    a, b = (ts.sidx[s] for s in atom)
    for init_value in (0, 1):
        search._reset()
        search._union(ts.sidx[ts.initial], search.zero, init_value)
        search._enqueue_all(range(len(ts.arcs)))
        if not (search._union(a, b, 1) and search._propagate()):
            continue
        _, _, _, _, _, dom, trail = search.state
        stack, pos = [], 0
        while True:
            while pos < len(order) and bin(dom[order[pos]]).count("1") == 1:
                pos += 1
            if pos == len(order):
                return AtomStatus.SOLVED, search._build_region()
            stack.append((pos, dom[order[pos]], len(trail)))
            while stack:
                pos, untried, mark = stack.pop()
                search._rollback(mark)
                if untried:
                    first = [bit for bit in (1, 32) if untried & bit]
                    low = first[0] if first else untried & -untried
                    stack.append((pos, untried ^ low, mark))
                    search._set_dom(order[pos], low)
                    search._enqueue_all(arcs_of[order[pos]])
                    if search._propagate():
                        break
            else:
                break
    return AtomStatus.UNSOLVABLE, None


@settings(max_examples=40, deadline=None, derandomize=True)
@given(search_systems, st.randoms(use_true_random=False))
def test_resumed_searches_match_the_root_search(ts, rng):
    check_resumed_searches(ts, rng)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(search_systems, st.randoms(use_true_random=False))
def test_resumed_searches_match_the_root_search_at_dense_checkpoints(ts, rng):
    with dense_checkpoints():
        check_resumed_searches(ts, rng)


def check_resumed_searches(ts, rng):
    # one search per type runs on every atom, so under each type the atoms,
    # in the drawn order, advance and resume the same descents
    atoms = list(ts.atoms())
    rng.shuffle(atoms)
    copy = validate_ts(ts.edges, ts.initial)
    for mask, tau in enumerate(enumerate_types()):
        search = _AtomSearch(ts, mask, None)
        for atom in atoms:
            verdict = search.run(pair_of(ts, atom))
            assert (verdict.status, verdict.region) == reference_search(
                copy, mask, atom
            ), (mask, atom)
            assert verdict.region is None or is_region(ts, tau, verdict.region)


def sweep_by_region_scan(ts, tau, budget=DEFAULT_MAX_NODES):
    """The sweep with its skip rule spelled out, as a reference.

    Every atom in sorted order is checked until the witness.  An atom is
    skipped when some region found so far separates it; any other atom is
    run through one search of the type, which its atoms share as
    ``decide_ssp``'s do, and the region found is checked as ``solve_atom``
    checks it.
    """
    regions, witness, exhausted = [], None, False
    checked = searched = nodes = revisions = 0
    search = _AtomSearch(ts, type_mask(tau), budget)
    for atom in combinations(ts.states, 2):
        checked += 1
        if any(r.solves(atom) for r in regions):
            continue
        verdict = search.run(pair_of(ts, atom))
        searched += 1
        nodes += verdict.nodes
        revisions += verdict.revisions
        if verdict.status is AtomStatus.UNSOLVABLE:
            witness = atom
            break
        if verdict.status is AtomStatus.EXHAUSTED:
            exhausted = True
        else:
            assert is_region(ts, tau, verdict.region)
            assert verdict.region.solves(atom)
            regions.append(verdict.region)
    if witness is not None:
        decision = Decision.LACKS_SSP
    elif exhausted:
        decision, regions = Decision.UNKNOWN, []
    else:
        decision = Decision.HAS_SSP
    keys = [r.key() for r in regions]
    return decision, keys, witness, checked, searched, nodes, revisions


def sweep_counts(report):
    stats = report.stats
    return (
        report.decision,
        [r.key() for r in report.regions],
        report.witness_atom,
        stats.atoms_checked,
        stats.atoms_searched,
        stats.nodes_expanded,
        stats.revisions,
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(small_systems, st.integers(0, 255))
def test_state_classes_skip_what_the_region_scan_skips(ts, mask):
    tau = enumerate_types()[mask]
    assert sweep_by_region_scan(ts, tau) == sweep_counts(decide_ssp(ts, tau))


def test_sweep_matches_the_region_scan_under_budgets():
    # budgets 1 and 3 leave some atoms exhausted, which the sweep checks and
    # searches like any other, and some decisions unknown
    rng = random.Random(4242)
    statuses = set()
    for _ in range(100):
        ts = random_ts(rng, max_states=6, max_events=3)
        tau = random_type(rng)
        for budget in (None, 1, 3):
            got = sweep_counts(decide_ssp(ts, tau, budget))
            assert sweep_by_region_scan(ts, tau, budget) == got, (ts, tau, budget)
            statuses.add((budget, got[0]))
    assert {(1, Decision.UNKNOWN), (3, Decision.UNKNOWN)} <= statuses


def wide_repairs(share=1, radii=(1,)):
    """Repairs on systems too small for them: balls of ``radii`` hops in
    turn, tried up to ``share`` of the states."""
    return mock.patch.multiple(engine, _REPAIR_SHARE=share, _REPAIR_RADII=radii)


def sized_ts(rng, low, high, max_events):
    """A ``random_ts`` system of ``low`` to ``high`` states."""
    while True:
        ts = random_ts(rng, max_states=high, max_events=max_events)
        if len(ts.states) >= low:
            return ts


def repair_ball(ts, atom, radius):
    """The states a repair at ``radius`` for ``atom`` frees: those within
    ``radius`` hops of either state, counted over the edges either way, and
    whether they are few enough to try; the initial state keeps its
    value."""
    near = {s: set() for s in ts.states}
    for s, _, t in ts.edges:
        near[s].add(t)
        near[t].add(s)
    ball = frontier = set(atom)
    for _ in range(radius):
        frontier = {t for s in frontier for t in near[s]} - ball
        ball = ball | frontier
    return ball - {ts.initial}, len(ball) <= len(ts.states) * engine._REPAIR_SHARE


def check_repair(ts, tau, base, atom):
    """Repair ``base`` for ``atom`` on a fresh search under a one-radius
    schedule, check the region it returns, and return it."""
    (radius,) = engine._REPAIR_RADII
    search = _AtomSearch(ts, type_mask(tau), None)
    region = search._repair((ts.sidx[atom[0]], ts.sidx[atom[1]]), base)
    assert search.expanded <= engine._REPAIR_NODES
    freed, tried = repair_ball(ts, atom, radius)
    if region is None:
        return None
    assert tried
    assert is_region(ts, tau, region) and region.solves(atom)
    for s in ts.states:
        if s not in freed:
            assert region.support[s] == base.support[s], (atom, s)
    at_ball = {e for s, e, t in ts.edges if s in freed or t in freed}
    for e in ts.events:
        if e not in at_ball:
            assert region.signature[e] == base.signature[e], (atom, e)
    return region


def test_a_repair_changes_the_base_region_only_around_the_atom():
    # bases from sweeps of random systems of 30 to 80 states, each
    # repaired for random atoms, split by the base or not
    rng = random.Random(26)
    repaired = tried = 0
    with wide_repairs(share=1 / 2, radii=(2,)):
        while tried < 600:
            ts = sized_ts(rng, 30, 80, 6)
            tau = random_type(rng)
            for base in decide_ssp(ts, tau).regions:
                for atom in rng.sample(list(ts.atoms()), 10):
                    tried += 1
                    repaired += check_repair(ts, tau, base, atom) is not None
    assert repaired > 100


@pytest.mark.slow
def test_a_repair_changes_the_base_region_only_around_the_atom_on_m4(m4_sweep):
    # at each of the schedule's radii alone and the repair's own share,
    # from the sweep's own regions
    ts, report = m4_sweep
    for radius in engine._REPAIR_RADII:
        rng = random.Random(26)
        repaired = 0
        with wide_repairs(share=engine._REPAIR_SHARE, radii=(radius,)):
            for base in report.regions[::10]:
                for atom in rng.sample(list(ts.atoms()), 10):
                    repaired += check_repair(ts, SWAP_FREE, base, atom) is not None
        assert repaired > 20, radius


def test_a_repair_schedule_returns_its_first_radius_that_finds_a_region():
    # a schedule tries its radii in order: its region is the one the first
    # of them finds alone, after the nodes of the tries before it, and None
    # when none does; and every try's nodes count against the budget
    rng = random.Random(30)
    radii = (1, 2, 3)
    found_by = [0] * (len(radii) + 1)
    for ts in repair_test_systems(rng)[:2]:
        for _ in range(10):
            tau = random_type(rng)
            mask = type_mask(tau)
            for base in decide_ssp(ts, tau).regions[:3]:
                atoms = [atom for atom in ts.atoms() if not base.solves(atom)]
                for atom in rng.sample(atoms, min(5, len(atoms))):
                    pair = (ts.sidx[atom[0]], ts.sidx[atom[1]])
                    tries = []
                    for schedule in [*((r,) for r in radii), radii]:
                        search = _AtomSearch(ts, mask, None)
                        with wide_repairs(radii=schedule):
                            tries.append((search._repair(pair, base), search.expanded))
                    *alone, (region, nodes) = tries
                    first = next(
                        (k for k, (r, _) in enumerate(alone) if r is not None),
                        len(radii),
                    )
                    assert region == (alone[first][0] if alone[first:] else None)
                    assert nodes == sum(spent for _, spent in alone[: first + 1])
                    found_by[first] += 1
                    if nodes:
                        search = _AtomSearch(ts, mask, nodes - 1)
                        with wide_repairs(radii=radii):
                            with pytest.raises(engine._Exhausted):
                                search._repair(pair, base)
                        assert search.expanded == nodes - 1
    assert min(found_by) > 5, found_by


class EveryEventRepair(_AtomSearch):
    """A search that branches over every event in its ``order``, repairs
    included, not over the ball's events only."""

    def _expand(self, order, *rest):
        return super()._expand(self.order, *rest)


def test_a_repair_branches_only_over_the_balls_events():
    # every other event keeps the base's interaction, so both branch on
    # the same events: the same region or None, nodes and revisions
    rng = random.Random(31)
    outcomes = set()
    for ts in repair_test_systems(rng)[:2]:
        for _ in range(10):
            tau = random_type(rng)
            mask = type_mask(tau)
            for base in decide_ssp(ts, tau).regions[:3]:
                for atom in rng.sample(list(ts.atoms()), 5):
                    pair = (ts.sidx[atom[0]], ts.sidx[atom[1]])
                    for schedule in [(1,), (2,), (1, 2)]:
                        tries = []
                        for search in (
                            _AtomSearch(ts, mask, None),
                            EveryEventRepair(ts, mask, None),
                        ):
                            with wide_repairs(radii=schedule):
                                region = search._repair(pair, base)
                            tries.append((region, search.expanded, search.revisions))
                        assert tries[0] == tries[1], (tau, atom, schedule)
                        outcomes.add(tries[0][0] is None)
    assert outcomes == {True, False}


def repair_test_systems(rng):
    """Systems of 30 to 60 states: both nop-inp instances, which have the
    property under many types and so get many repairs, and random ones."""
    return [
        gen_nop_inp(example_formula()).ts,
        gen_nop_inp(unsat_formula_m4()).ts,
        *(sized_ts(rng, 30, 60, 6) for _ in range(20)),
    ]


def test_repaired_sweeps_decide_as_the_region_scan():
    # the region scan runs plain searches; a repaired sweep finds other
    # regions, but the decision, witness and atoms checked are the system's
    rng = random.Random(27)
    repaired = 0
    with wide_repairs(share=1 / 2, radii=(1, 2)):
        for k, ts in enumerate(repair_test_systems(rng)):
            for _ in range(20 if k < 2 else 3):
                tau = random_type(rng)
                report = decide_ssp(ts, tau)
                want = sweep_by_region_scan(ts, tau)
                got = sweep_counts(report)
                assert (got[0], got[2], got[3]) == (want[0], want[2], want[3]), tau
                assert_regions_back_decision(ts, tau, report)
                if report.decision is Decision.HAS_SSP:
                    assert report.stats.atoms_searched == len(report.regions)
                repaired += report.stats.atoms_repaired
    assert repaired > 100


@pytest.mark.slow
def test_the_m4_sweep_decides_as_the_region_scan(m4_sweep):
    ts, report = m4_sweep
    want = sweep_by_region_scan(ts, SWAP_FREE, None)
    got = sweep_counts(report)
    assert (got[0], got[2], got[3]) == (want[0], want[2], want[3])
    assert report.stats.atoms_repaired > 0


def sweep_with_repairs(search, ts):
    """Run ``search`` on every atom with the last region found as its
    base, as a sweep does, and return how many it repaired."""
    base, repaired = None, 0
    for atom in ts.atoms():
        verdict = search.run(pair_of(ts, atom), base)
        repaired += verdict.repaired
        if verdict.region is not None:
            base = verdict.region
    return repaired


def test_repairs_keep_the_union_find_invariant_and_propagate_to_closures():
    # a repair's start state is built whole, not by unions; the checks run
    # through it, its propagation and its rollbacks
    rng = random.Random(28)
    repaired = 0
    with wide_repairs():
        systems = [
            (random_ts(rng, max_states=8, max_events=4), rng.randrange(256))
            for _ in range(100)
        ]
        ts = gen_nop_inp(unsat_formula_m4()).ts
        systems += [(ts, type_mask(NOP_INP)), (ts, type_mask(frozenset(Interaction)))]
        for ts, mask in systems:
            checking = InvariantCheckingSearch(ts, mask, search_records())
            repaired += sweep_with_repairs(checking, ts)
            repaired += sweep_with_repairs(ClosureCheckingSearch(ts, mask, None), ts)
    assert repaired > 200


def check_repair_budgets(ts, mask, atom, base):
    """An atom's budget counts its repair's nodes and then its search's:
    under a budget below the nodes the atom spends unlimited it runs out
    of budget after exactly that many, and under any other it gets the
    unlimited verdict.  A repair that finds nothing hands the atom to the
    plain search, which alone decides it.  Returns whether the repair
    found the region."""
    def verdict(budget, base):
        v = _AtomSearch(ts, mask, budget).run(pair_of(ts, atom), base)
        return v.status, v.region, v.nodes, v.repaired

    unlimited = verdict(None, base)
    plain = verdict(None, None)
    if not unlimited[3]:
        assert unlimited[:2] == plain[:2]
        tries = len(engine._REPAIR_RADII)
        assert plain[2] <= unlimited[2] <= plain[2] + tries * engine._REPAIR_NODES
    for budget in range(unlimited[2] + 2):
        if budget < unlimited[2]:
            assert verdict(budget, base) == (AtomStatus.EXHAUSTED, None, budget, False)
        else:
            assert verdict(budget, base) == unlimited
    return unlimited[3]


def test_a_repair_spends_the_atoms_budget():
    rng = random.Random(29)
    repaired = failed = 0
    with wide_repairs(share=1 / 2, radii=(2,)):
        for ts in repair_test_systems(rng)[:2]:
            for _ in range(8):
                tau = random_type(rng)
                regions = decide_ssp(ts, tau).regions
                for base in regions[:3]:
                    for atom in rng.sample(list(ts.atoms()), 4):
                        if check_repair_budgets(ts, type_mask(tau), atom, base):
                            repaired += 1
                        else:
                            failed += 1
    assert repaired > 20 and failed > 20


@pytest.mark.slow
@pytest.mark.parametrize("budget", [1, 5, 40])
def test_budgeted_m4_sweeps_never_contradict_the_unlimited_one(m4_sweep, budget):
    # a repair's nodes count against the atom's budget, and a budgeted
    # sweep either decides as the unlimited one or is undecided
    ts, unlimited = m4_sweep
    report = decide_ssp(ts, SWAP_FREE, budget)
    assert report.stats.atoms_repaired > 0
    if report.decision is not Decision.UNKNOWN:
        assert report.decision is unlimited.decision
        assert report.witness_atom == unlimited.witness_atom
        assert report.stats.atoms_checked == unlimited.stats.atoms_checked


@st.composite
def scan_inputs(draw):
    """A state count n of 1 to 70, the supports a scan starts with, and the
    ones it is fed atom by atom, None for an atom that gets none: drawn
    from a few ints over n bits, their complements, and the all-0 and all-1
    supports, so duplicates and complements come up."""
    n = draw(st.integers(1, 70))
    full = (1 << n) - 1
    some = draw(st.lists(st.integers(0, full), max_size=6))
    pool = st.sampled_from([0, full, *some, *(full ^ sup for sup in some)])
    initial = draw(st.lists(pool, max_size=6))
    fed = draw(st.lists(st.none() | pool, max_size=40))
    return n, initial, fed


@settings(max_examples=300, deadline=None, derandomize=True)
@given(scan_inputs())
@example((1, [], []))
@example((5, [], []))
@example((70, [0, (1 << 70) - 1], [None, 0, (1 << 70) - 1]))
def test_scan_yields_the_atoms_no_support_splits(inputs):
    # the atoms in sorted order that no support so far splits, where the
    # support fed after an atom counts from the next atom on and an atom
    # fed None adds none; the scan must yield the same ones
    n, initial, fed = inputs

    def walk():
        supports, feed, atoms = list(initial), iter(fed), []
        for i, j in combinations(range(n), 2):
            if any((sup >> i ^ sup >> j) & 1 for sup in supports):
                continue
            atoms.append((i, j))
            sup = next(feed, None)
            if sup is not None:
                supports.append(sup)
        return atoms

    supports, feed, atoms = list(initial), iter(fed), []
    for atom in _unseparated(n, supports):
        atoms.append(atom)
        sup = next(feed, None)
        if sup is not None:
            supports.append(sup)
    assert atoms == walk()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.integers(1, 70).flatmap(
        lambda n: st.lists(st.binary(min_size=n, max_size=n), min_size=1, max_size=8)
    )
)
def test_state_codes_are_the_refine_fold_of_the_rows(rows):
    # the batch check's codes, read off the packed support rows at once,
    # and the support ints of the scan, against the rows bit by bit: the
    # fold appends each state's bit under a row to its code, as the
    # oracle's class codes do
    rows = [bytes(byte & 1 for byte in row) for row in rows]
    n = len(rows[0])
    cls = [0] * n
    for row in rows:
        cls = [c + c + bit for c, bit in zip(cls, row)]
    assert _state_codes(rows, n) == cls
    for row in rows:
        assert _support_int(row) == sum(bit << i for i, bit in enumerate(row))


def corrupt_region(region, how, ts, tau, rng):
    """A copy of ``region`` with one corruption ``how``, or None when the
    system has no event or the type no interaction outside it that the
    corruption needs."""
    support, signature = dict(region.support), dict(region.signature)
    state = rng.choice(ts.states)
    if how == "flipped bit":
        support[state] ^= 1
    elif how == "outside tau":
        outside = [i for i in INTERACTION_ORDER if i not in tau]
        if not outside or not signature:
            return None
        signature[rng.choice(ts.events)] = rng.choice(outside)
    elif how == "reordered":
        support = dict(reversed(support.items()))
        signature = dict(reversed(signature.items()))
    elif how == "impostor":
        # an object with an interaction's step cells, but no interaction
        if not signature:
            return None
        event = rng.choice(ts.events)
        signature[event] = SimpleNamespace(cells=signature[event].cells)
    elif how == "value 2":
        support[state] = 2
    elif how == "value 1.0":
        support[state] = float(support[state])
    elif how == "missing key" and signature and rng.random() < 0.5:
        del signature[rng.choice(ts.events)]
    elif how == "missing key":
        del support[state]
    return Region(support, signature)


def pack(region, ts):
    """``region`` packed as the search packs one, over the system's indexes."""
    return Region(
        PackedMap(ts.sidx, bytes(region.support[s] for s in ts.states)),
        PackedSignature(ts.eidx, bytes(region.signature[e].bit for e in ts.events)),
    )


#: The bytes a packed signature may not hold: every byte but the eight
#: interactions' type-mask bits.
NON_BIT_BYTES = sorted(set(range(256)) - {i.bit for i in INTERACTION_ORDER})


def corrupt_packed(region, how, ts, tau, rng):
    """A copy of the packed ``region`` with one corruption ``how`` of its
    rows or indexes, or None when the system has no event or the type no
    interaction outside it that the corruption needs."""
    support, signature = region
    sup_row, sig_row = bytearray(support.row), bytearray(signature.row)
    sup_index, sig_index = support.index, signature.index
    on_signature = bool(sig_row) and rng.random() < 0.5
    if how == "packed flipped bit":
        sup_row[rng.randrange(len(sup_row))] ^= 1
    elif how == "packed value 2":
        sup_row[rng.randrange(len(sup_row))] = 2
    elif how == "packed short row" and on_signature:
        del sig_row[-1]
    elif how == "packed short row":
        del sup_row[-1]
    elif how == "packed equal index":
        # another system's index, equal to this one's but not the same object
        twin = validate_ts(ts.edges, ts.initial)
        if on_signature:
            sig_index = twin.eidx
        else:
            sup_index = twin.sidx
    else:
        outside = [i.bit for i in INTERACTION_ORDER if i not in tau]
        if how == "packed non-bit byte":
            outside = NON_BIT_BYTES
        if not outside or not sig_row:
            return None
        sig_row[rng.randrange(len(sig_row))] = rng.choice(outside)
    return Region(
        PackedMap(sup_index, bytes(sup_row)),
        PackedSignature(sig_index, bytes(sig_row)),
    )


@pytest.mark.parametrize(
    "shape, size, digest",
    [
        (
            (3, 2, 5000),
            445,
            "e67b8b89035a615bbcfae62c51c35b0c469e470e8c14359c85c562fe1423af3a",
        ),
        (
            (4, 3, 5000),
            536,
            "2f9cf2875e8b050a5affba848ba1672a2020c2e8b33fb2c6da86a07ab1de9cd0",
        ),
        (
            (4, 2, 400_000),
            10_595,
            "362a1bf6101d06f5ae0701e261d15d54fac3291b424988d827ffbb6d12f8f7d7",
        ),
    ],
    ids=["n3-k2", "n4-k3", "n4-k2"],
)
def test_small_families_are_pinned(shape, size, digest):
    # the corpus of the batch check below and of criteria 4 and 8, system
    # by system and in order: a reordered family would silently pair the
    # batch check's systems with other random types
    max_states, max_events, table_budget = shape
    family = enumerate_small_ts(max_states, max_events, table_budget=table_budget)
    dump = json.dumps([[ts.initial, ts.edges] for ts in family])
    assert len(family) == size
    assert hashlib.sha256(dump.encode()).hexdigest() == digest


def outcome(check):
    try:
        return check()
    except PartialAssignment:
        return PartialAssignment


@pytest.mark.parametrize(
    "how",
    [
        "none",
        "reordered",
        "flipped bit",
        "outside tau",
        "impostor",
        "value 2",
        "value 1.0",
        "missing key",
        "packed",
        "packed flipped bit",
        "packed value 2",
        "packed short row",
        "packed equal index",
        "packed outside tau",
        "packed non-bit byte",
        "mixed",
    ],
)
def test_batch_check_agrees_with_is_region(how, monkeypatch):
    # every system of up to 3 states and 2 events, each under a random
    # type, with one of its regions corrupted.  The packed cases pack every
    # region as the search does and corrupt one's rows or indexes: where
    # every region is still packed over the system's own indexes, with
    # rows of their length, support bytes 0 or 1 and signature bytes
    # interactions' type-mask bits, the batch pass agrees with
    # is_region, and otherwise it reads False, though the region packed
    # over an index equal to the system's is one.  The other cases keep
    # every region a dict, and the mixed case packs every other one: the
    # pass reads a region the search does not pack as none, valid or not.
    # It never calls is_region
    rng = random.Random(f"batch check {how}")
    packed = how.startswith("packed")
    corrupt = corrupt_packed if packed else corrupt_region
    misfit = how in (
        "packed value 2",
        "packed short row",
        "packed equal index",
        "packed non-bit byte",
    )

    def refuse(*args):
        raise AssertionError("the batch pass called is_region")

    monkeypatch.setattr(engine, "is_region", refuse)
    seen = []
    for ts in enumerate_small_ts(3, 2):
        tau = random_type(rng)
        regions = brute_force_regions(ts, tau)
        if not regions:
            continue
        if packed:
            regions = [pack(r, ts) for r in regions]
        elif how == "mixed":
            first = rng.randrange(2)
            regions = [
                pack(r, ts) if (k + first) % 2 else r for k, r in enumerate(regions)
            ]
        k = rng.randrange(len(regions))
        if how not in ("none", "packed", "mixed"):
            regions[k] = corrupt(regions[k], how, ts, tau, rng)
            if regions[k] is None:
                continue
        want = outcome(lambda: all(is_region(ts, tau, r) for r in regions))
        fits = not misfit and all(type(r.support) is PackedMap for r in regions)
        got = _all_regions(ts, type_mask(tau), regions)
        assert got is (want is True and fits), (ts, tau, k)
        seen.append(want)
    assert len(seen) > 200
    expected = {
        "none": {True},
        "reordered": {True},
        "flipped bit": {True, False},
        "outside tau": {False},
        "impostor": {False},
        "value 2": {PartialAssignment},
        "value 1.0": {PartialAssignment},
        "missing key": {PartialAssignment},
        "packed": {True},
        "packed flipped bit": {True, False},
        "packed value 2": {PartialAssignment},
        "packed short row": {PartialAssignment},
        "packed equal index": {True},
        "packed outside tau": {False},
        "packed non-bit byte": {False},
        "mixed": {True},
    }[how]
    assert set(seen) == expected


def test_a_sweep_refuses_a_region_the_search_did_not_pack(monkeypatch):
    # a search whose region comes back with its signature as a dict, the
    # same region otherwise: the batch pass reads it as no region, and the
    # sweep's check fails.  The system has one atom, so no repair reads
    # the region's rows
    ts = validate_ts([("s0", "a", "s1")], "s0")
    tau = type_of(I.INP)
    region = solve_atom(ts, tau, ("s0", "s1")).region
    unpacked = Region(region.support, dict(region.signature))
    assert is_region(ts, tau, unpacked)
    assert _all_regions(ts, type_mask(tau), [region])
    assert not _all_regions(ts, type_mask(tau), [unpacked])
    run = _AtomSearch.run

    def run_unpacked(self, pair, base=None):
        verdict = run(self, pair, base)
        support, signature = verdict.region
        return verdict._replace(region=Region(support, dict(signature)))

    monkeypatch.setattr(_AtomSearch, "run", run_unpacked)
    with pytest.raises(InternalCheckFailed):
        decide_ssp(ts, tau)


def test_a_packed_signature_holds_exactly_the_interactions_bits():
    # every byte value as the one byte of a region's signature on a
    # one-edge system, under the type of all eight interactions: each
    # interaction's type-mask bit decodes to it, is packed as the search
    # packs, and passes the batch check as is_region does; every other
    # byte decodes to None, is refused, and makes no region, alone or
    # next to a region
    ts = validate_ts([("s0", "a", "s1")], "s0")
    tau = frozenset(Interaction)
    support = PackedMap(ts.sidx, bytes([0, 1]))
    swap = Region(support, PackedSignature(ts.eidx, bytes([I.SWAP.bit])))
    mask = type_mask(tau)
    decoded = {}
    carriers = set()
    for byte in range(256):
        region = Region(support, PackedSignature(ts.eidx, bytes([byte])))
        interaction = region.signature["a"]
        assert list(region.signature.values()) == [interaction]
        rows = _packed_rows(region, ts.sidx, ts.eidx)
        if interaction is None:
            assert rows is None
            assert not is_region(ts, tau, region)
            assert not _all_regions(ts, mask, [region])
            assert not _all_regions(ts, mask, [swap, region])
            continue
        decoded[byte] = interaction
        assert rows == (support.row, bytes([byte]))
        carried = _all_regions(ts, mask, [swap, region])
        assert carried is is_region(ts, tau, region)
        if carried:
            carriers.add(interaction)
    assert decoded == {i.bit: i for i in INTERACTION_ORDER}
    assert carriers == {I.OUT, I.SET, I.SWAP}  # the steps from 0 to 1


SWAP_FAMILY = [
    type_of(I.SWAP, *extra) for extra in ((), (I.INP,), (I.OUT,), (I.INP, I.OUT))
]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(small_systems)
def test_swap_fast_path_matches_oracle(ts):
    for tau in SWAP_FAMILY:
        got = fast_path_swap_core(ts, tau)
        want = brute_force_decide(ts, tau)
        assert got.decision is want.decision
        assert got.witness_atom == want.witness_atom
        if got.witness_atom is not None:
            verdict = solve_atom(ts, tau, got.witness_atom)
            assert verdict.status is AtomStatus.UNSOLVABLE
        else:
            assert_regions_back_decision(ts, tau, got)


class TestFastPath:
    def test_rejects_other_types(self):
        with pytest.raises(WrongTypeFamily):
            fast_path_swap_core(fixture_single_state(), NOP_INP)
        with pytest.raises(WrongTypeFamily):
            fast_path_swap_core(
                fixture_single_state(), type_of(I.INP, I.OUT)
            )

    def test_single_state(self):
        report = fast_path_swap_core(fixture_single_state(), type_of(I.SWAP))
        assert report.decision is Decision.HAS_SSP

    def test_loop_kills_everything(self):
        looped = validate_ts([("a", "x", "b"), ("b", "y", "b")], "a")
        report = fast_path_swap_core(looped, type_of(I.SWAP, I.INP))
        assert report.decision is Decision.LACKS_SSP

    def test_two_states_separable(self):
        report = fast_path_swap_core(fixture_event_cycle(), type_of(I.SWAP))
        assert report.decision is Decision.HAS_SSP

    def test_three_states_never_separable(self):
        chain = validate_ts([("a", "x", "b"), ("b", "y", "c")], "a")
        report = fast_path_swap_core(chain, type_of(I.SWAP, I.INP, I.OUT))
        assert report.decision is Decision.LACKS_SSP
        # the witness pair really is unsolvable
        verdict = solve_atom(
            chain, type_of(I.SWAP, I.INP, I.OUT), report.witness_atom
        )
        assert verdict.status is AtomStatus.UNSOLVABLE

    def test_odd_cycle_leaves_one_class(self):
        triangle = validate_ts(
            [("a", "x", "b"), ("b", "y", "c"), ("a", "z", "c")], "a"
        )
        for tau in SWAP_FAMILY:
            report = fast_path_swap_core(triangle, tau)
            assert report.decision is Decision.LACKS_SSP
            assert report.witness_atom == ("a", "b")

    def test_two_states_get_the_colouring_as_region(self):
        for tau in SWAP_FAMILY:
            report = fast_path_swap_core(fixture_event_cycle(), tau)
            assert len(report.regions) == 1
            assert report.stats.atoms_searched == 0

    def test_branching_witness(self):
        fork = validate_ts([("a", "x", "b"), ("a", "y", "c")], "a")
        report = fast_path_swap_core(fork, type_of(I.SWAP))
        assert report.decision is Decision.LACKS_SSP
        assert report.witness_atom == ("b", "c")


class TestReportRecords:
    def test_reports_share_no_regions_or_stats(self):
        first, second = (
            SeparationReport(decision=Decision.HAS_SSP, witness_atom=None)
            for _ in range(2)
        )
        assert first == second
        assert first.regions is not second.regions
        assert first.stats is not second.stats
        first.regions.append(None)
        first.stats.nodes_expanded += 1
        assert second.regions == [] and second.stats == SearchStats()
        assert first != second

    def test_repr_names_every_field(self):
        report = SeparationReport(decision=Decision.LACKS_SSP, witness_atom=("a", "b"))
        assert repr(report) == (
            "SeparationReport(decision=<Decision.LACKS_SSP: 'lacks-ssp'>, "
            "witness_atom=('a', 'b'), regions=[], stats=SearchStats("
            "atoms_checked=0, atoms_searched=0, nodes_expanded=0, revisions=0, "
            "wall_ms=0.0, atoms_repaired=0))"
        )

    def test_reports_compare_by_class_and_do_not_hash(self):
        stats = SearchStats(nodes_expanded=3)
        assert stats == SearchStats(0, 0, 3)
        fields = {name: getattr(stats, name) for name in stats.__slots__}
        assert stats != SimpleNamespace(**fields)
        for record in (stats, SeparationReport(Decision.UNKNOWN, None)):
            with pytest.raises(TypeError):
                hash(record)


class TestEmbeddingCertificate:
    def test_vacuous_single_state(self):
        cert = embedding_certificate(fixture_single_state(), [])
        assert cert.injective

    def test_detects_collision(self):
        ts = fixture_parallel_pair()
        same = Region({"r0": 1, "r1": 1}, {"b": I.NOP, "c": I.NOP})
        cert = embedding_certificate(ts, [same])
        assert not cert.injective
        assert cert.vectors["r0"] == cert.vectors["r1"] == (1,)


def reference_revise(mask, source, target, parity):
    """The per-interaction loop that the propagation tables replace.

    Keeps the interactions of ``mask`` with a step x -> apply(x) that fits
    the known source value, target value and parity (None: unknown), and
    collects the values and parities of those steps as 2-bit sets.
    """
    kept = xs = ys = ps = 0
    for bit, interaction in enumerate(INTERACTION_ORDER):
        if not mask >> bit & 1:
            continue
        for x in (0, 1):
            y = interaction.apply(x)
            if y is None or source not in (None, x) or target not in (None, y):
                continue
            if parity not in (None, x ^ y):
                continue
            kept |= 1 << bit
            xs |= 1 << x
            ys |= 1 << y
            ps |= 1 << (x ^ y)
    return kept, xs, ys, ps


KNOWLEDGE = list(product((0, 1, None), repeat=3))


class TestPropagationTables:
    def test_tables_match_the_reference_loop(self):
        for mask, (source, target, parity) in product(range(256), KNOWLEDGE):
            allowed = 15
            for value, is_value in (
                (source, _SOURCE_IS), (target, _TARGET_IS), (parity, _PARITY_IS)
            ):
                if value is not None:
                    allowed &= is_value[value]
            kept = mask & _KEEPS[allowed]
            got = (kept, *_PROJ[_STEPS[kept] & allowed])
            assert got == reference_revise(mask, source, target, parity), (
                mask, source, target, parity
            )

    def test_a_valuation_queues_the_edges_it_teaches(self):
        # one edge a -e-> b with one end valued and the other unvalued: the
        # valuation queues the edge iff _TEACHES says so, and that is iff
        # revising it then changes something, failing, shrinking the
        # domain or forcing the other end
        edge = validate_ts([("a", "e", "b")], "a")
        for mask, end, value in product(range(256), (0, 1), (0, 1)):
            teaches = _TEACHES[mask] >> (2 * end + value) & 1
            search = _AtomSearch(edge, mask, None)
            search._reset()
            search._union(end, search.zero, value)
            assert search.queue == [0] * teaches, (mask, end, value)
            search._enqueue_all([0])
            trail = search.state[6]
            mark = len(trail)
            changed = not search._propagate() or len(trail) > mark
            assert changed == bool(teaches), (mask, end, value)

    def test_revise_matches_the_reference_loop(self):
        # one edge a -e-> b; the union-find can know the source value, the
        # target value, the parity, or all three at once
        edge = validate_ts([("a", "e", "b")], "a")
        for mask, (source, target, parity) in product(range(256), KNOWLEDGE):
            known = 3 - (source, target, parity).count(None)
            if known == 2 or (known == 3 and source ^ target != parity):
                continue
            search = _AtomSearch(edge, mask, None)
            search._reset()
            zero = search.zero
            if source is not None:
                search._union(0, zero, source)
            if target is not None:
                search._union(1, zero, target)
            if known == 1 and parity is not None:
                search._union(0, 1, parity)

            def value(u, v):
                parent, par = search.state[:2]
                return par[u] ^ par[v] if parent[u] == parent[v] else None

            kept, xs, ys, ps = reference_revise(mask, source, target, parity)
            search._enqueue_all([0])
            assert search._propagate() == (kept != 0)
            if kept:
                forced = [s >> 1 if s in (1, 2) else None for s in (xs, ys, ps)]
                assert search.state[5][0] == kept
                assert [value(0, zero), value(1, zero), value(0, 1)] == forced
