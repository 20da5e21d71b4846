import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from ssp_kit.classify import enumerate_types
from ssp_kit.core import (
    INTERACTION_ORDER,
    Interaction,
    Region,
    is_region,
    type_mask,
    type_of,
    validate_ts,
)
from ssp_kit.engine import (
    AtomStatus,
    Decision,
    InvalidAtom,
    OracleCapExceeded,
    WrongTypeFamily,
    brute_force_decide,
    brute_force_regions,
    decide_ssp,
    embedding_certificate,
    fast_path_swap_core,
    solve_atom,
)
# the propagation tables and the search, for the white-box tests at the end
from ssp_kit.engine import (
    _KEEPS,
    _PARITY_IS,
    _PROJ,
    _SOURCE_IS,
    _STEPS,
    _TARGET_IS,
    _AtomSearch,
)
from ssp_kit.reductions import (
    example_formula,
    gen_nop_free,
    gen_nop_inp,
    unsat_formula_m4,
)
from ssp_kit.verify import (
    fixture_event_cycle,
    fixture_parallel_pair,
    fixture_single_loop,
    fixture_single_state,
    random_ts,
    random_type,
)

I = Interaction
NOP_INP = type_of(I.NOP, I.INP)


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

    def test_searches_share_the_system_index(self):
        ts = fixture_parallel_pair()
        first = solve_atom(ts, NOP_INP, ("r0", "r1"))
        index = ts.index()
        roots = index.roots[type_mask(NOP_INP)]
        again = solve_atom(ts, NOP_INP, ("r0", "r1"))
        # the second search under the type starts from the stored roots
        assert index.roots[type_mask(NOP_INP)] is roots
        assert again.revisions < first.revisions
        swap = type_mask(type_of(I.SWAP))
        solve_atom(ts, type_of(I.SWAP), ("r0", "r1"))
        assert ts.index() is index
        assert index.roots.keys() == {type_mask(NOP_INP), swap}
        assert index.roots[swap] is not roots
        copy = validate_ts(ts.edges, ts.initial)
        fresh = solve_atom(copy, NOP_INP, ("r0", "r1"))
        for verdict in (first, again):
            assert (verdict.status, verdict.nodes, verdict.region) == (
                fresh.status, fresh.nodes, fresh.region
            )

    @pytest.mark.parametrize("leaves", [1500, 5000])
    def test_deep_star(self, leaves):
        # each leaf event is branched on at its own level, so the search
        # runs far deeper than Python's default recursion limit
        star = validate_ts(
            [("c", f"e{i}", f"l{i}") for i in range(leaves)], "c"
        )
        verdict = solve_atom(star, frozenset(Interaction), ("c", "l0"))
        assert verdict.status is AtomStatus.SOLVED
        assert verdict.nodes == leaves + 1


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
        every_atom = sum(solve_atom(ts, tau, atom).nodes for atom in ts.atoms())
        assert report.decision is Decision.HAS_SSP
        assert report.stats.nodes_expanded < every_atom

    @pytest.mark.parametrize(
        "formula, expected",
        [
            (example_formula, (Decision.HAS_SSP, None, 990, 190, 18)),
            (
                unsat_formula_m4,
                (Decision.LACKS_SSP, ("g_0_1", "g_0_2"), 60, 82, 9),
            ),
        ],
    )
    def test_search_is_pinned(self, formula, expected):
        # exact counts: a change to the search order or the propagation
        # shows here before it shows anywhere else
        report = decide_ssp(gen_nop_inp(formula()).ts, NOP_INP)
        assert (
            report.decision,
            report.witness_atom,
            report.stats.atoms_checked,
            report.stats.nodes_expanded,
            len(report.regions),
        ) == expected

    @pytest.mark.parametrize(
        "budget, nodes", [(5, 1209), (10, 599)]
    )
    def test_budget_accounting_is_pinned(self, budget, nodes):
        # some atoms exhaust the cap and others are solved within it, so
        # the nodes spent show how _expand counts against the budget
        report = decide_ssp(
            gen_nop_inp(example_formula()).ts, NOP_INP, budget=budget
        )
        assert (
            report.decision,
            report.witness_atom,
            report.stats.atoms_checked,
            report.stats.nodes_expanded,
            len(report.regions),
        ) == (Decision.UNKNOWN, None, 990, nodes, 0)

    @pytest.mark.slow
    def test_nop_free_sweep_is_pinned(self):
        # the 753-state {swap, free} sweep: 47489 atoms, 194 of them searched
        report = decide_ssp(
            gen_nop_free(unsat_formula_m4()).ts, type_of(I.SWAP, I.FREE)
        )
        assert (
            report.decision,
            report.witness_atom,
            report.stats.atoms_checked,
            report.stats.nodes_expanded,
            len(report.regions),
        ) == (Decision.LACKS_SSP, ("f_0_2", "f_0_4"), 47489, 57082, 193)
        assert report.stats.revisions == 733854

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

    def test_cap_enforced(self):
        edges = [(f"s{i}", "x", f"s{i+1}") for i in range(17)]
        big = validate_ts(edges, "s0")
        with pytest.raises(OracleCapExceeded):
            brute_force_regions(big, NOP_INP)

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


class ClosureCheckingSearch(_AtomSearch):
    """A search that re-revises every edge after each successful propagation.

    Propagation is a closure iff that changes nothing: each revision
    succeeds, and no union, domain change or enqueue follows.
    """

    def _propagate(self):
        if not super()._propagate():
            return False
        mark = len(self.trail)
        for k in range(len(self.edges)):
            assert self._revise(k)
            assert len(self.trail) == mark and not self.queue, k
        return True


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.randoms(use_true_random=False).map(
        lambda rng: random_ts(rng, max_states=6, max_events=3)
    ),
    st.integers(0, 255),
)
def test_propagation_is_a_closure(ts, mask):
    # the first search checks the type's roots as it computes them; every
    # search checks its root with the atom added and each branch it tries
    for atom in ts.atoms():
        ClosureCheckingSearch(ts, mask, None).run(atom)


def sweep_by_region_scan(ts, tau):
    """The sweep with its skip rule spelled out, as a reference.

    An atom is skipped when some region found so far separates it; any
    other atom gets a ``solve_atom`` search on a freshly validated copy of
    the system, so nothing is shared between searches.
    """
    regions, witness = [], None
    checked = searched = nodes = 0
    for atom in ts.atoms():
        checked += 1
        if any(r.solves(atom) for r in regions):
            continue
        verdict = solve_atom(validate_ts(ts.edges, ts.initial), tau, atom)
        searched += 1
        nodes += verdict.nodes
        if verdict.status is AtomStatus.UNSOLVABLE:
            witness = atom
            break
        regions.append(verdict.region)
    return [r.key() for r in regions], witness, checked, searched, nodes


@settings(max_examples=200, deadline=None, derandomize=True)
@given(small_systems, st.integers(0, 255))
def test_state_classes_skip_what_the_region_scan_skips(ts, mask):
    tau = enumerate_types()[mask]
    got = decide_ssp(ts, tau)
    assert sweep_by_region_scan(ts, tau) == (
        [r.key() for r in got.regions],
        got.witness_atom,
        got.stats.atoms_checked,
        got.stats.atoms_searched,
        got.stats.nodes_expanded,
    )


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
                ru, pu = search._find(u)
                rv, pv = search._find(v)
                return pu ^ pv if ru == rv else None

            kept, xs, ys, ps = reference_revise(mask, source, target, parity)
            assert search._revise(0) == (kept != 0)
            if kept:
                forced = [s >> 1 if s in (1, 2) else None for s in (xs, ys, ps)]
                assert search.dom[0] == kept
                assert [value(0, zero), value(1, zero), value(0, 1)] == forced
