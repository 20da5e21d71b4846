from collections import defaultdict
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings, strategies as st

from ssp_kit.classify import enumerate_types
from ssp_kit.core import (
    Interaction,
    InvalidIdentifier,
    NondeterministicEdge,
    NopNotInType,
    PartialAssignment,
    Region,
    TransitionSystem,
    UnreachableState,
    is_normalized,
    is_region,
    normalize_region,
    propagate_region,
    type_name,
    type_of,
    validate_ts,
)
from ssp_kit.engine import _AtomSearch, solve_atom
from ssp_kit.verify import random_ts

I = Interaction

APPLY_TABLE = {
    (I.NOP, 0): 0, (I.NOP, 1): 1,
    (I.INP, 0): None, (I.INP, 1): 0,
    (I.OUT, 0): 1, (I.OUT, 1): None,
    (I.RES, 0): 0, (I.RES, 1): 0,
    (I.SET, 0): 1, (I.SET, 1): 1,
    (I.SWAP, 0): 1, (I.SWAP, 1): 0,
    (I.USED, 0): None, (I.USED, 1): 1,
    (I.FREE, 0): 0, (I.FREE, 1): None,
}


def test_interaction_table_all_sixteen_cells():
    for (interaction, x), expected in APPLY_TABLE.items():
        assert interaction.apply(x) == expected
        assert interaction.pair[x] == expected
    for interaction in Interaction:
        assert interaction.pair == (
            APPLY_TABLE[interaction, 0], APPLY_TABLE[interaction, 1]
        )


def test_type_name_canonical_order():
    assert type_name(type_of(I.FREE, I.NOP, I.SWAP)) == "nop,swap,free"
    assert type_name(frozenset()) == ""


class TestValidateTs:
    def test_builds_sorted_canonical_form(self):
        ts = validate_ts([("b", "y", "a"), ("a", "x", "b")], "a")
        assert ts.states == ("a", "b")
        assert ts.events == ("x", "y")
        assert ts.edges == (("a", "x", "b"), ("b", "y", "a"))

    def test_duplicate_edges_collapse(self):
        ts = validate_ts([("a", "x", "b"), ("a", "x", "b")], "a")
        assert len(ts.edges) == 1

    def test_nondeterminism_rejected(self):
        with pytest.raises(NondeterministicEdge):
            validate_ts([("a", "x", "b"), ("a", "x", "a")], "a")

    def test_unreachable_rejected(self):
        with pytest.raises(UnreachableState) as caught:
            validate_ts([("b", "x", "c")], "a")
        assert caught.value.states == ("b", "c")

    def test_empty_state_set_impossible_via_initial(self):
        # the initial state always exists; an explicitly empty universe
        # cannot be expressed, so the single-state system is the minimum
        ts = validate_ts([], "only")
        assert ts.states == ("only",)
        with pytest.raises(InvalidIdentifier):
            validate_ts([], "")

    def test_bad_identifier_rejected(self):
        with pytest.raises(InvalidIdentifier):
            validate_ts([("a", "x y", "b")], "a")

    @pytest.mark.parametrize(
        "edges, initial",
        [
            ([("a", 1, "b")], "a"),
            ([("a", "x", "b")], 1),
            ([("a", "x", None)], "a"),
        ],
    )
    def test_non_string_name_rejected(self, edges, initial):
        # a plain sort of these names raises TypeError
        with pytest.raises(InvalidIdentifier):
            validate_ts(edges, initial)

    @pytest.mark.parametrize(
        "edges, initial",
        [
            ([("a", ["x"], "b")], "a"),
            ([5], "a"),
            ([], ["a"]),
        ],
    )
    def test_unhashable_name_or_non_sequence_edge_rejected(self, edges, initial):
        # collecting these raises TypeError: a list has no hash, an int no len
        with pytest.raises(InvalidIdentifier):
            validate_ts(edges, initial)

    def test_flags(self):
        cycle = validate_ts([("a", "x", "b"), ("b", "x", "a")], "a")
        assert cycle.loop_free
        looped = validate_ts([("a", "x", "b"), ("b", "y", "b")], "a")
        assert not looped.loop_free
        oneway = validate_ts([("a", "x", "b")], "a")
        assert oneway.loop_free

    def test_atoms_sorted(self):
        ts = validate_ts([("c", "x", "a"), ("c", "y", "b")], "c")
        assert list(ts.atoms()) == [("a", "b"), ("a", "c"), ("b", "c")]


class TestIntegerForm:
    EDGES = [("a", "y", "b"), ("b", "x", "c"), ("c", "x", "c"), ("a", "x", "b")]

    def test_integer_form(self):
        ts = validate_ts(self.EDGES, "a")
        assert ts.sidx == {"a": 0, "b": 1, "c": 2}
        assert ts.eidx == {"x": 0, "y": 1}
        # events x = 0, y = 1; arcs grouped by event in sorted edge order
        assert ts.arcs == [(0, 0, 1), (1, 0, 2), (2, 0, 2), (0, 1, 1)]
        assert ts.event_arcs == [[0, 1, 2], [3]]
        # the loop on c is listed once
        assert ts.state_arcs == [[0, 3], [0, 1, 3], [1, 2]]
        # the branching order, busiest event first, is the search's own
        assert not hasattr(ts, "order")
        assert _AtomSearch(ts, 0, None).order == [0, 1]

    def test_arcs_are_not_in_edge_order(self):
        ts = validate_ts(self.EDGES, "a")
        named = [
            (ts.states[si], ts.events[ei], ts.states[ti]) for si, ei, ti in ts.arcs
        ]
        assert sorted(named) == list(ts.edges) != named
        # state_arcs and event_arcs hold positions in arcs; read in edges,
        # y's one position would name an x-edge
        assert [ts.arcs[k] for k in ts.event_arcs[1]] == [(0, 1, 1)]
        assert ts.edges[ts.event_arcs[1][0]][1] == "x"
        assert [ts.arcs[k] for k in ts.state_arcs[0]] == [(0, 0, 1), (0, 1, 1)]

    def test_fields_are_frozen(self):
        ts = validate_ts(self.EDGES, "a")
        for name, value in (("states", ()), ("arcs", []), ("event_arcs", [])):
            with pytest.raises(FrozenInstanceError):
                setattr(ts, name, value)

    def test_every_field_is_frozen(self):
        ts = validate_ts(self.EDGES, "a")
        assert not hasattr(ts, "__dict__")
        assert len(ts.__slots__) == 10
        for name in ts.__slots__:
            value = getattr(ts, name)
            with pytest.raises(FrozenInstanceError):
                setattr(ts, name, value)
            with pytest.raises(FrozenInstanceError):
                delattr(ts, name)
            assert getattr(ts, name) is value
        with pytest.raises(FrozenInstanceError):
            ts.extra = None

    def test_repr_counts_the_parts(self):
        ts = validate_ts(self.EDGES, "a")
        assert repr(ts) == "TransitionSystem(3 states, 2 events, 4 edges, initial='a')"

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(st.randoms(use_true_random=False))
    def test_index_lists_every_edge_once(self, rng):
        ts = random_ts(rng, max_states=7, max_events=4)
        named = [
            (ts.states[si], ts.events[ei], ts.states[ti])
            for si, ei, ti in ts.arcs
        ]
        assert sorted(named) == list(ts.edges)
        assert named == sorted(named, key=lambda edge: (edge[1], edge[0], edge[2]))
        ends = [(si, ti) for si, _, ti in ts.arcs]
        assert ts.state_arcs == [
            [k for k, pair in enumerate(ends) if s in pair]
            for s in range(len(ts.states))
        ]
        assert ts.event_arcs == [
            [k for k, (_, ei, _) in enumerate(ts.arcs) if ei == e]
            for e in range(len(ts.events))
        ]

    def test_equality_and_hash_ignore_the_index(self):
        first = validate_ts(self.EDGES, "a")
        second = validate_ts(list(reversed(self.EDGES)), "a")
        assert first == second and hash(first) == hash(second)
        # a search on one of them changes neither
        solve_atom(first, type_of(I.NOP, I.INP), ("a", "b"))
        assert first == second and hash(first) == hash(second)
        assert first != validate_ts(self.EDGES[1:], "a")
        twin = validate_ts(self.EDGES, "a")
        assert twin.arcs is not first.arcs and len({first, second, twin}) == 1
        content = (first.states, first.events, first.edges, first.initial)
        assert hash(first) == hash(content) and first != content
        # nor does the event index: a copy with another one is equal
        fields = {name: getattr(first, name) for name in first.__slots__}
        other = TransitionSystem(**{**fields, "eidx": {"y": 0, "x": 1}})
        assert other.eidx != first.eidx
        assert other == first and hash(other) == hash(first)
        assert repr(other) == repr(first)


class TestRegions:
    def setup_method(self):
        self.ts = validate_ts(
            [("s0", "a", "s1"), ("s1", "b", "s2"), ("s2", "c", "s3")], "s0"
        )
        self.wide = type_of(I.NOP, I.SET, I.SWAP, I.USED)

    def test_propagate_and_validate(self):
        region = propagate_region(
            self.ts, 1, {"a": I.USED, "b": I.SWAP, "c": I.SET}
        )
        assert region is not None
        assert [region.support[s] for s in self.ts.states] == [1, 1, 0, 1]
        assert is_region(self.ts, self.wide, region)
        assert not is_region(self.ts, type_of(I.NOP), region)

    def test_propagate_hits_undefined_cell(self):
        assert propagate_region(
            self.ts, 0, {"a": I.USED, "b": I.SWAP, "c": I.SET}
        ) is None

    def test_propagate_requires_total_signature(self):
        with pytest.raises(PartialAssignment):
            propagate_region(self.ts, 0, {"a": I.NOP})

    def test_propagate_detects_merge_conflict(self):
        diamond = validate_ts(
            [("x", "a", "y"), ("x", "b", "z"), ("y", "c", "w"), ("z", "d", "w")],
            "x",
        )
        sig = {"a": I.SET, "b": I.NOP, "c": I.NOP, "d": I.NOP}
        assert propagate_region(diamond, 0, sig) is None

    def test_propagate_refuses_initial_supports_other_than_0_and_1(self):
        sig = {"a": I.USED, "b": I.SWAP, "c": I.SET}
        for value in (1.0, 0.0, 2, "1"):
            with pytest.raises(PartialAssignment):
                propagate_region(self.ts, value, sig)

    def test_is_region_partial_assignment(self):
        with pytest.raises(PartialAssignment):
            is_region(self.ts, self.wide, Region({"s0": 0}, {}))
        # a mapping with a default is still missing what it does not hold
        sig = {"a": I.NOP, "b": I.NOP, "c": I.NOP}
        with pytest.raises(PartialAssignment):
            is_region(self.ts, self.wide, Region(defaultdict(int), sig))

    def test_is_region_refuses_supports_other_than_0_and_1(self):
        edge = validate_ts([("a", "x", "b")], "a")
        for value in (1.0, 0.0, 2, "1"):
            # keyed in state order and in the other order
            for support in ({"a": value, "b": 1}, {"b": 1, "a": value}):
                region = Region(support, {"x": I.NOP})
                with pytest.raises(PartialAssignment):
                    is_region(edge, type_of(I.NOP), region)
        # a bool is an int, and reads as its value
        for value in (True, False):
            as_bool = Region({"a": value, "b": 1}, {"x": I.NOP})
            as_int = Region({"a": int(value), "b": 1}, {"x": I.NOP})
            assert is_region(edge, type_of(I.NOP), as_bool) == is_region(
                edge, type_of(I.NOP), as_int
            )

    def test_is_region_refuses_signatures_outside_the_type(self):
        edge = validate_ts([("a", "x", "b")], "a")
        for value in (I.SWAP, "nop", None, 0):
            region = Region({"a": 0, "b": 0}, {"x": value})
            assert not is_region(edge, type_of(I.NOP), region), value
        region = Region({"a": 0, "b": 0}, {"x": I.NOP})
        assert is_region(edge, type_of(I.NOP), region)

    def test_solves_and_separated_atoms(self):
        region = propagate_region(
            self.ts, 1, {"a": I.USED, "b": I.SWAP, "c": I.SET}
        )
        assert region.solves(("s1", "s2"))
        assert not region.solves(("s0", "s1"))
        assert ("s2", "s3") in region.separated_atoms(self.ts)

    def test_region_with_dict_fields_is_unhashable(self):
        region = Region({"s0": 0}, {"a": I.NOP})
        assert region == Region(support={"s0": 0}, signature={"a": I.NOP})
        with pytest.raises(TypeError):
            hash(region)


class TestNormalization:
    def setup_method(self):
        self.ts = validate_ts(
            [("s0", "a", "s1"), ("s1", "b", "s2"), ("s2", "c", "s3")], "s0"
        )
        self.wide = type_of(I.NOP, I.SET, I.SWAP, I.USED)
        self.region = propagate_region(
            self.ts, 1, {"a": I.USED, "b": I.SWAP, "c": I.SET}
        )

    def test_normalize_replaces_pure_tests(self):
        assert not is_normalized(self.ts, self.region)
        norm = normalize_region(self.ts, self.wide, self.region)
        assert is_normalized(self.ts, norm)
        assert norm.support == self.region.support
        assert norm.signature == {"a": I.NOP, "b": I.SWAP, "c": I.SET}

    def test_normalize_preserves_separated_atoms(self):
        norm = normalize_region(self.ts, self.wide, self.region)
        assert norm.separated_atoms(self.ts) == self.region.separated_atoms(
            self.ts
        )

    def test_normalize_needs_identity(self):
        with pytest.raises(NopNotInType):
            normalize_region(self.ts, type_of(I.SWAP, I.USED), self.region)

    def test_normalize_rejects_non_region(self):
        broken = Region(
            {s: 0 for s in self.ts.states},
            {e: I.SET for e in self.ts.events},
        )
        with pytest.raises(ValueError):
            normalize_region(self.ts, self.wide, broken)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.integers(0, 1), st.data())
def test_propagation_consistent_with_validation(initial_bit, data):
    # on a fixed small shape, any total signature either propagates to a
    # region or is rejected by direct validation for every support choice
    ts = validate_ts(
        [("p", "a", "q"), ("q", "b", "r"), ("p", "c", "r")], "p"
    )
    members = sorted(Interaction, key=lambda i: i.value)
    sig = {
        e: data.draw(st.sampled_from(members), label=e) for e in ts.events
    }
    tau = frozenset(sig.values())
    region = propagate_region(ts, initial_bit, sig)
    if region is not None:
        assert is_region(ts, tau, region)
        assert region.support["p"] == initial_bit
    else:
        # no support assignment with this initial bit makes sig a region
        for mask in range(8):
            support = {
                "p": initial_bit,
                "q": (mask >> 1) & 1,
                "r": mask & 1,
            }
            assert not is_region(ts, tau, Region(support, sig))


def reference_is_region(ts, tau, region):
    """The per-edge ``Interaction.apply`` loop that ``is_region``'s step
    cells replace, for a total support and signature."""
    sup, sig = region.support, region.signature
    return all(sig[e] in tau for e in ts.events) and all(
        sig[e].apply(sup[s]) == sup[t] for s, e, t in ts.edges
    )


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.randoms(use_true_random=False))
def test_is_region_matches_the_apply_loop(rng):
    ts = random_ts(rng, max_states=6, max_events=3)
    members = list(Interaction)
    outcomes = set()
    for tau in enumerate_types():
        sig = {e: rng.choice(members) for e in ts.events}
        # a random support, and the one the signature propagates to, if any
        candidates = [
            Region({s: rng.randint(0, 1) for s in ts.states}, sig),
            propagate_region(ts, rng.randint(0, 1), sig),
        ]
        # the same supports keyed in reverse state order
        candidates += [
            Region(dict(reversed(r.support.items())), sig)
            for r in filter(None, candidates)
        ]
        for region in filter(None, candidates):
            got = is_region(ts, tau, region)
            assert got == reference_is_region(ts, tau, region), (tau, region)
            outcomes.add(got)
        # a partial support or signature is still refused
        for support, signature in (
            (dict(list(candidates[0].support.items())[1:]), sig),
            (candidates[0].support, dict(list(sig.items())[1:])),
        ):
            if len(support) < len(ts.states) or len(signature) < len(ts.events):
                with pytest.raises(PartialAssignment):
                    is_region(ts, tau, Region(support, signature))
    assert outcomes == {False, True} or not ts.events
