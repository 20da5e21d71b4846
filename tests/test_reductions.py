import hashlib
import json
import random
import re

import pytest

from ssp_kit.classify import flip_region, flip_type
from ssp_kit.core import (
    Interaction,
    NondeterministicEdge,
    PartialAssignment,
    is_region,
    type_of,
)
from ssp_kit.engine import (
    AtomStatus,
    decide_ssp,
    embedding_certificate,
    solve_atom,
)
from ssp_kit.formats import region_to_dict, serialize_ts
from ssp_kit.reductions import (
    DuplicateClause,
    ExtensionKind,
    FactCheckFailed,
    GadgetNameClash,
    MalformedClause,
    ModelNotOneInThree,
    NotLoopFree,
    OccurrenceNotThree,
    Region,
    SizeCapExceeded,
    VariableCountMismatch,
    check_one_in_three,
    cm_oracle,
    cm_validate,
    example_formula,
    extend,
    gen_nop_free,
    gen_nop_free_alpha_region,
    gen_nop_free_witness,
    gen_nop_inp,
    gen_nop_inp_witness,
    nop_free_expected_sizes,
    nop_free_gadget_facts,
    prime_formula,
    substitute_free_res,
)
from ssp_kit.verify import random_loopfree_safe_ts

I = Interaction
NOP_INP = type_of(I.NOP, I.INP)
SWAP_FREE = type_of(I.SWAP, I.FREE)


class TestFormulaValidation:
    def test_fixture_shape(self, phi6):
        assert phi6.m == 6
        assert phi6.variables == ("X0", "X1", "X2", "X3", "X4", "X5")

    def test_wrong_arity(self):
        with pytest.raises(MalformedClause):
            cm_validate([("a", "b")])

    def test_repeated_variable_in_clause(self):
        with pytest.raises(MalformedClause):
            cm_validate([("a", "a", "b")])

    def test_apostrophe_banned_in_names(self):
        with pytest.raises(MalformedClause):
            cm_validate([("a'", "b", "c")])

    def test_duplicate_clause(self):
        with pytest.raises(DuplicateClause):
            cm_validate([("a", "b", "c"), ("c", "b", "a")])

    def test_occurrence_count(self):
        with pytest.raises(OccurrenceNotThree):
            cm_validate(
                [
                    ("a", "b", "c"),
                    ("a", "b", "d"),
                    ("a", "c", "d"),
                    ("b", "c", "e"),
                ]
            )

    def test_declared_variables_must_match(self, phi6):
        with pytest.raises(VariableCountMismatch):
            cm_validate(phi6.clauses, variables=["X0", "X1"])

    def test_formula_is_hashable_and_equal_across_regenerations(self):
        first, second = example_formula(), example_formula()
        assert first is not second
        assert first == second and hash(first) == hash(second)
        assert len({first, second, cm_validate(first.clauses)}) == 1

    def test_size_cap(self):
        # 25 disjoint pseudo-clauses would exceed the cap, but occurrence
        # counts fail first; build a large valid formula instead by tiling
        base = example_formula()
        clauses = []
        for copy in range(5):
            for a, b, c in base.clauses:
                clauses.append(
                    (f"{a}c{copy}", f"{b}c{copy}", f"{c}c{copy}")
                )
        with pytest.raises(SizeCapExceeded):
            cm_validate(clauses)

    def test_model_checker(self, phi6):
        assert check_one_in_three(phi6, ("X0", "X4")) == {"X0", "X4"}
        with pytest.raises(ModelNotOneInThree):
            check_one_in_three(phi6, ("X0", "X1"))
        with pytest.raises(ModelNotOneInThree):
            check_one_in_three(phi6, ("ghost",))

    def test_oracle_least_model(self, phi6, phi4_unsat):
        assert cm_oracle(phi6) == ("X0", "X4")
        assert cm_oracle(phi4_unsat) is None

    def test_prime_formula(self, phi6):
        primed = prime_formula(phi6)
        assert primed.variables[0] == "X0'"
        assert cm_oracle(primed) == ("X0'", "X4'")


class TestNopInpGenerator:
    def test_sizes(self, phi6, phi4_unsat):
        inst = gen_nop_inp(phi6)
        assert len(inst.ts.states) == 7 * 6 + 3 == 45
        assert len(inst.ts.events) == 4 * 6 + 2 == 26
        assert len(inst.ts.edges) == 8 * 6 + 2 == 50
        assert inst.alpha == ("t_6_0", "t_7_0")
        small = gen_nop_inp(phi4_unsat)
        assert len(small.ts.states) == 31
        assert small.alpha == ("t_4_0", "t_5_0")

    def test_deterministic_and_loop_free(self, phi6):
        ts = gen_nop_inp(phi6).ts
        assert ts.loop_free
        assert {(t, e, s) for s, e, t in ts.edges} != set(ts.edges)

    def test_witness_regions_valid_and_covering(self, phi6):
        inst = gen_nop_inp(phi6)
        witness = gen_nop_inp_witness(phi6, ("X0", "X4"))
        assert len(witness) == 3 * 6 + 2
        for region in witness:
            assert is_region(inst.ts, NOP_INP, region)
        assert embedding_certificate(inst.ts, witness).injective

    def test_witness_requires_a_model(self, phi6):
        with pytest.raises(ModelNotOneInThree):
            gen_nop_inp_witness(phi6, ("X1",))

    def test_alpha_solvable_iff_coverable(self, phi6, phi4_unsat):
        sat = gen_nop_inp(phi6)
        assert (
            solve_atom(sat.ts, NOP_INP, sat.alpha).status
            is AtomStatus.SOLVED
        )
        unsat = gen_nop_inp(phi4_unsat)
        assert (
            solve_atom(unsat.ts, NOP_INP, unsat.alpha).status
            is AtomStatus.UNSOLVABLE
        )


class TestNopFreeGenerator:
    def test_sizes_match_inventory(self, phi6, phi4_unsat):
        for formula in (phi6, phi4_unsat):
            inst = gen_nop_free(formula)
            m = formula.m
            expected = nop_free_expected_sizes(m)
            got = (
                len(inst.ts.states),
                len(inst.ts.events),
                len(inst.ts.edges),
            )
            assert got == expected
            assert got[0] == 188 * m + 1
            assert got[1] == 78 * m + 2
            assert got[2] == 376 * m

    def test_bi_directed(self, phi6):
        inst = gen_nop_free(phi6)
        # loop-free, and every edge's reverse is an edge
        assert inst.ts.loop_free
        assert {(t, e, s) for s, e, t in inst.ts.edges} == set(inst.ts.edges)
        assert inst.alpha == ("g_0_2", "g_0_4")

    def test_alpha_region(self, phi6):
        inst = gen_nop_free(phi6)
        region = gen_nop_free_alpha_region(phi6, ("X0", "X4"))
        assert is_region(inst.ts, SWAP_FREE, region)
        assert region.solves(inst.alpha)

    def test_gadget_facts_and_model_extraction(self, phi6):
        region = gen_nop_free_alpha_region(phi6, ("X0", "X4"))
        facts = nop_free_gadget_facts(phi6, region)
        assert set(facts.bracket_signatures) == {I.SWAP, I.FREE}
        assert facts.model == ("X0", "X4")

    def test_gadget_facts_reject_partial_regions(self, phi6):
        region = gen_nop_free_alpha_region(phi6, ("X0", "X4"))
        signature = dict(region.signature)
        del signature["v_3"], signature["X2'"]
        partial = Region(support=dict(region.support), signature=signature)
        with pytest.raises(PartialAssignment, match=re.escape("['v_3', \"X2'\"]")):
            nop_free_gadget_facts(phi6, partial)

    @pytest.mark.parametrize(
        "edits, named",
        [({"k0": "free"}, "['k0']"), ({"k0": "free", "k1": "swap"}, "['k0', 'k1']")],
    )
    def test_gadget_facts_reject_foreign_signature_values(self, phi6, edits, named):
        region = gen_nop_free_alpha_region(phi6, ("X0", "X4"))
        broken = Region(
            support=dict(region.support),
            signature={**region.signature, **edits},
        )
        with pytest.raises(FactCheckFailed, match=re.escape(named)):
            nop_free_gadget_facts(phi6, broken)

    def test_gadget_facts_reject_tampering(self, phi6):
        region = gen_nop_free_alpha_region(phi6, ("X0", "X4"))
        broken = Region(
            support=dict(region.support),
            signature={**region.signature, "v_0": I.FREE},
        )
        with pytest.raises(FactCheckFailed):
            nop_free_gadget_facts(phi6, broken)

    def test_flip_and_substitution_transport(self, phi6):
        inst = gen_nop_free(phi6)
        region = gen_nop_free_alpha_region(phi6, ("X0", "X4"))
        flipped = flip_region(region)
        assert is_region(inst.ts, flip_type(SWAP_FREE), flipped)
        assert flipped.solves(inst.alpha)
        swapped = substitute_free_res(region)
        assert is_region(inst.ts, type_of(I.SWAP, I.RES), swapped)
        assert swapped.solves(inst.alpha)

    def test_witness_covers_every_pair(self, phi6):
        inst = gen_nop_free(phi6)
        witness = gen_nop_free_witness(phi6, ("X0", "X4"))
        # 68m + 6 regions less 8m + 1 repeats: the third bracket region
        # and the pulses of places that spell the same pair
        assert len(witness) == 60 * 6 + 5
        assert len({region.key() for region in witness}) == len(witness)
        assert all(is_region(inst.ts, SWAP_FREE, region) for region in witness)
        assert embedding_certificate(inst.ts, witness).injective

    def test_witness_reads_the_model_once(self, phi6):
        # the model is checked once and the instance built once, so a
        # one-shot iterator still yields the designated pair's region
        once = gen_nop_free_witness(phi6, iter(("X0", "X4")))
        assert gen_nop_free_alpha_region(phi6, ("X0", "X4")) in once


#: Variable names each generator must reject as one of its own events, and
#: for the nop-free generator two names only the other generator uses.
CLASHES = [
    pytest.param(generator, name, clashes, id=f"{flavor}-{name}")
    for flavor, generator, names, clashes in (
        ("nop-inp", gen_nop_inp, ("k", "v", "w_2", "u_0", "y_5"), True),
        (
            "nop-free",
            gen_nop_free,
            ("k0", "k1", "v_0", "wp_3", "OTIMES_0", "ODOT_3", "ODOTp_0",
             "OPLUS_1", "OMINUS_0", "OMINUSp_1"),
            True,
        ),
        ("nop-free", gen_nop_free, ("k", "u_0"), False),
    )
    for name in names
]


@pytest.mark.parametrize("generator, name, clashes", CLASHES)
def test_name_clash_rejected(generator, name, clashes):
    renamed = cm_validate(
        [
            tuple(name if v == "X0" else v for v in clause)
            for clause in example_formula().clauses
        ]
    )
    if clashes:
        message = f"variable names collide with generated events: {[name]!r}"
        with pytest.raises(GadgetNameClash, match=re.escape(message)):
            generator(renamed)
    else:
        assert name in generator(renamed).ts.events


#: SHA-256 of the generators' output on the two fixtures: renaming a
#: generated state or event, or changing a witness region, moves it.  The
#: nop-free witness family holds each region once, in the order of first use.
PINNED_OUTPUT = "f3e447c821b0ef217ef4a04615d740a526105d90c5e1d5cff6d963c3a5ab514d"


def test_generated_output_is_pinned(phi6, phi4_unsat):
    # both instances of both fixtures, both witness families and the
    # designated pair's region, byte for byte
    digest = hashlib.sha256()
    for formula in (phi6, phi4_unsat):
        for generator in (gen_nop_inp, gen_nop_free):
            digest.update(serialize_ts(generator(formula).ts).encode())
    model = ("X0", "X4")
    for regions in (
        gen_nop_inp_witness(phi6, model),
        gen_nop_free_witness(phi6, model),
        [gen_nop_free_alpha_region(phi6, model)],
    ):
        digest.update(json.dumps([region_to_dict(r) for r in regions]).encode())
    assert digest.hexdigest() == PINNED_OUTPUT


class TestExtensions:
    def test_backward_doubles_edges(self):
        rng = random.Random(5)
        ts = random_loopfree_safe_ts(rng, max_states=5, max_events=3)
        back = extend(ts, ExtensionKind.BACKWARD)
        assert len(back.edges) == 2 * len(ts.edges)
        for s, e, t in ts.edges:
            assert (t, e + "'", s) in back.edges

    def test_oneway_loop_and_loop_edge_counts(self):
        rng = random.Random(6)
        ts = random_loopfree_safe_ts(rng, max_states=5, max_events=3)
        oneway = extend(ts, ExtensionKind.ONEWAY_LOOP)
        assert len(oneway.edges) == 3 * len(ts.edges)
        full = extend(ts, ExtensionKind.LOOP)
        assert len(full.edges) == 4 * len(ts.edges)
        for s, e, t in ts.edges:
            assert (t, e, t) in full.edges
            assert (s, e + "'", s) in full.edges

    def test_companion_names_stay_fresh(self):
        ts = validate_or_skip([("a", "x", "b"), ("b", "x'", "c")], "a")
        back = extend(ts, ExtensionKind.BACKWARD)
        assert "x''" in back.events

    def test_requires_loop_free(self):
        from ssp_kit.verify import fixture_single_loop

        with pytest.raises(NotLoopFree):
            extend(fixture_single_loop(), ExtensionKind.BACKWARD)

    def test_unsafe_input_surfaces_nondeterminism(self):
        # two x-edges into the same state break backward determinism
        from ssp_kit.core import validate_ts

        ts = validate_ts([("a", "x", "c"), ("b", "x", "c"), ("a", "y", "b")], "a")
        with pytest.raises(NondeterministicEdge):
            extend(ts, ExtensionKind.BACKWARD)

    def test_decision_transfer_samples(self):
        rng = random.Random(20260822)
        nio = type_of(I.NOP, I.INP, I.OUT)
        for _ in range(10):
            ts = random_loopfree_safe_ts(rng, max_states=5, max_events=3)
            base = decide_ssp(ts, nio).decision
            back = extend(ts, ExtensionKind.BACKWARD)
            assert decide_ssp(back, type_of(I.NOP, I.OUT, I.RES)).decision is base
            full = extend(ts, ExtensionKind.LOOP)
            assert decide_ssp(full, type_of(I.NOP, I.RES, I.SET)).decision is base


def validate_or_skip(edges, initial):
    from ssp_kit.core import validate_ts

    return validate_ts(edges, initial)
