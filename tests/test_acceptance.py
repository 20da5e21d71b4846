"""End-to-end acceptance gate.

One test per numbered acceptance criterion.  Each test accumulates its
checks, prints a single ``criterion N: PASS/FAIL`` line with the elapsed
time, and enforces the criterion's time budget.
"""

import random
import time

import pytest

from ssp_kit.classify import (
    ROW_SIZES,
    classify_type,
    enumerate_types,
    flip_region,
    flip_type,
    row_census,
)
from ssp_kit.core import (
    Interaction,
    is_normalized,
    is_region,
    normalize_region,
    propagate_region,
    type_of,
)
from ssp_kit.engine import (
    AtomStatus,
    Decision,
    brute_force_decide,
    brute_force_supports,
    decide_ssp,
    embedding_certificate,
    fast_path_swap_core,
    solve_atom,
)
from ssp_kit.reductions import (
    ExtensionKind,
    extend,
    gen_nop_free,
    gen_nop_free_alpha_region,
    gen_nop_inp,
    gen_nop_inp_witness,
    nop_free_gadget_facts,
)
from ssp_kit.verify import (
    enumerate_small_ts,
    fixture_chain,
    fixture_event_cycle,
    fixture_parallel_pair,
    random_loopfree_safe_ts,
    random_ts,
    random_type,
)

I = Interaction
SEED = 20260822


class Gate:
    """Collects the checks of one criterion and prints its verdict line."""

    def __init__(self, number: int, budget_s: float):
        self.number = number
        self.budget_s = budget_s
        self.failures: list[str] = []
        self.t0 = time.perf_counter()

    def check(self, ok: bool, label: str) -> None:
        if not ok:
            self.failures.append(label)

    def finish(self, detail: str = "") -> None:
        elapsed = time.perf_counter() - self.t0
        if elapsed >= self.budget_s:
            self.failures.append(
                f"took {elapsed:.1f}s, budget {self.budget_s:.0f}s"
            )
        verdict = "PASS" if not self.failures else "FAIL"
        tail = f" — {detail}" if detail else ""
        print(
            f"criterion {self.number}: {verdict} [{elapsed:.2f}s]{tail}",
            flush=True,
        )
        assert not self.failures, (
            f"criterion {self.number}: " + "; ".join(self.failures)
        )


def test_criterion_1_interaction_table():
    """All sixteen (interaction, bit) cells, including the undefined four."""
    gate = Gate(1, 1.0)
    expected = {
        (I.NOP, 0): 0,
        (I.NOP, 1): 1,
        (I.INP, 0): None,
        (I.INP, 1): 0,
        (I.OUT, 0): 1,
        (I.OUT, 1): None,
        (I.RES, 0): 0,
        (I.RES, 1): 0,
        (I.SET, 0): 1,
        (I.SET, 1): 1,
        (I.SWAP, 0): 1,
        (I.SWAP, 1): 0,
        (I.USED, 0): None,
        (I.USED, 1): 1,
        (I.FREE, 0): 0,
        (I.FREE, 1): None,
    }
    for (inter, bit), want in expected.items():
        gate.check(
            inter.apply(bit) == want, f"{inter.value}({bit}) != {want}"
        )
    undefined = [
        (inter, bit)
        for inter in I
        for bit in (0, 1)
        if inter.apply(bit) is None
    ]
    gate.check(len(undefined) == 4, "exactly four undefined cells")
    gate.finish("16 cells")


def test_criterion_2_classification():
    """Census, agreement of both classifiers, and flip invariance."""
    gate = Gate(2, 1.0)
    types = enumerate_types()
    gate.check(len(types) == 256, "256 types")
    gate.check(
        row_census()
        == {1: 16, 2: 32, 3: 32, 4: 16, 5: 2, 6: 10, 7: 20, 8: 64, 9: 60, 10: 4},
        "row census",
    )
    gate.check(row_census() == ROW_SIZES, "census matches published sizes")
    for tau in types:
        # classify_type itself cross-checks the closed-form rule against
        # the interval-pattern table and raises on any disagreement
        here = classify_type(tau)
        flipped = classify_type(flip_type(tau))
        gate.check(
            here.complexity is flipped.complexity,
            f"flip changed complexity of mask {sorted(i.value for i in tau)}",
        )
    gate.finish("256 types, dual classifiers, flip")


def test_criterion_3_two_state_fixtures():
    """Frozen behavior of the three worked examples."""
    gate = Gate(3, 1.0)
    loud = type_of(I.NOP, I.SET, I.SWAP, I.USED)
    quiet = type_of(I.NOP, I.INP)

    cycle = fixture_event_cycle()
    report = decide_ssp(cycle, quiet)
    gate.check(report.decision is Decision.LACKS_SSP, "cycle lacks under nop+inp")
    gate.check(report.witness_atom == ("s0", "s1"), "cycle witness atom")
    gate.check(
        decide_ssp(cycle, loud).decision is Decision.HAS_SSP,
        "cycle has under nop+set+swap+used",
    )

    pair = fixture_parallel_pair()
    gate.check(
        decide_ssp(pair, quiet).decision is Decision.HAS_SSP,
        "parallel pair has under nop+inp",
    )
    gate.check(
        decide_ssp(pair, loud).decision is Decision.HAS_SSP,
        "parallel pair has under nop+set+swap+used",
    )

    chain = fixture_chain()
    region = propagate_region(
        chain, 1, {"a": I.USED, "b": I.SWAP, "c": I.SET}
    )
    gate.check(region is not None, "chain signature propagates")
    if region is not None:
        gate.check(
            [region.support[s] for s in ("s0", "s1", "s2", "s3")]
            == [1, 1, 0, 1],
            "chain supports",
        )
        normalized = normalize_region(chain, loud, region)
        gate.check(
            normalized.signature == {"a": I.NOP, "b": I.SWAP, "c": I.SET},
            "normalization rewrites the preserving event to nop",
        )
        gate.check(is_normalized(chain, normalized), "normal form reached")
    gate.finish("three fixtures")


def test_criterion_4_engine_matches_oracle():
    """Search engine agrees with the exhaustive oracle on small systems."""
    gate = Gate(4, 120.0)
    rng = random.Random(SEED)

    family = enumerate_small_ts(4, 3, table_budget=5000)
    gate.check(len(family) == 536, f"family size {len(family)}")
    sampled = [random_type(rng) for _ in range(10)]
    checked = 0
    for ts in family:
        for tau in sampled:
            got = decide_ssp(ts, tau, budget=None).decision
            want = brute_force_decide(ts, tau).decision
            checked += 1
            if got is not want:
                gate.check(
                    False,
                    f"family mismatch on {ts.edges} type "
                    f"{sorted(i.value for i in tau)}",
                )

    rand_types = [random_type(rng) for _ in range(20)]
    for _ in range(200):
        ts = random_ts(rng, max_states=6, max_events=3)
        for tau in rand_types:
            got = decide_ssp(ts, tau, budget=None).decision
            want = brute_force_decide(ts, tau).decision
            checked += 1
            if got is not want:
                gate.check(
                    False,
                    f"random mismatch on {ts.edges} type "
                    f"{sorted(i.value for i in tau)}",
                )
    gate.finish(f"{checked} engine/oracle comparisons")


def test_criterion_5_nop_inp_reduction(phi6, phi4_unsat):
    """Round trip through the consume-only generator and its witness."""
    gate = Gate(5, 60.0)
    quiet = type_of(I.NOP, I.INP)

    sat = gen_nop_inp(phi6)
    gate.check(len(sat.ts.states) == 45, "45 states")
    gate.check(len(sat.ts.events) == 26, "26 events")
    report = decide_ssp(sat.ts, quiet)
    gate.check(report.decision is Decision.HAS_SSP, "satisfiable side has-ssp")

    witness = gen_nop_inp_witness(phi6, ("X0", "X4"))
    for region in witness:
        gate.check(
            is_region(sat.ts, quiet, region),
            "witness region invalid",
        )
    gate.check(
        embedding_certificate(sat.ts, witness).injective,
        "witness family separates every atom",
    )

    unsat = gen_nop_inp(phi4_unsat)
    gate.check(unsat.alpha == ("t_4_0", "t_5_0"), "designated pair name")
    verdict = solve_atom(unsat.ts, quiet, unsat.alpha)
    gate.check(
        verdict.status is AtomStatus.UNSOLVABLE,
        "designated pair unsolvable on unsatisfiable side",
    )
    gate.check(
        decide_ssp(unsat.ts, quiet).decision is Decision.LACKS_SSP,
        "unsatisfiable side lacks-ssp",
    )
    gate.finish("m=6 has-ssp with 20-region witness; m=4 lacks-ssp")


def test_criterion_6_extension_equivalences():
    """Decision transfer along the three loop/reversal extensions."""
    gate = Gate(6, 120.0)
    rng = random.Random(SEED)
    a_type = type_of(I.NOP, I.INP, I.OUT)
    b_type = type_of(I.NOP, I.OUT, I.RES)
    d_type = type_of(I.NOP, I.RES, I.SET)
    a2_type = type_of(I.NOP, I.INP)
    c_type = type_of(I.NOP, I.RES, I.SWAP)

    systems = [
        random_loopfree_safe_ts(rng, max_states=6, max_events=4)
        for _ in range(100)
    ]
    for idx, ts in enumerate(systems):
        back = extend(ts, ExtensionKind.BACKWARD)
        full = extend(ts, ExtensionKind.LOOP)
        oneway = extend(ts, ExtensionKind.ONEWAY_LOOP)
        base = decide_ssp(ts, a_type).decision
        gate.check(
            decide_ssp(back, b_type).decision is base,
            f"backward decision drifted on instance {idx}",
        )
        gate.check(
            decide_ssp(full, d_type).decision is base,
            f"loop decision drifted on instance {idx}",
        )
        base2 = decide_ssp(ts, a2_type).decision
        gate.check(
            decide_ssp(oneway, c_type).decision is base2,
            f"oneway-loop decision drifted on instance {idx}",
        )

    for idx, ts in enumerate(systems[:20]):
        back = extend(ts, ExtensionKind.BACKWARD)
        full = extend(ts, ExtensionKind.LOOP)
        oneway = extend(ts, ExtensionKind.ONEWAY_LOOP)
        sa = set(brute_force_supports(ts, a_type))
        gate.check(
            sa == set(brute_force_supports(back, b_type)),
            f"backward support sets differ on instance {idx}",
        )
        gate.check(
            sa == set(brute_force_supports(full, d_type)),
            f"loop support sets differ on instance {idx}",
        )
        sa2 = set(brute_force_supports(ts, a2_type))
        gate.check(
            sa2 == set(brute_force_supports(oneway, c_type)),
            f"oneway-loop support sets differ on instance {idx}",
        )
    gate.finish("100 decision trials, 20 support-level trials")


@pytest.mark.slow
def test_criterion_7_nop_free_reduction(phi6, phi4_unsat):
    """Round trip through the swap/free generator without nop."""
    gate = Gate(7, 300.0)
    swap_free = type_of(I.SWAP, I.FREE)

    inst = gen_nop_free(phi6)
    gate.check(inst.ts.bi_directed, "bi-directed")
    gate.check(
        len(inst.ts.states) == 188 * 6 + 1 == 1129,
        f"state count {len(inst.ts.states)}",
    )
    gate.check(inst.alpha == ("g_0_2", "g_0_4"), "designated pair name")

    region = gen_nop_free_alpha_region(phi6, ("X0", "X4"))
    gate.check(is_region(inst.ts, swap_free, region), "designated region valid")
    gate.check(region.solves(inst.alpha), "designated region solves the pair")

    facts = nop_free_gadget_facts(phi6, region)
    gate.check(
        set(facts.bracket_signatures) == {I.SWAP, I.FREE},
        "exactly one bracket event swaps",
    )
    gate.check(facts.model == ("X0", "X4"), "extracted exact-cover model")

    flipped = flip_region(region)
    gate.check(
        is_region(inst.ts, type_of(I.SWAP, I.USED), flipped),
        "flip transport valid",
    )
    gate.check(flipped.solves(inst.alpha), "flip transport still solves")

    unsat = gen_nop_free(phi4_unsat)
    verdict = solve_atom(unsat.ts, swap_free, unsat.alpha)
    gate.check(
        verdict.status is AtomStatus.UNSOLVABLE,
        "designated pair unsolvable on unsatisfiable side",
    )
    gate.finish(
        f"m=6: 1129 states; m=4 refuted in {verdict.nodes} search nodes"
    )


def test_criterion_8_swap_only_fast_path():
    """The two-colouring agrees with the oracle on decision and witness."""
    gate = Gate(8, 30.0)
    row10 = [
        type_of(I.SWAP),
        type_of(I.SWAP, I.INP),
        type_of(I.SWAP, I.OUT),
        type_of(I.SWAP, I.INP, I.OUT),
    ]
    for tau in row10:
        gate.check(classify_type(tau).row == 10, "family membership")

    family = enumerate_small_ts(4, 2, table_budget=400_000)
    checked = 0
    for ts in family:
        for tau in row10:
            fast = fast_path_swap_core(ts, tau)
            slow = brute_force_decide(ts, tau)
            checked += 1
            if (fast.decision, fast.witness_atom) != (slow.decision, slow.witness_atom):
                gate.check(
                    False,
                    f"fast path mismatch on {ts.edges} type "
                    f"{sorted(i.value for i in tau)}",
                )
            if fast.decision is Decision.HAS_SSP and len(ts.states) > 2:
                gate.check(False, f"has-ssp with {len(ts.states)} states")
    gate.finish(f"{len(family)} systems, {checked} comparisons")


def test_criterion_9_engine_invariants():
    """Monotonicity, flip invariance, normalization keeps separation."""
    gate = Gate(9, 120.0)
    all_interactions = list(I)

    rng = random.Random(SEED + 1)
    grew = 0
    for _ in range(200):
        ts = random_ts(rng, max_states=5, max_events=3)
        tau = random_type(rng)
        extra = frozenset(
            rng.sample(all_interactions, rng.randint(0, 3))
        )
        wider = tau | extra
        if decide_ssp(ts, tau).decision is Decision.HAS_SSP:
            grew += 1
            gate.check(
                decide_ssp(ts, wider).decision is Decision.HAS_SSP,
                "separation lost after widening the type",
            )
    gate.check(grew >= 50, f"monotonicity exercised only {grew} times")

    rng = random.Random(SEED + 2)
    for _ in range(200):
        ts = random_ts(rng, max_states=5, max_events=3)
        tau = random_type(rng)
        gate.check(
            decide_ssp(ts, tau).decision
            is decide_ssp(ts, flip_type(tau)).decision,
            "flip changed the decision",
        )

    rng = random.Random(SEED + 3)
    kept = 0
    for _ in range(200):
        ts = random_ts(rng, max_states=5, max_events=3)
        tau = random_type(rng) | {I.NOP}
        report = decide_ssp(ts, tau)
        if report.decision is not Decision.HAS_SSP:
            continue
        kept += 1
        for region in report.regions:
            normalized = normalize_region(ts, tau, region)
            gate.check(
                is_normalized(ts, normalized), "normal form not reached"
            )
            gate.check(
                set(normalized.separated_atoms(ts))
                == set(region.separated_atoms(ts)),
                "normalization changed the separated atoms",
            )
    gate.check(kept >= 50, f"normalization exercised only {kept} times")
    gate.finish("3 invariants x 200 seeded instances")
