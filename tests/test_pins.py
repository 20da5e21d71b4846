"""Pinned sweeps: each one's exact record, written once.

A row names a system, as a formula's clauses and the reduction that builds
it, a type, a node budget per atom (None for the default) and the sweep's
record: decision, witness atom, atoms checked, searched and repaired,
nodes, revisions, regions and the SHA-256 of the regions' JSON.  A change
to the search order, the propagation or the repairs shows here before it
shows anywhere else.  Re-pinning a sweep means editing its row.
"""

import hashlib
import json
from contextlib import nullcontext

import pytest

from conftest import dense_checkpoints
from ssp_kit import cli
from ssp_kit.engine import DEFAULT_MAX_NODES, decide_ssp
from ssp_kit.formats import parse_formula_text, parse_type_spec, report_to_dict
from ssp_kit.reductions import gen_nop_free, gen_nop_inp

#: unsat_formula_m4: all four 3-subsets of four variables, with no
#: exact-cover model
M4 = "X0 X1 X2\nX0 X1 X3\nX0 X2 X3\nX1 X2 X3\n"
#: example_formula, whose least exact-cover model is (X0, X4)
EXAMPLE = "X0 X1 X2\nX0 X2 X3\nX0 X1 X3\nX2 X4 X5\nX1 X4 X5\nX3 X4 X5\n"
#: the twelve clauses that draw_formula in perfbench/inputs.py draws from
#: random.Random(0) with m = 12, which have an exact-cover model
M12 = (
    "x605 x784 x827\nx960 x101 x195\nx726 x740 x605\nx740 x726 x836\n"
    "x960 x195 x508\nx903 x508 x836\nx605 x944 x508\nx784 x195 x827\n"
    "x944 x726 x740\nx101 x960 x903\nx101 x827 x836\nx903 x944 x784\n"
)
#: the regions' JSON of a sweep that found none
NO_REGIONS = "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"

GENERATORS = {"nop-inp": gen_nop_inp, "nop-free": gen_nop_free}
EXIT_CODES = {
    "has-ssp": cli.EXIT_SEPARATED,
    "lacks-ssp": cli.EXIT_NOT_SEPARATED,
    "unknown": cli.EXIT_UNDECIDED,
}

PINS = [
    # the 753-state nop-free system: the sweep stops at its first
    # unseparable pair, and nearly every atom searched is a repair of the
    # last region
    pytest.param(
        M4, "nop-free", "swap,free", None,
        ("lacks-ssp", ["f_0_2", "f_0_4"], 47489, 73, 69, 530, 13841, 72,
         "4f4a022591eac97c2480cca7a95411a1dc4c2ccaf9c5ea65f01f20fea0b65e80"),
        id="753-swap-free",
    ),
    # atoms before the witness run out of budget and get no region, so the
    # sweep goes on past each of them without a new support, and still
    # finds the witness
    pytest.param(
        M4, "nop-free", "swap,free", 40,
        ("lacks-ssp", ["f_0_2", "f_0_4"], 47489, 78, 66, 564, 13767, 69,
         "4b27ff39fd81b6c4dbeb03edc092a9eb60f1758a0ffa832e4694709e091bc4ed"),
        id="753-swap-free-budget-40",
    ),
    # every pair is separable, so every atom counts as checked
    pytest.param(
        M4, "nop-free", "nop,swap", None,
        ("has-ssp", None, 283128, 314, 170, 34023, 122418, 314,
         "947d523985aefa5d505419efd0d493cfdf2ea1799f1de47a3392fd368c685c86"),
        id="753-nop-swap",
    ),
    pytest.param(
        EXAMPLE, "nop-free", "swap,free", None,
        ("has-ssp", None, 636756, 444, 344, 34536, 151386, 444,
         "f0213ed3a2f92e24de7a2922938e94bdb53268af6ca7bed94dbe3dc670235620"),
        id="1129-swap-free", marks=pytest.mark.slow,
    ),
    # each node tries swap before res; trying res first left this sweep
    # undecided at 20,000 nodes per atom
    pytest.param(
        EXAMPLE, "nop-free", "res,swap,free", None,
        ("has-ssp", None, 636756, 447, 345, 36912, 158804, 447,
         "88e9c3ae8c7725784c1adbc2d5a37000091f789aeaad5f487af27e8a6616cc32"),
        id="1129-res-swap-free", marks=pytest.mark.slow,
    ),
    pytest.param(
        M12, "nop-free", "swap,free", None,
        ("has-ssp", None, 2545896, 885, 696, 133173, 489559, 885,
         "0614704d22151629f1f94ad37f7f36a08430114d81e9fafa9840ef16978265d0"),
        id="2257-swap-free", marks=pytest.mark.slow,
    ),
    pytest.param(
        EXAMPLE, "nop-inp", "nop,inp", None,
        ("has-ssp", None, 990, 18, 0, 90, 542, 18,
         "8b81a58b78be1f9caca82fd2526a3814618527a7f7a91f39cc22a18a8bdd464d"),
        id="45-nop-inp",
    ),
    pytest.param(
        M4, "nop-inp", "nop,inp", None,
        ("lacks-ssp", ["g_0_1", "g_0_2"], 60, 10, 0, 37, 218, 9,
         "bef478510160d404ef744a3e2394ac8eca5b791c0b74d257055ceacdb04335ad"),
        id="31-nop-inp",
    ),
    # its searches backtrack from deep descents, so this pins the nodes an
    # atom search enters after the descent stops
    pytest.param(
        EXAMPLE, "nop-inp", "nop,inp,out,res,set,swap,used,free", None,
        ("has-ssp", None, 990, 23, 4, 329, 877, 23,
         "479bc3edb4f97de65e92d1fce105072205a8eaaf47bd70709873ee7b7284cdb9"),
        id="45-all-eight",
    ),
    # some atoms exhaust the budget and others are solved within it, so the
    # nodes spent show how a search counts against the budget
    pytest.param(
        EXAMPLE, "nop-inp", "nop,inp", 5,
        ("unknown", None, 990, 65, 0, 308, 1506, 0, NO_REGIONS),
        id="45-nop-inp-budget-5",
    ),
    pytest.param(
        EXAMPLE, "nop-inp", "nop,inp", 10,
        ("unknown", None, 990, 19, 0, 91, 544, 0, NO_REGIONS),
        id="45-nop-inp-budget-10",
    ),
]
#: the rows fast enough to run three times: in process, at dense
#: checkpoints and through the command line
FAST = [row for row in PINS if not row.marks]


def record(report):
    """The record of a report's dict form, or of check-ssp's --json."""
    stats = report["stats"]
    regions = json.dumps(report["regions"], sort_keys=True).encode()
    return (
        report["decision"],
        report["witness_atom"],
        stats["atoms_checked"],
        stats["atoms_searched"],
        stats["atoms_repaired"],
        stats["nodes_expanded"],
        stats["revisions"],
        len(report["regions"]),
        hashlib.sha256(regions).hexdigest(),
    )


def sweep(text, flavor, spec, budget):
    ts = GENERATORS[flavor](parse_formula_text(text)).ts
    budget = DEFAULT_MAX_NODES if budget is None else budget
    return decide_ssp(ts, parse_type_spec(spec), budget)


@pytest.mark.parametrize(
    "text, flavor, spec, budget, expected, dense",
    [pytest.param(*row.values, False, id=row.id, marks=row.marks) for row in PINS]
    + [pytest.param(*row.values, True, id=f"{row.id}-dense") for row in FAST],
)
def test_sweep_gives_its_record(text, flavor, spec, budget, expected, dense):
    # at dense checkpoints, every trail entry and at most two per descent,
    # searches start from checkpoints far more often; that changes no count
    with dense_checkpoints() if dense else nullcontext():
        report = sweep(text, flavor, spec, budget)
    assert record(report_to_dict(report)) == expected


@pytest.mark.parametrize("text, flavor, spec, budget, expected", FAST)
def test_check_ssp_writes_the_record(
    text, flavor, spec, budget, expected, tmp_path, capsys
):
    formula = tmp_path / "phi.cnf"
    formula.write_text(text)
    system = str(tmp_path / "system.ts")
    assert cli.main(["gen", flavor, str(formula), "-o", system]) == 0
    argv = ["check-ssp", "--type", spec, "--json", system]
    if budget is not None:
        argv += ["--budget", str(budget)]
    capsys.readouterr()
    assert cli.main(argv) == EXIT_CODES[expected[0]]
    assert record(json.loads(capsys.readouterr().out)) == expected
