import io
import json
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ssp_kit import cli
from ssp_kit.cli import (
    EXIT_INTERNAL,
    EXIT_INVALID,
    EXIT_NOT_SEPARATED,
    EXIT_SEPARATED,
    EXIT_UNDECIDED,
    EXIT_USAGE,
    main,
)
from ssp_kit.core import (
    INTERACTION_ORDER,
    Interaction,
    InternalCheckFailed,
    PackedMap,
    PackedSignature,
    Region,
)
from ssp_kit.engine import (
    Decision,
    SearchStats,
    SeparationReport,
    _AtomSearch,
    decide_ssp,
    solve_atom,
)
from ssp_kit.formats import (
    TsParseError,
    TypeSpecError,
    parse_ts_text,
    parse_type_spec,
    report_to_dict,
    report_to_json,
    serialize_ts,
)
from ssp_kit.reductions import ExtensionKind, example_formula, gen_nop_inp
from ssp_kit.verify import SUITES, CheckResult, random_ts, random_type

CYCLE = "initial s0\ns0 a s1\ns1 a s0\n"
FORK = "initial r0\nr0 b r1\nr0 c r1\n"
CHAIN = "initial r0\nr0 b r1\nr1 c r2\n"
NOP_INP_45 = serialize_ts(gen_nop_inp(example_formula()).ts)


@pytest.fixture
def ts_file(tmp_path):
    def write(text, name="system.ts"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


@pytest.fixture
def formula_file(tmp_path):
    path = tmp_path / "phi.cm"
    path.write_text(
        "X0 X1 X2\n"
        "X0 X2 X3\n"
        "X0 X1 X3\n"
        "X2 X4 X5\n"
        "X1 X4 X5\n"
        "X3 X4 X5\n"
    )
    return str(path)


class TestFormats:
    def test_round_trip_identity(self):
        ts = parse_ts_text(CYCLE)
        assert parse_ts_text(serialize_ts(ts)) == ts

    def test_parse_rejects_junk(self):
        with pytest.raises(TsParseError):
            parse_ts_text("s0 a s1\n")  # missing initial line
        with pytest.raises(TsParseError):
            parse_ts_text("initial s0\ns0 a\n")

    def test_comments_and_blanks_ignored(self):
        ts = parse_ts_text("# header\ninitial s0\n\ns0 a s1\n# done\ns1 a s0\n")
        assert len(ts.edges) == 2

    def test_type_spec(self):
        assert parse_type_spec("NOP, swap") == parse_type_spec("swap,nop")
        with pytest.raises(TypeSpecError):
            parse_type_spec("nop,nop")
        with pytest.raises(TypeSpecError):
            parse_type_spec("nope")


class TestClassifyCommand:
    def test_polynomial_type(self, capsys):
        code = main(["classify", "nop,inp,out,swap"])
        out = capsys.readouterr().out
        assert code == EXIT_SEPARATED
        assert "polynomial" in out

    def test_hard_type_json(self, capsys):
        code = main(["classify", "--json", "nop,inp"])
        data = json.loads(capsys.readouterr().out)
        assert code == EXIT_SEPARATED
        assert data["complexity"] == "np-complete"
        assert data["row"] == 6

    def test_bad_type_is_invalid_input(self, capsys):
        assert main(["classify", "bogus"]) == EXIT_INVALID


class TestCheckSspCommand:
    def test_separated(self, ts_file, capsys):
        code = main(["check-ssp", "--type", "nop,swap", ts_file(CYCLE)])
        out = capsys.readouterr().out
        assert code == EXIT_SEPARATED
        assert "has-ssp" in out

    def test_not_separated(self, ts_file, capsys):
        path = ts_file("initial s0\ns0 a s1\ns1 b s2\ns2 c s0\n")
        code = main(["check-ssp", "--type", "inp", path])
        out = capsys.readouterr().out
        assert code == EXIT_NOT_SEPARATED
        assert "lacks-ssp" in out

    def test_undecided_on_zero_budget(self, ts_file, capsys):
        code = main(
            ["check-ssp", "--type", "nop,inp,out", "--budget", "0", ts_file(FORK)]
        )
        assert code == EXIT_UNDECIDED
        assert "unknown" in capsys.readouterr().out

    def test_json_report_shape(self, ts_file, capsys):
        code = main(
            ["check-ssp", "--type", "nop,inp,out", "--json", ts_file(FORK)]
        )
        data = json.loads(capsys.readouterr().out)
        assert code == EXIT_SEPARATED
        assert data["decision"] == "has-ssp"
        assert data["witness_atom"] is None
        assert data["stats"]["atoms_checked"] >= 1
        # every searched atom of a sweep that has the property was solved
        assert data["stats"]["atoms_searched"] == len(data["regions"])
        # and none by a repair, which a system this small never gets
        assert data["stats"]["atoms_repaired"] == 0
        assert data["stats"]["revisions"] > 0
        for entry in data["regions"]:
            assert set(entry) == {"support", "signature"}

    def test_missing_file_is_invalid(self, tmp_path):
        assert (
            main(
                [
                    "check-ssp",
                    "--type",
                    "nop",
                    str(tmp_path / "absent.ts"),
                ]
            )
            == EXIT_INVALID
        )

    def test_non_utf8_input_is_invalid(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "system.ts"
        path.write_bytes(b"\xff\xfeinitial s0\n")
        monkeypatch.setattr(
            "sys.stdin", io.TextIOWrapper(io.BytesIO(path.read_bytes()), "utf-8")
        )
        for argv in (
            ["check-ssp", "--type", "nop", str(path)],
            ["oracle", str(path)],
            ["check-ssp", "--type", "nop", "-"],
        ):
            assert main(argv) == EXIT_INVALID, argv
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_byte_order_mark_is_skipped(self, tmp_path, capsys, monkeypatch):
        data = "\ufeff".encode() + FORK.encode()
        path = tmp_path / "system.ts"
        path.write_bytes(data)
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), "utf-8"))
        for source in (str(path), "-"):
            argv = ["check-ssp", "--type", "nop,inp,out", "--json", source]
            assert main(argv) == EXIT_SEPARATED, argv
            assert json.loads(capsys.readouterr().out)["decision"] == "has-ssp"

    def test_only_one_byte_order_mark_is_skipped(self, tmp_path, capsys):
        path = tmp_path / "system.ts"
        path.write_bytes(("\ufeff" * 2 + FORK).encode())
        assert main(["check-ssp", "--type", "nop", str(path)]) == EXIT_INVALID
        assert "expected 'initial <state>' first" in capsys.readouterr().err

    def test_crash_is_an_internal_error(self, ts_file, capsys, monkeypatch):
        def crash(*args, **kwargs):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "decide_ssp", crash)
        code = main(["check-ssp", "--type", "nop,inp", ts_file(FORK)])
        captured = capsys.readouterr()
        assert code == EXIT_INTERNAL
        assert captured.out == ""
        assert captured.err.startswith("internal error: RecursionError")
        assert captured.err.count("\n") == 1

    def test_failed_self_check_is_an_internal_error(
        self, ts_file, capsys, monkeypatch
    ):
        # InternalCheckFailed is an SspKitError, but no fault of the input
        def invalid(*args, **kwargs):
            raise InternalCheckFailed("search produced an invalid region")

        monkeypatch.setattr(cli, "decide_ssp", invalid)
        code = main(["check-ssp", "--type", "nop,inp", ts_file(FORK)])
        captured = capsys.readouterr()
        assert code == EXIT_INTERNAL
        assert captured.out == ""
        assert captured.err == (
            "internal error: InternalCheckFailed: "
            "search produced an invalid region\n"
        )

    @pytest.mark.parametrize(
        "text, leaf, corrupt",
        [
            pytest.param(CHAIN, 0, "support bit", id="support bit"),
            pytest.param(CHAIN, 0, "signature", id="signature"),
            pytest.param(NOP_INP_45, 9, "support bit", id="mid-sweep support bit"),
            pytest.param(NOP_INP_45, 9, "signature", id="mid-sweep signature"),
            pytest.param(NOP_INP_45, 9, "no split", id="mid-sweep no split"),
        ],
    )
    def test_corrupted_search_region_fails_the_self_check(
        self, ts_file, capsys, monkeypatch, text, leaf, corrupt
    ):
        # the sweep checks every region a search returns before it reports,
        # so a leaf that builds a wrong one stops it with InternalCheckFailed:
        # the first leaf of a chain, or the 10th of the 18 that the sweep of
        # the 45-state nop-inp instance builds.  The complement of a
        # support keeps every atom separated, and is no nop,inp region's
        # support: the region steps some edge from 1 to 0, which the
        # complement steps from 0 to 1; swap is not in nop,inp.  The
        # support 0 with nop everywhere is a region, but splits no atom.
        # A leaf's region is read-only, so the leaf returns a corrupted
        # copy, packed over the same indexes as the search packs it
        build = _AtomSearch._build_region
        leaves = []

        def corrupted(search):
            region = build(search)
            support, signature = region
            if len(leaves) == leaf and corrupt == "support bit":
                flipped = bytes(bit ^ 1 for bit in support.row)
                region = region._replace(support=PackedMap(support.index, flipped))
            elif len(leaves) == leaf and corrupt == "no split":
                nop = bytes([Interaction.NOP.bit])
                region = Region(
                    PackedMap(support.index, bytes(len(support.row))),
                    PackedSignature(signature.index, nop * len(signature.row)),
                )
            elif len(leaves) == leaf:
                row = bytes([Interaction.SWAP.bit]) + signature.row[1:]
                region = region._replace(
                    signature=PackedSignature(signature.index, row)
                )
            leaves.append(region)
            return region

        monkeypatch.setattr(_AtomSearch, "_build_region", corrupted)
        with pytest.raises(InternalCheckFailed):
            decide_ssp(parse_ts_text(text), parse_type_spec("nop,inp"))
        assert len(leaves) > leaf
        leaves.clear()
        code = main(["check-ssp", "--type", "nop,inp", ts_file(text)])
        captured = capsys.readouterr()
        assert code == EXIT_INTERNAL
        assert captured.out == ""
        assert captured.err == (
            "internal error: InternalCheckFailed: "
            "search produced an invalid region\n"
        )

    def test_a_failed_union_in_propagation_is_an_internal_error(
        self, ts_file, capsys, monkeypatch
    ):
        # a revision's unions read one set of allowed cells, so none can
        # fail; one that unites and then reports failure stops the search
        # with InternalCheckFailed instead of pruning the branch.  Under
        # nop,inp the chain's first edge, its source valued 0, leaves nop
        # alone, which forces its target to 0 from inside _propagate
        union = _AtomSearch._union
        failed = []

        def failing(search, x, y, parity):
            united = union(search, x, y, parity)
            if sys._getframe(1).f_code.co_name != "_propagate":
                return united
            failed.append((x, y))
            return False

        monkeypatch.setattr(_AtomSearch, "_union", failing)
        with pytest.raises(InternalCheckFailed):
            decide_ssp(parse_ts_text(CHAIN), parse_type_spec("nop,inp"))
        assert len(failed) == 1
        code = main(["check-ssp", "--type", "nop,inp", ts_file(CHAIN)])
        captured = capsys.readouterr()
        assert code == EXIT_INTERNAL
        assert captured.out == ""
        assert captured.err.startswith("internal error: InternalCheckFailed: ")
        assert len(failed) == 2


class TestSolveAtomCommand:
    def test_solved(self, ts_file, capsys):
        code = main(
            [
                "solve-atom",
                "--type",
                "nop,inp,out",
                "--atom",
                "r0,r1",
                ts_file(FORK),
            ]
        )
        out = capsys.readouterr().out
        assert code == EXIT_SEPARATED
        assert "solved" in out

    def test_json_reports_the_search_counts(self, ts_file, capsys):
        code = main(
            [
                "solve-atom",
                "--type",
                "nop,inp,out",
                "--atom",
                "r0,r1",
                "--json",
                ts_file(FORK),
            ]
        )
        data = json.loads(capsys.readouterr().out)
        assert code == EXIT_SEPARATED
        assert set(data) == {"status", "nodes", "revisions", "region"}
        verdict = solve_atom(
            parse_ts_text(FORK), parse_type_spec("nop,inp,out"), ("r0", "r1")
        )
        assert (data["nodes"], data["revisions"]) == (
            verdict.nodes, verdict.revisions
        )
        assert data["revisions"] > 0

    def test_deep_star(self, ts_file, capsys):
        star = "initial c\n" + "".join(f"c e{i} l{i}\n" for i in range(1500))
        code = main(
            [
                "solve-atom",
                "--type",
                "nop,inp,out,res,set,swap,used,free",
                "--atom",
                "c,l0",
                ts_file(star),
            ]
        )
        assert code == EXIT_SEPARATED
        assert "solved" in capsys.readouterr().out

    def test_unknown_atom_state(self, ts_file):
        code = main(
            [
                "solve-atom",
                "--type",
                "nop",
                "--atom",
                "r0,zz",
                ts_file(FORK),
            ]
        )
        assert code == EXIT_INVALID


class TestGenAndWitnessCommands:
    def test_gen_nop_inp(self, formula_file, tmp_path, capsys):
        out_path = tmp_path / "sat.ts"
        code = main(["gen", "nop-inp", formula_file, "-o", str(out_path)])
        err = capsys.readouterr().err
        assert code == EXIT_SEPARATED
        assert "designated pair t_6_0,t_7_0" in err
        ts = parse_ts_text(out_path.read_text())
        assert len(ts.states) == 45

    def test_gen_nop_free_json_metadata(self, formula_file, capsys):
        code = main(["gen", "nop-free", formula_file, "--json"])
        captured = capsys.readouterr()
        assert code == EXIT_SEPARATED
        meta = json.loads(captured.err)
        assert meta["alpha"] == ["g_0_2", "g_0_4"]
        assert meta["states"] == 1129
        ts = parse_ts_text(captured.out)
        assert len(ts.edges) == 2256

    @pytest.mark.parametrize(
        "flags, count",
        [
            (["nop-inp"], 3 * 6 + 2),
            (["nop-free"], 60 * 6 + 5),
            (["nop-free", "--alpha-only"], 1),
        ],
        ids=["nop-inp", "nop-free", "nop-free-alpha-only"],
    )
    def test_witness_uses_oracle_model(self, formula_file, capsys, flags, count):
        # the six clauses' least exact-cover model, which the command finds
        # itself, and its witness regions, none written twice
        code = main(["witness", *flags, formula_file])
        data = json.loads(capsys.readouterr().out)
        assert code == EXIT_SEPARATED
        assert data["model"] == ["X0", "X4"]
        assert len(data["regions"]) == count
        written = {json.dumps(r, sort_keys=True) for r in data["regions"]}
        assert len(written) == count

    def test_alpha_only_rejected_for_nop_inp(self, formula_file):
        code = main(["witness", "nop-inp", "--alpha-only", formula_file])
        assert code == EXIT_USAGE

    def test_witness_unsat_formula(self, tmp_path, capsys):
        path = tmp_path / "unsat.cm"
        path.write_text("X0 X1 X2\nX0 X1 X3\nX0 X2 X3\nX1 X2 X3\n")
        code = main(["witness", "nop-inp", str(path)])
        assert code == EXIT_NOT_SEPARATED
        assert "no exact-cover model" in capsys.readouterr().err

    def test_formula_with_byte_order_mark(self, formula_file, tmp_path, capsys):
        path = tmp_path / "bom.cm"
        path.write_bytes("\ufeff".encode() + Path(formula_file).read_bytes())
        assert main(["oracle", str(path)]) == EXIT_SEPARATED
        assert "X0 X4" in capsys.readouterr().out
        code = main(["gen", "nop-inp", str(path), "-o", str(tmp_path / "bom.ts")])
        assert code == EXIT_SEPARATED
        assert "designated pair t_6_0,t_7_0" in capsys.readouterr().err

    def test_oracle_command(self, formula_file, tmp_path, capsys):
        assert main(["oracle", formula_file]) == EXIT_SEPARATED
        assert "X0 X4" in capsys.readouterr().out
        unsat = tmp_path / "u.cm"
        unsat.write_text("X0 X1 X2\nX0 X1 X3\nX0 X2 X3\nX1 X2 X3\n")
        assert main(["oracle", str(unsat)]) == EXIT_NOT_SEPARATED
        assert "unsatisfiable" in capsys.readouterr().out


class TestTransformCommand:
    def test_backward(self, ts_file, capsys):
        path = ts_file("initial s0\ns0 a s1\ns1 b s2\n")
        code = main(["transform", "--kind", "backward", path])
        out = capsys.readouterr().out
        assert code == EXIT_SEPARATED
        ts = parse_ts_text(out)
        assert len(ts.edges) == 4
        assert ("s1", "a'", "s0") in ts.edges

    def test_loop_on_looped_input_is_invalid(self, ts_file):
        path = ts_file("initial s0\ns0 a s0\n")
        assert main(["transform", "--kind", "loop", path]) == EXIT_INVALID


class TestVerifyAndDot:
    def test_verify_selected_suite(self, capsys):
        code = main(["verify", "interactions"])
        out = capsys.readouterr().out
        assert code == EXIT_SEPARATED
        assert "PASS" in out
        assert "checks passed" in out

    def test_verify_runs_every_suite(self, capsys):
        code = main(["verify"])
        lines = capsys.readouterr().out.splitlines()
        assert code == EXIT_SEPARATED
        assert [line.split()[0] for line in lines[:-1]] == ["PASS"] * 15
        assert lines[-1] == "15/15 checks passed"

    def test_verify_reports_a_failed_check(self, capsys, monkeypatch):
        monkeypatch.setitem(
            SUITES, "interactions", lambda: [CheckResult("broken", False, "why")]
        )
        code = main(["verify", "interactions", "fixtures"])
        out = capsys.readouterr().out
        assert code == EXIT_NOT_SEPARATED
        assert "FAIL broken (why)\n" in out
        assert out.endswith("\n4/5 checks passed\n")

    def test_verify_unknown_suite(self, capsys):
        assert main(["verify", "nosuchsuite"]) == EXIT_USAGE

    def test_verify_checks_every_name_before_running_a_suite(
        self, capsys, monkeypatch
    ):
        ran = []
        for name in SUITES:
            monkeypatch.setitem(SUITES, name, lambda name=name: ran.append(name))
        code = main(["verify", "engine", "nosuch"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert ran == []
        assert captured.out == ""
        assert captured.err == "usage error: unknown check suite 'nosuch'\n"

    def test_dot_output(self, ts_file, capsys):
        code = main(["dot", ts_file(CYCLE)])
        out = capsys.readouterr().out
        assert code == EXIT_SEPARATED
        assert out.startswith("digraph")
        assert '"s0" -> "s1"' in out


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_check_ssp_requires_type(self, ts_file):
        assert main(["check-ssp", ts_file(CYCLE)]) == EXIT_USAGE

    @pytest.mark.parametrize("budget", ["-1", "ten"])
    @pytest.mark.parametrize(
        "command", [["check-ssp"], ["solve-atom", "--atom", "r0,r1"]]
    )
    def test_budget_must_be_a_count(self, ts_file, capsys, command, budget):
        code = main(
            [*command, "--type", "nop,inp", "--budget", budget, ts_file(FORK)]
        )
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err.startswith("usage error: argument --budget")


#: example_formula's six clauses with comments and blank lines between them
COMMENTED_FORMULA = (
    "# the example formula\n"
    "X0 X1 X2\n\nX0 X2 X3  # the second clause\n"
    "X0 X1 X3\nX2 X4 X5\n   \nX1 X4 X5\nX3 X4 X5\n"
)


@pytest.mark.parametrize(
    "text, argv, code, check",
    [
        ("", ["check-ssp", "--type", "swap"], EXIT_INVALID,
         lambda out, err: "line 0: empty file" in err),
        ("# nothing\n\n", ["check-ssp", "--type", "swap"], EXIT_INVALID,
         lambda out, err: "line 0: empty file" in err),
        (CYCLE, ["check-ssp", "--type", ""], EXIT_NOT_SEPARATED,
         lambda out, err: "decision: lacks-ssp" in out),
        ("X0 X1\n", ["gen", "nop-inp"], EXIT_INVALID,
         lambda out, err: "line 1: expected three variable names" in err),
        ("", ["gen", "nop-inp"], EXIT_INVALID,
         lambda out, err: "empty formula file" in err),
        ("# none\n\n", ["oracle"], EXIT_INVALID,
         lambda out, err: "empty formula file" in err),
        (COMMENTED_FORMULA, ["gen", "nop-inp"], EXIT_SEPARATED,
         lambda out, err: len(parse_ts_text(out).states) == 45),
        (CYCLE, ["solve-atom", "--type", "swap", "--atom", "s0"], EXIT_INVALID,
         lambda out, err: "atom must be '<state>,<state>'" in err),
        (CYCLE, ["solve-atom", "--type", "swap", "--atom", "s0,"], EXIT_INVALID,
         lambda out, err: "atom must be '<state>,<state>'" in err),
        (COMMENTED_FORMULA, ["witness", "nop-inp", "--model", "X0,X4"],
         EXIT_SEPARATED, lambda out, err: len(json.loads(out)["regions"]) == 20),
        (COMMENTED_FORMULA, ["witness", "nop-inp", "--model", "X0"], EXIT_INVALID,
         lambda out, err: "meets the model 0 times" in err),
    ],
    ids=[
        "empty-system",
        "comment-only-system",
        "empty-type",
        "two-name-clause",
        "empty-formula",
        "comment-only-formula",
        "commented-formula",
        "one-state-atom",
        "blank-second-state",
        "given-model",
        "model-missing-a-clause",
    ],
)
def test_input_edge_cases_exit_as_documented(
    tmp_path, capsys, text, argv, code, check
):
    # each path runs through main, so its exit code is the one a user sees
    path = tmp_path / "input"
    path.write_text(text)
    got = main([*argv, str(path)])
    captured = capsys.readouterr()
    assert got == code
    assert check(captured.out, captured.err)


class TestHelp:
    @staticmethod
    def _help(capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        return " ".join(capsys.readouterr().out.split())

    def test_transform_lists_every_extension_kind(self, capsys):
        kinds = ",".join(kind.value for kind in ExtensionKind)
        assert f"--kind {{{kinds}}}" in self._help(capsys, "transform")

    def test_verify_lists_every_suite(self, capsys):
        assert f"subset of: {', '.join(SUITES)}" in self._help(capsys, "verify")

    def test_spelled_out_names_match_their_modules(self):
        assert cli._EXTENSION_KINDS == tuple(kind.value for kind in ExtensionKind)
        assert cli._SUITE_NAMES == tuple(SUITES)

    def test_unknown_kind_is_an_invalid_choice(self, ts_file, capsys):
        code = main(["transform", "--kind", "bogus", ts_file(CHAIN)])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err.startswith(
            "usage error: argument --kind: invalid choice: 'bogus' (choose from "
        )
        for kind in ExtensionKind:
            assert kind.value in captured.err


def dumped(report):
    """What ``report_to_json`` must write: the report's dict through
    ``json.dumps``' own encoder."""
    return json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n"


#: Names that JSON escapes, or that a ``%`` template must not read.
ODD_NAMES = st.text(
    st.sampled_from(["a", "s", "%", '"', "\\", "\n", "é", "\u2603", "\U0001f600"]),
    min_size=1,
    max_size=4,
)


@st.composite
def packed_reports(draw):
    """A report whose regions are packed over one pair of indexes of odd
    names, maybe out of sorted order, a few regions with a support value
    that is no bit or held as plain dicts instead."""
    states = sorted(draw(st.sets(ODD_NAMES, min_size=1, max_size=6)))
    events = sorted(draw(st.sets(ODD_NAMES, max_size=4)))
    if draw(st.booleans()):
        states.reverse()
    sidx = {s: k for k, s in enumerate(states)}
    eidx = {e: k for k, e in enumerate(events)}
    regions = []
    for _ in range(draw(st.integers(0, 3))):
        bits = st.integers(0, 1)
        interactions = st.sampled_from([i.bit for i in INTERACTION_ORDER])
        support = bytes(draw(st.lists(bits, min_size=len(sidx), max_size=len(sidx))))
        signature = bytes(
            draw(st.lists(interactions, min_size=len(eidx), max_size=len(eidx)))
        )
        if draw(st.integers(0, 9)) == 0:
            support = support[:-1] + b"\x02"  # a support value but no bit
        region = Region(PackedMap(sidx, support), PackedSignature(eidx, signature))
        if draw(st.integers(0, 4)) == 0:
            region = Region(dict(region.support), dict(region.signature))
        regions.append(region)
    decision = draw(st.sampled_from(Decision))
    witness = draw(st.none() | st.tuples(ODD_NAMES, ODD_NAMES))
    stats = SearchStats(*draw(st.lists(st.integers(0, 10**6), min_size=4, max_size=4)))
    return SeparationReport(decision, witness, regions, stats)


class TestReportJson:
    def test_writes_the_sweeps_reports_as_json_dumps_does(self):
        # seeded sweeps of random systems under random types and budgets:
        # has-ssp, lacks-ssp, and UNKNOWN with its regions dropped
        rng = random.Random(6)
        seen = set()
        for _ in range(300):
            ts = random_ts(rng, max_states=rng.choice([3, 8, 20]), max_events=4)
            report = decide_ssp(ts, random_type(rng), rng.choice([None, None, 1, 3]))
            assert report_to_json(report) == dumped(report)
            seen.add((report.decision, bool(report.regions)))
        assert {
            (Decision.HAS_SSP, True),
            (Decision.LACKS_SSP, True),
            (Decision.LACKS_SSP, False),
            (Decision.UNKNOWN, False),
        } <= seen

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(packed_reports())
    def test_writes_odd_names_and_other_regions_as_json_dumps_does(self, report):
        assert report_to_json(report) == dumped(report)

    def test_writes_the_nop_inp_report_as_json_dumps_does(self):
        report = decide_ssp(parse_ts_text(NOP_INP_45), parse_type_spec("nop,inp"))
        assert len(report.regions) == 18
        assert report_to_json(report) == dumped(report)
