import io
import json

import pytest

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
from ssp_kit.core import InternalCheckFailed
from ssp_kit.formats import (
    TsParseError,
    TypeSpecError,
    parse_ts_text,
    parse_type_spec,
    serialize_ts,
)

CYCLE = "initial s0\ns0 a s1\ns1 a s0\n"
FORK = "initial r0\nr0 b r1\nr0 c r1\n"


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

    def test_witness_uses_oracle_model(self, formula_file, capsys):
        code = main(["witness", "nop-inp", formula_file])
        data = json.loads(capsys.readouterr().out)
        assert code == EXIT_SEPARATED
        assert len(data["regions"]) == 20
        assert data["model"] == ["X0", "X4"]

    def test_witness_alpha_only(self, formula_file, capsys):
        code = main(["witness", "nop-free", "--alpha-only", formula_file])
        data = json.loads(capsys.readouterr().out)
        assert code == EXIT_SEPARATED
        assert len(data["regions"]) == 1

    def test_alpha_only_rejected_for_nop_inp(self, formula_file):
        code = main(["witness", "nop-inp", "--alpha-only", formula_file])
        assert code == EXIT_USAGE

    def test_witness_unsat_formula(self, tmp_path, capsys):
        path = tmp_path / "unsat.cm"
        path.write_text("X0 X1 X2\nX0 X1 X3\nX0 X2 X3\nX1 X2 X3\n")
        code = main(["witness", "nop-inp", str(path)])
        assert code == EXIT_NOT_SEPARATED
        assert "no exact-cover model" in capsys.readouterr().err

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

    def test_verify_unknown_suite(self, capsys):
        assert main(["verify", "nosuchsuite"]) == EXIT_USAGE

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
