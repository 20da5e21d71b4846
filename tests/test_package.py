import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ssp_kit

SRC = str(Path(ssp_kit.__file__).resolve().parents[1])
OPTIONAL = ("ssp_kit.classify", "ssp_kit.reductions", "ssp_kit.verify")


def _run(script: str, cwd) -> dict:
    """Run ``script`` in a fresh interpreter; it prints one JSON object."""
    done = subprocess.run(
        [sys.executable, "-c", script],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


class TestImportFootprint:
    def test_deciding_loads_no_optional_module(self, tmp_path):
        (tmp_path / "chain.ts").write_text("initial r0\nr0 b r1\nr1 c r2\n")
        result = _run(
            "import json, sys\n"
            "from ssp_kit import cli\n"
            "codes = [\n"
            "    cli.main(['check-ssp', '--type', 'nop,inp', '--json', 'chain.ts']),\n"
            "    cli.main(['solve-atom', '--type', 'nop,inp', '--atom', 'r0,r2',\n"
            "              'chain.ts']),\n"
            "    cli.main(['dot', 'chain.ts']),\n"
            "]\n"
            "print(json.dumps({'codes': codes, 'modules': sorted(sys.modules)}))\n",
            tmp_path,
        )
        assert result["codes"] == [0, 0, 0]
        assert "ssp_kit.engine" in result["modules"]
        assert not set(OPTIONAL) & set(result["modules"])
        # dataclasses would cost each process about 10 ms, inspect included
        assert not {"dataclasses", "inspect"} & set(result["modules"])

    def test_importing_the_package_loads_no_submodule(self, tmp_path):
        result = _run(
            "import json, sys\n"
            "import ssp_kit\n"
            "before = sorted(m for m in sys.modules if m.startswith('ssp_kit'))\n"
            "engine, reductions = ssp_kit.engine, ssp_kit.reductions\n"
            "print(json.dumps({\n"
            "    'before': before,\n"
            "    'engine': engine.__name__,\n"
            "    'reductions': reductions.__name__,\n"
            "}))\n",
            tmp_path,
        )
        assert result == {
            "before": ["ssp_kit"],
            "engine": "ssp_kit.engine",
            "reductions": "ssp_kit.reductions",
        }


class TestLazyNamespace:
    def test_each_name_is_its_submodules_object(self):
        for name in ssp_kit.__all__:
            submodule = importlib.import_module(f"ssp_kit.{ssp_kit._MODULE_OF[name]}")
            assert getattr(ssp_kit, name) is getattr(submodule, name), name

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from ssp_kit import *", namespace)
        assert set(ssp_kit.__all__) <= set(namespace)
        for name in ssp_kit.__all__:
            assert namespace[name] is getattr(ssp_kit, name)

    def test_dir_covers_all(self):
        assert set(ssp_kit.__all__) <= set(dir(ssp_kit))

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            ssp_kit.no_such_name  # noqa: B018
        assert not hasattr(ssp_kit, "no_such_name")


class TestBenchmarkTracer:
    def test_every_name_the_tracer_wraps_exists_and_is_restored(self):
        # the benchmark's tracer wraps package functions by name: a name
        # it wraps that is gone or renamed fails here.  A name wrapped twice
        # is restored to what it was before the first wrap
        from ssp_kit import cli, core, engine, formats

        path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
        spec = importlib.util.spec_from_file_location("perfbench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        tracer = spans.Tracer()
        try:
            spans.install(tracer)
            spans.install_setup(tracer)
            originals = {}
            for owner, attr, original in tracer._undo:
                assert getattr(owner, attr) is not original, (owner, attr)
                originals.setdefault((owner, attr), original)
        finally:
            tracer.unwrap()
        for (owner, attr), original in originals.items():
            assert getattr(owner, attr) is original, (owner, attr)
        assert {
            (engine, "is_region"),
            (engine, "solve_atom"),
            (core.Region, "key"),
            (engine, "fast_path_swap_core"),
            (engine, "brute_force_decide"),
            (formats, "validate_ts"),
            (cli, "decide_ssp"),
        } <= set(originals)
