"""Spans around the calls into each layer, and the per-layer metrics.

The tracer replaces a public function at the name its caller looks up
(``ssp_kit.engine.solve_atom`` is what ``decide_ssp`` calls, for example)
with a wrapper that records one span per call: name, start, end, parent,
thread id and a few counts read off the result.  Spans stay in memory and
are written out when the run ends.

Each thread keeps its own stack of open spans.  A span opened on a worker
thread with an empty stack takes as parent the innermost open span of the
main thread, which is the call that started the worker pool.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from contextlib import contextmanager


#: Span names: the layer, then the function.
PARSE, VALIDATE, TO_JSON = "formats.parse_ts_text", "core.validate_ts", "formats.report_to_json"
IMPORT, MAIN = "cli.import", "cli.main"
DECIDE, SOLVE = "engine.decide_ssp", "engine.solve_atom"
IS_REGION, KEY = "core.is_region", "core.region_key"
ORACLE, FAST = "engine.brute_force_decide", "engine.fast_path_swap_core"
CLASSIFY = "classify.classify_type"
GEN, CM_ORACLE = "reductions.gen", "reductions.cm_oracle"
CM_VALIDATE = "reductions.cm_validate"


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.pass_no = 0
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    def _add(self, name: str, parent: int | None) -> int:
        span = {"name": name, "start": 0.0, "end": 0.0, "parent": parent,
                "tid": threading.get_ident(), "pass": self.pass_no}
        self.spans.append(span)
        return len(self.spans) - 1

    def _open(self, name: str) -> tuple[int, list[int]]:
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                main = self._stacks.get(self._main)
                parent = main[-1] if main and tid != self._main else None
            idx = self._add(name, parent)
            stack.append(idx)
        self.spans[idx]["start"] = time.perf_counter()
        return idx, stack

    def _close(self, idx: int, stack: list[int], attrs: dict | None) -> None:
        end = time.perf_counter()
        span = self.spans[idx]
        span["end"] = end
        if attrs:
            span.update(attrs)
        stack.pop()

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished top-level span timed by the caller."""
        with self._lock:
            idx = self._add(name, None)
        self.spans[idx].update(start=start, end=end)

    @contextmanager
    def span(self, name: str):
        idx, stack = self._open(name)
        try:
            yield
        finally:
            self._close(idx, stack, None)

    def wrap(self, owner, attr: str, name: str, counts=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper until :meth:`unwrap`.

        ``counts(result)`` returns a dict of counts stored on the span.
        """
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            idx, stack = self._open(name)
            attrs = None
            try:
                result = original(*args, **kwargs)
                if counts is not None:
                    attrs = counts(result)
                return result
            finally:
                self._close(idx, stack, attrs)

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def unwrap(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _report_counts(report) -> dict:
    return {"atoms_checked": report.stats.atoms_checked, "regions": len(report.regions)}


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries a decision crosses, at the callers' names."""
    from ssp_kit import classify, cli, core, engine, formats

    tracer.wrap(formats, "parse_ts_text", PARSE)
    tracer.wrap(formats, "validate_ts", VALIDATE)
    tracer.wrap(formats, "report_to_json", TO_JSON, lambda text: {"bytes": len(text.encode())})
    tracer.wrap(cli, "decide_ssp", DECIDE, _report_counts)
    tracer.wrap(engine, "decide_ssp", DECIDE, _report_counts)
    tracer.wrap(
        engine, "solve_atom", SOLVE, lambda v: {"status": v.status.value, "nodes": v.nodes}
    )
    tracer.wrap(engine, "is_region", IS_REGION)
    tracer.wrap(core.Region, "key", KEY)
    tracer.wrap(
        engine, "brute_force_decide", ORACLE, lambda r: {"scanned": r.stats.nodes_expanded}
    )
    tracer.wrap(engine, "fast_path_swap_core", FAST)
    tracer.wrap(classify, "classify_type", CLASSIFY)


def setup_calls() -> list[tuple[object, str, str]]:
    """(module, function, span name) of every package function set-up calls."""
    from ssp_kit import formats, reductions

    return [
        (reductions, "cm_validate", CM_VALIDATE),
        (reductions, "cm_oracle", CM_ORACLE),
        (reductions, "gen_nop_inp", GEN),
        (reductions, "gen_nop_free", GEN),
        (formats, "parse_ts_text", PARSE),
    ]


def install_setup(tracer: Tracer) -> None:
    """Wrap every package function that set-up calls."""
    for owner, attr, name in setup_calls():
        tracer.wrap(owner, attr, name)


def load_spans(path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def merge(into: list[dict], spans: list[dict], pass_no: int) -> None:
    """Append spans recorded by another process, renumbering parents."""
    base = len(into)
    for span in spans:
        span = dict(span)
        if span["parent"] is not None:
            span["parent"] += base
        span["pass"] = pass_no
        into.append(span)


# ---------------------------------------------------------------------------
# spans -> per-layer metrics


def _self_times(spans: list[dict]) -> list[float]:
    """Duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    out = []
    for idx, span in enumerate(spans):
        lo, hi = span["start"], span["end"]
        covered = 0.0
        reach = lo
        for start, end in sorted(children.get(idx, ())):
            start, end = max(start, reach), min(end, hi)
            if end > start:
                covered += end - start
                reach = end
        out.append(hi - lo - covered)
    return out


def _ancestors(spans: list[dict], idx: int):
    parent = spans[idx]["parent"]
    while parent is not None:
        yield spans[parent]["name"]
        parent = spans[parent]["parent"]


#: (metric name, unit) in the order the benchmark reports them.
LAYER_METRICS = (
    ("cli.import.ms", "ms"),
    ("cli.main.ms", "ms"),
    ("formats.parse_ts_text.ms", "ms"),
    ("formats.report_to_json.ms", "ms"),
    ("formats.output.bytes", "bytes"),
    ("core.validate_ts.ms", "ms"),
    ("core.is_region.calls", "count"),
    ("core.is_region.s", "s"),
    ("core.region_key.calls", "count"),
    ("core.region_key.s", "s"),
    ("engine.decide_ssp.s", "s"),
    ("engine.decide_ssp.self_s", "s"),
    ("engine.sweep.atoms_checked", "count"),
    ("engine.sweep.atoms_searched", "count"),
    ("engine.sweep.atoms_reused", "count"),
    ("engine.sweep.reuse_ratio", "ratio"),
    ("engine.sweep.regions", "count"),
    ("engine.solve_atom.calls", "count"),
    ("engine.solve_atom.self_s", "s"),
    ("engine.solve_atom.p50_ms", "ms"),
    ("engine.search.nodes", "count"),
    ("engine.search.nodes_per_s", "1/s"),
    ("engine.search.unsolvable", "count"),
    ("engine.search.exhausted", "count"),
    ("engine.brute_force_decide.calls", "count"),
    ("engine.brute_force_decide.s", "s"),
    ("engine.oracle.supports_scanned", "count"),
    ("engine.fast_path_swap_core.calls", "count"),
    ("engine.fast_path_swap_core.s", "s"),
    ("classify.classify_type.calls", "count"),
    ("classify.classify_type.s", "s"),
    ("reductions.gen.s", "s"),
    ("reductions.cm_oracle.s", "s"),
    ("trace.overhead_share", "ratio"),
)

#: Counts that must repeat exactly from one pass to the next.  The JSON
#: report's size is not one: it holds the sweep's wall time.
EXACT_COUNTS = (
    "core.is_region.calls",
    "core.region_key.calls",
    "engine.sweep.atoms_checked",
    "engine.sweep.atoms_searched",
    "engine.sweep.regions",
    "engine.solve_atom.calls",
    "engine.search.nodes",
    "engine.search.unsolvable",
    "engine.search.exhausted",
    "engine.brute_force_decide.calls",
    "engine.oracle.supports_scanned",
    "engine.fast_path_swap_core.calls",
    "classify.classify_type.calls",
)


def pass_counts(spans: list[dict], only_pass: int | None = None) -> dict[str, int]:
    """The exact counts of all spans, or of one pass's."""
    c = {name: 0 for name in EXACT_COUNTS}
    for idx, span in enumerate(spans):
        if only_pass is not None and span["pass"] != only_pass:
            continue
        name = span["name"]
        if name == IS_REGION:
            c["core.is_region.calls"] += 1
        elif name == KEY:
            c["core.region_key.calls"] += 1
        elif name == DECIDE:
            c["engine.sweep.atoms_checked"] += span["atoms_checked"]
            c["engine.sweep.regions"] += span["regions"]
        elif name == SOLVE:
            c["engine.solve_atom.calls"] += 1
            c["engine.search.nodes"] += span["nodes"]
            c["engine.search.unsolvable"] += span["status"] == "unsolvable"
            c["engine.search.exhausted"] += span["status"] == "exhausted"
            if DECIDE in _ancestors(spans, idx):
                c["engine.sweep.atoms_searched"] += 1
        elif name == ORACLE:
            c["engine.brute_force_decide.calls"] += 1
            c["engine.oracle.supports_scanned"] += span["scanned"]
        elif name == FAST:
            c["engine.fast_path_swap_core.calls"] += 1
        elif name == CLASSIFY:
            c["classify.classify_type.calls"] += 1
    return c


def _by_name(spans: list[dict]) -> tuple[dict[str, list[float]], dict[str, float]]:
    """Durations of each span name's calls, and its summed self time."""
    durations: dict[str, list[float]] = {}
    self_total: dict[str, float] = {}
    for span, own in zip(spans, _self_times(spans)):
        durations.setdefault(span["name"], []).append(span["end"] - span["start"])
        self_total[span["name"]] = self_total.get(span["name"], 0.0) + own
    return durations, self_total


def layer_metrics(
    spans: list[dict], passes: int, setup_spans: list[dict], setups: int
) -> dict[str, float]:
    """Per-layer metrics of a traced phase of ``passes`` passes.

    Counts and ``.s`` times are per pass; ``.ms`` metrics are medians per
    call; ``reductions.*`` come from the set-up spans, per set-up.
    """
    durations, self_total = _by_name(spans)
    setup_durations, _ = _by_name(setup_spans)

    def per_pass(name: str) -> float:
        return sum(durations.get(name, ())) / passes

    def median_ms(name: str) -> float:
        return statistics.median(durations[name]) * 1000.0 if name in durations else 0.0

    out = {name: value / passes for name, value in pass_counts(spans).items()}
    checked = out["engine.sweep.atoms_checked"]
    reused = max(0.0, checked - out["engine.sweep.atoms_searched"])
    solve_s = per_pass(SOLVE)
    out.update({
        "cli.import.ms": median_ms(IMPORT),
        "cli.main.ms": median_ms(MAIN),
        "formats.parse_ts_text.ms": median_ms(PARSE),
        "formats.report_to_json.ms": median_ms(TO_JSON),
        "formats.output.bytes": sum(s["bytes"] for s in spans if s["name"] == TO_JSON) / passes,
        "core.validate_ts.ms": median_ms(VALIDATE),
        "core.is_region.s": per_pass(IS_REGION),
        "core.region_key.s": per_pass(KEY),
        "engine.decide_ssp.s": per_pass(DECIDE),
        "engine.decide_ssp.self_s": self_total.get(DECIDE, 0.0) / passes,
        "engine.sweep.atoms_reused": reused,
        "engine.sweep.reuse_ratio": reused / checked if checked else 0.0,
        "engine.solve_atom.self_s": self_total.get(SOLVE, 0.0) / passes,
        "engine.solve_atom.p50_ms": median_ms(SOLVE),
        "engine.search.nodes_per_s": out["engine.search.nodes"] / solve_s if solve_s else 0.0,
        "engine.brute_force_decide.s": per_pass(ORACLE),
        "engine.fast_path_swap_core.s": per_pass(FAST),
        "classify.classify_type.s": per_pass(CLASSIFY),
        "reductions.gen.s": sum(setup_durations.get(GEN, ())) / setups,
        "reductions.cm_oracle.s": sum(setup_durations.get(CM_ORACLE, ())) / setups,
    })
    return out


def self_time_shares(spans: list[dict]) -> dict[str, float]:
    """Each span name's share of the summed self time."""
    _, self_total = _by_name(spans)
    whole = sum(self_total.values()) or 1.0
    return {name: value / whole for name, value in sorted(self_total.items())}
