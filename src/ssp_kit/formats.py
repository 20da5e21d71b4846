"""Text formats: system files, type specs, formula files, JSON, DOT.

A system file holds one ``initial <state>`` line followed by one
``<source> <event> <target>`` line per edge; ``#`` starts a comment and
blank lines are skipped.  Serialization sorts edges, so parse/serialize
round-trips are identities on the canonical form.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING

from .core import (
    INTERACTION_BY_NAME,
    INTERACTION_ORDER,
    Interaction,
    Region,
    SeparationReport,
    SspKitError,
    TransitionSystem,
    _packed_rows,
    validate_ts,
)

if TYPE_CHECKING:
    from .reductions import CmFormula


class TsParseError(SspKitError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class TypeSpecError(SspKitError):
    pass


class UnknownInteractionName(TypeSpecError):
    pass


class FormulaParseError(SspKitError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse_ts_text(text: str) -> TransitionSystem:
    initial: str | None = None
    edges: list[tuple[str, str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if initial is None:
            if len(tokens) != 2 or tokens[0] != "initial":
                raise TsParseError(lineno, "expected 'initial <state>' first")
            initial = tokens[1]
            continue
        if len(tokens) != 3:
            raise TsParseError(lineno, "expected '<source> <event> <target>'")
        edges.append((tokens[0], tokens[1], tokens[2]))
    if initial is None:
        raise TsParseError(0, "empty file: no 'initial <state>' line")
    return validate_ts(edges, initial)


def serialize_ts(ts: TransitionSystem) -> str:
    lines = [f"initial {ts.initial}"]
    lines += [f"{s} {e} {t}" for s, e, t in ts.edges]
    return "\n".join(lines) + "\n"


def parse_type_spec(spec: str) -> frozenset[Interaction]:
    """Comma-separated interaction names, case-insensitive; '' is empty."""
    text = spec.strip()
    if not text:
        return frozenset()
    out: set[Interaction] = set()
    for part in text.split(","):
        name = part.strip().lower()
        if name not in INTERACTION_BY_NAME:
            raise UnknownInteractionName(f"unknown interaction {part.strip()!r}")
        member = INTERACTION_BY_NAME[name]
        if member in out:
            raise TypeSpecError(f"interaction {name!r} listed twice")
        out.add(member)
    return frozenset(out)


def parse_formula_text(text: str) -> CmFormula:
    from .reductions import cm_validate

    clauses: list[tuple[str, ...]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = tuple(line.split())
        if len(tokens) != 3:
            raise FormulaParseError(lineno, "expected three variable names")
        clauses.append(tokens)
    if not clauses:
        raise FormulaParseError(0, "empty formula file")
    return cm_validate(clauses)


def parse_atom(spec: str, ts: TransitionSystem) -> tuple[str, str]:
    parts = [p.strip() for p in spec.split(",")]
    if len(parts) != 2 or not all(parts):
        raise SspKitError(f"atom must be '<state>,<state>': {spec!r}")
    a, b = parts
    for name in (a, b):
        if name not in ts.sidx:
            raise SspKitError(f"atom names unknown state {name!r}")
    return (a, b)


def region_to_dict(region: Region) -> dict:
    return {
        "support": dict(sorted(region.support.items())),
        "signature": {
            e: i.value for e, i in sorted(region.signature.items())
        },
    }


def report_to_dict(report: SeparationReport) -> dict:
    return _report_dict(report, [region_to_dict(r) for r in report.regions])


def _report_dict(report: SeparationReport, regions: list[dict]) -> dict:
    return {
        "decision": report.decision.value,
        "witness_atom": (
            list(report.witness_atom) if report.witness_atom else None
        ),
        "regions": regions,
        "stats": {
            "atoms_checked": report.stats.atoms_checked,
            "atoms_searched": report.stats.atoms_searched,
            "atoms_repaired": report.stats.atoms_repaired,
            "nodes_expanded": report.stats.nodes_expanded,
            "revisions": report.stats.revisions,
            "wall_ms": round(report.stats.wall_ms, 3),
        },
    }


#: A packed support's bytes and a signature's type-mask bits as JSON text.
_BIT_TEXT = ("0", "1")
_INTERACTION_TEXT = {i.bit: json.dumps(i.value) for i in INTERACTION_ORDER}


def _packed_index(regions: list[Region]) -> tuple[dict, dict] | None:
    """The ``sidx`` and ``eidx`` every region is packed over, a byte per
    name (see :func:`_packed_rows`), with ``str`` names in sorted order, as
    :func:`validate_ts` builds a system's; None if any region is packed
    otherwise or not at all."""
    sidx = getattr(regions[0].support, "index", None)
    eidx = getattr(regions[0].signature, "index", None)
    if any(_packed_rows(region, sidx, eidx) is None for region in regions):
        return None
    for index in (sidx, eidx):
        names = list(index)
        if not all(type(name) is str for name in names) or names != sorted(names):
            return None
    return sidx, eidx


def _region_template(sidx: dict, eidx: dict) -> str:
    """The text ``json.dumps`` gives a region at a report's indent, with
    ``%s`` for each event's interaction, then each state's value."""

    def block(key: str, names: dict) -> str:
        if not names:
            return f'      "{key}": {{}}'
        lines = [
            f"        {encode_basestring_ascii(name).replace('%', '%%')}: %s"
            for name in names
        ]
        return f'      "{key}": {{\n' + ",\n".join(lines) + "\n      }"

    signature, support = block("signature", eidx), block("support", sidx)
    return "    {\n" + signature + ",\n" + support + "\n    }"


def report_to_json(report: SeparationReport) -> str:
    """``json.dumps(report_to_dict(report), indent=2, sort_keys=True)`` and
    a newline, byte for byte.  Regions packed over one system's ``sidx``
    and ``eidx``, as the search packs them, are written from one template
    of the system's names, filled per region from its rows; any other
    report goes through ``json.dumps`` whole."""
    regions = report.regions
    indexes = _packed_index(regions) if regions else None
    if indexes is None:
        return json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n"
    template = _region_template(*indexes)
    bits = _BIT_TEXT.__getitem__
    interactions = _INTERACTION_TEXT.__getitem__
    body = ",\n".join(
        template % (*map(interactions, signature.row), *map(bits, support.row))
        for support, signature in regions
    )
    head = json.dumps(_report_dict(report, []), indent=2, sort_keys=True)
    return head.replace('"regions": []', '"regions": [\n' + body + "\n  ]", 1) + "\n"


def ts_to_dot(ts: TransitionSystem) -> str:
    """Deterministic DOT rendering; the initial state is drawn doubled."""

    def q(name: str) -> str:
        return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["digraph ts {", "  rankdir=LR;"]
    lines.append(f"  {q(ts.initial)} [peripheries=2];")
    for s in ts.states:
        if s != ts.initial:
            lines.append(f"  {q(s)};")
    for s, e, t in ts.edges:
        lines.append(f"  {q(s)} -> {q(t)} [label={q(e)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
