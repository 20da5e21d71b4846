"""Output checks that count toward failed decisions.

Regions are checked edge by edge against the benchmark's own interaction
table, never with ``ssp_kit.core.is_region``.  A region list must also
back the decision up: for has-ssp its supports separate every pair (the
state vectors are injective); for lacks-ssp they separate every pair
sorted before the witness atom and not the witness itself, since a valid
region separating the witness would refute it.
"""

from __future__ import annotations

from inputs import TABLE

#: The documented exit code of each decision of ``ssp-kit check-ssp``.
EXIT_CODES = {"has-ssp": 0, "lacks-ssp": 1, "unknown": 2}


def region_problem(support, signature, states, events, edges, type_names) -> str | None:
    """Why (support, signature) is not a region of the system, or None."""
    if set(support) != set(states) or any(support[s] not in (0, 1) for s in states):
        return "support is not a total 0/1 map on the states"
    if set(signature) != set(events):
        return "signature is not total on the events"
    for e, name in signature.items():
        if name not in type_names:
            return f"event {e} takes {name}, outside the type"
    for s, e, t in edges:
        if TABLE[signature[e]][support[s]] != support[t]:
            return f"edge {s} {e} {t} is not a step of {signature[e]}"
    return None


def separation_problem(states, supports, decision: str, witness) -> str | None:
    """Why the supports do not back the decision up, or None."""
    states = sorted(states)
    vector = {s: 0 for s in states}
    for bit, support in enumerate(supports):
        for s in states:
            vector[s] |= support[s] << bit
    if decision == "has-ssp":
        if witness is not None:
            return "has-ssp with a witness atom"
        if len(set(vector.values())) != len(states):
            return "the regions leave some pair unseparated"
        return None
    if decision != "lacks-ssp":
        return f"decision {decision}"
    if witness is None or len(witness) != 2:
        return "lacks-ssp without a witness atom"
    a, b = witness
    if a not in vector or b not in vector or not a < b:
        return f"witness {witness} is not an atom"
    if vector[a] != vector[b]:
        return f"a returned region separates the witness {witness}"
    for i, x in enumerate(states):
        for y in states[i + 1 :]:
            if (x, y) == (a, b):
                return None
            if vector[x] == vector[y]:
                return f"atom ({x}, {y}) before the witness is not separated"
    return None


def report_regions(report) -> list[tuple[dict, dict]]:
    """(support, signature by interaction name) of each region of a report."""
    return [
        (dict(r.support), {e: i.value for e, i in r.signature.items()})
        for r in report.regions
    ]


def regions_problem(regions, states, events, edges, type_names, decision, witness) -> str | None:
    for support, signature in regions:
        problem = region_problem(support, signature, states, events, edges, type_names)
        if problem:
            return problem
    return separation_problem(states, [s for s, _ in regions], decision, witness)
