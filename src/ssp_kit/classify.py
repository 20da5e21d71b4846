"""Complexity classification of all 256 Boolean types.

Two independent encodings of the same dichotomy live here: a closed-form
rule on interaction membership, and a table of interval patterns grouping
the types into ten structural rows.  ``classify_type`` evaluates both and
insists they agree, so a transcription slip in either one cannot pass
silently.  The flip involution that exchanges the roles of 0 and 1 is here
too, at type level and at region level.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .core import (
    INTERACTION_ORDER,
    InternalCheckFailed,
    Interaction,
    Region,
    type_mask,  # re-exported; it lives in core
    type_name,
)

I = Interaction

#: Interactions that can leave support (defined at 1 with value 0).
EXITING = frozenset({I.INP, I.RES, I.SWAP})
#: Interactions that can enter support (defined at 0 with value 1).
ENTERING = frozenset({I.OUT, I.SET, I.SWAP})
#: Interactions keeping value 1 at 1.
KEEP_ONE = frozenset({I.NOP, I.SET, I.USED})
#: Interactions keeping value 0 at 0.
KEEP_ZERO = frozenset({I.NOP, I.RES, I.FREE})
#: Interactions preserving some value.
KEEPING = KEEP_ONE | KEEP_ZERO

#: The involution exchanging the two Boolean values: i -> flip(i) with
#: flip(i)(1-x) = 1-i(x).  Fixes nop and swap, exchanges inp/out, res/set,
#: used/free.
FLIP: dict[Interaction, Interaction] = {
    I.NOP: I.NOP,
    I.INP: I.OUT,
    I.OUT: I.INP,
    I.RES: I.SET,
    I.SET: I.RES,
    I.SWAP: I.SWAP,
    I.USED: I.FREE,
    I.FREE: I.USED,
}


def flip_type(tau: frozenset[Interaction]) -> frozenset[Interaction]:
    return frozenset(FLIP[i] for i in tau)


def flip_region(region: Region) -> Region:
    """Complement the support and flip every signature interaction.

    If the input is a tau-region of some system, the output is a
    flip(tau)-region of the same system separating the same atoms.
    """
    return Region(
        support={s: 1 - v for s, v in region.support.items()},
        signature={e: FLIP[i] for e, i in region.signature.items()},
    )


class Complexity(Enum):
    POLYNOMIAL = "polynomial"
    NP_COMPLETE = "np-complete"


class Classification(NamedTuple):
    row: int
    complexity: Complexity


def enumerate_types() -> tuple[frozenset[Interaction], ...]:
    """All 256 Boolean types, ordered by bitmask over the canonical order."""
    return tuple(
        frozenset(i for b, i in enumerate(INTERACTION_ORDER) if mask >> b & 1)
        for mask in range(256)
    )


# ---------------------------------------------------------------------------
# encoding 1: closed-form rule


def _rule_complexity(tau: frozenset[Interaction]) -> Complexity:
    has = tau.__contains__
    if not has(I.NOP):
        # without the identity, hardness needs swap together with some
        # value-preserving interaction; everything else collapses
        if has(I.SWAP) and tau & (KEEPING - {I.NOP}):
            return Complexity.NP_COMPLETE
        return Complexity.POLYNOMIAL
    if has(I.RES) or has(I.SET):
        if has(I.RES) and tau & ENTERING:
            return Complexity.NP_COMPLETE
        if has(I.SET) and tau & EXITING:
            return Complexity.NP_COMPLETE
        return Complexity.POLYNOMIAL
    # identity present, no forcing interactions
    if tau & {I.INP, I.OUT} and not has(I.SWAP):
        return Complexity.NP_COMPLETE
    return Complexity.POLYNOMIAL


# ---------------------------------------------------------------------------
# encoding 2: interval patterns, ten structural rows

_IOUF = frozenset({I.INP, I.OUT, I.USED, I.FREE})
_IUF = frozenset({I.INP, I.USED, I.FREE})
_OUF = frozenset({I.OUT, I.USED, I.FREE})
_UF = frozenset({I.USED, I.FREE})

# (row, complexity, base, allowed-extras, extra-predicate).  A type tau
# matches a pattern when base <= tau <= base | allowed and the predicate
# (when present) holds.  The patterns partition all 256 types.
_ROW_PATTERNS: tuple[
    tuple[int, Complexity, frozenset, frozenset, object], ...
] = (
    (1, Complexity.NP_COMPLETE,
     frozenset({I.NOP, I.RES, I.SET, I.SWAP}), _IOUF, None),
    (2, Complexity.NP_COMPLETE,
     frozenset({I.NOP, I.RES, I.SWAP}), _IOUF, None),
    (2, Complexity.NP_COMPLETE,
     frozenset({I.NOP, I.SET, I.SWAP}), _IOUF, None),
    (3, Complexity.NP_COMPLETE,
     frozenset({I.NOP, I.RES, I.SET}), _IOUF, None),
    (3, Complexity.NP_COMPLETE,
     frozenset({I.NOP, I.OUT, I.RES}), _IUF, None),
    (3, Complexity.NP_COMPLETE,
     frozenset({I.NOP, I.INP, I.SET}), _OUF, None),
    (4, Complexity.POLYNOMIAL,
     frozenset({I.NOP, I.RES}), _IUF, None),
    (4, Complexity.POLYNOMIAL,
     frozenset({I.NOP, I.SET}), _OUF, None),
    (5, Complexity.NP_COMPLETE,
     frozenset({I.NOP, I.INP, I.OUT}), frozenset(), None),
    (5, Complexity.NP_COMPLETE,
     frozenset({I.NOP, I.INP, I.OUT, I.USED}), frozenset(), None),
    (6, Complexity.NP_COMPLETE,
     frozenset({I.NOP, I.INP, I.OUT, I.FREE}), frozenset(), None),
    (6, Complexity.NP_COMPLETE,
     frozenset({I.NOP, I.INP, I.OUT, I.USED, I.FREE}), frozenset(), None),
    (6, Complexity.NP_COMPLETE,
     frozenset({I.NOP, I.INP}), _UF, None),
    (6, Complexity.NP_COMPLETE,
     frozenset({I.NOP, I.OUT}), _UF, None),
    (7, Complexity.POLYNOMIAL,
     frozenset({I.NOP, I.SWAP}), _IOUF, None),
    (7, Complexity.POLYNOMIAL,
     frozenset({I.NOP}), _UF, None),
    (8, Complexity.POLYNOMIAL,
     frozenset(),
     frozenset({I.INP, I.OUT, I.RES, I.SET, I.USED, I.FREE}), None),
    (9, Complexity.NP_COMPLETE,
     frozenset({I.SWAP}),
     frozenset({I.INP, I.OUT, I.RES, I.SET, I.USED, I.FREE}),
     lambda tau: bool(tau & {I.RES, I.SET, I.USED, I.FREE})),
    (10, Complexity.POLYNOMIAL,
     frozenset({I.SWAP}), frozenset({I.INP, I.OUT}), None),
)

#: Number of types per structural row; the rows partition all 256 types.
ROW_SIZES: dict[int, int] = {
    1: 16, 2: 32, 3: 32, 4: 16, 5: 2, 6: 10, 7: 20, 8: 64, 9: 60, 10: 4,
}


def _pattern_matches(
    tau: frozenset[Interaction],
    base: frozenset,
    allowed: frozenset,
    predicate,
) -> bool:
    if not (base <= tau <= (base | allowed)):
        return False
    return predicate(tau) if predicate is not None else True


def _table_classification(tau: frozenset[Interaction]) -> Classification:
    hits = [
        (row, cx)
        for row, cx, base, allowed, pred in _ROW_PATTERNS
        if _pattern_matches(tau, base, allowed, pred)
    ]
    if len(hits) != 1:
        raise InternalCheckFailed(
            f"type {{{type_name(tau)}}} matches {len(hits)} row patterns"
        )
    row, cx = hits[0]
    return Classification(row=row, complexity=cx)


# ---------------------------------------------------------------------------
# public entry points


def classify_type(tau: frozenset[Interaction]) -> Classification:
    """Row and complexity of ``tau``; cross-checks the two encodings."""
    cls = _table_classification(tau)
    if cls.complexity is not _rule_complexity(tau):
        raise InternalCheckFailed(
            f"classification encodings disagree on {{{type_name(tau)}}}"
        )
    return cls


def is_np_complete(tau: frozenset[Interaction]) -> bool:
    return classify_type(tau).complexity is Complexity.NP_COMPLETE


def row_census() -> dict[int, int]:
    """Row -> number of types, computed over all 256 types."""
    census: dict[int, int] = {}
    for tau in enumerate_types():
        row = classify_type(tau).row
        census[row] = census.get(row, 0) + 1
    return census
