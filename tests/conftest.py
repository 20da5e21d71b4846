from unittest import mock

import pytest

from ssp_kit import engine
from ssp_kit.reductions import example_formula, unsat_formula_m4


@pytest.fixture(scope="session")
def phi6():
    return example_formula()


@pytest.fixture(scope="session")
def phi4_unsat():
    return unsat_formula_m4()


def dense_checkpoints():
    """Checkpoints at every trail entry, at most two per descent, so that
    small systems take them, thin them and search from them."""
    return mock.patch.multiple(engine, _CHECKPOINT_SPACING=1, _CHECKPOINT_CAP=2)
