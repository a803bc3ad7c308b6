"""Run the doctests embedded in module documentation."""

import doctest

import pytest

from repro import api, units
from repro.network import packets


@pytest.mark.parametrize("module", [api, units, packets],
                         ids=lambda m: m.__name__)
def test_module_doctests(module):
    results = doctest.testmod(module)
    assert results.failed == 0
    assert results.attempted > 0
