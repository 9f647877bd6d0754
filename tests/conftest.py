"""Fixtures for the whole test run.

``ExpPoly._from_sorted`` builds kernel outputs without the checks of
``ExpPoly.__init__``.  Here every call of it also builds the function
through ``__init__``, with every check, and requires the same pairs in the
same order, so the tests lose no check that the library skips.
"""

from fractions import Fraction

import pytest

from skewext.halfline import ExpPoly, RationalComplex

_TRUSTED = ExpPoly._from_sorted.__func__
# bound here, so that a test counting ``__init__`` calls counts none of these
_INIT = ExpPoly.__init__


def _checked_from_sorted(cls, items):
    items = tuple(items)
    for (k, lam), coeff in items:
        assert type(k) is int and type(lam) is Fraction
        assert type(coeff) is RationalComplex
    validated = object.__new__(cls)
    _INIT(validated, dict(items))
    assert validated.items() == items
    return _TRUSTED(cls, items)


@pytest.fixture(autouse=True)
def validate_trusted_exppolys(monkeypatch):
    monkeypatch.setattr(ExpPoly, "_from_sorted", classmethod(_checked_from_sorted))
