"""Fixtures for the whole test run.

``ExpPoly._from_integers`` builds kernel outputs in the canonical integer
form without the checks of ``ExpPoly.__init__``.  Here every call of it
also checks the form's structure (integer types, rates in lowest terms and
strictly increasing, degrees strictly increasing, no zero term, gcd 1) and
rebuilds the function through ``__init__`` from its ``Fraction`` terms,
with every check, requiring the same form, so the tests lose no check that
the library skips.
"""

import pytest

from reference import assert_canonical
from skewext.halfline import ExpPoly

_TRUSTED = ExpPoly._from_integers.__func__
# bound here, so that a test counting ``__init__`` calls counts none of these
_INIT = ExpPoly.__init__


def _checked_from_integers(cls, den, groups):
    assert_canonical(den, groups)
    # the Fraction terms of a separate instance, so the result keeps its
    # view unbuilt
    terms = dict(_TRUSTED(cls, den, groups).items())
    validated = object.__new__(cls)
    _INIT(validated, terms)
    assert validated.integer_form() == (den, groups)
    return _TRUSTED(cls, den, groups)


@pytest.fixture(autouse=True)
def validate_trusted_exppolys(monkeypatch):
    monkeypatch.setattr(ExpPoly, "_from_integers", classmethod(_checked_from_integers))
