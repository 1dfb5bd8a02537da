import ast
import inspect
import math
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hardshap
from hardshap._util import share_count


class TestShareCount:
    @pytest.mark.parametrize("share, n, expected", [
        (0.7, 45, 32), (0.35, 90, 32), (0.29, 50, 15), (2.3, 25, 58)])
    def test_exact_halves_round_up(self, share, n, expected):
        # each float product lands just below the half: 0.7 * 45 is 31.499999999999996
        assert share_count(share, n) == share_count(np.float64(share), n) == expected

    @pytest.mark.parametrize("share, n, expected", [(0.07, 100, 7), (0.05, 5000, 250),
                                                    (0.1, 45, 5), (1.0, 13, 13)])
    def test_up_takes_the_ceiling_of_the_decimal(self, share, n, expected):
        # 0.07 * 100 is 7.000000000000001 in floats; a numpy float reads as its value
        assert share_count(np.float64(share), n, up=True) == expected

    @pytest.mark.parametrize("share", [math.nan, math.inf, -math.inf, np.float64("nan")],
                             ids=["nan", "inf", "-inf", "numpy-nan"])
    @pytest.mark.parametrize("up", [False, True])
    def test_a_non_finite_share_is_refused(self, share, up):
        # Fraction would fail on the text 'nan' with a message that names no share
        with pytest.raises(ValueError, match=r"share of 5 rows must be finite, got -?(nan|inf)$"):
            share_count(share, 5, up=up)

    @settings(max_examples=400, deadline=None)
    @given(digits=st.integers(0, 10**6), places=st.integers(0, 4), n=st.integers(0, 10**5),
           cast=st.sampled_from([float, np.float64]))
    @example(digits=7, places=1, n=45, cast=float)
    @example(digits=57, places=2, n=50, cast=float)
    def test_matches_the_decimal_as_written(self, digits, places, n, cast):
        share = cast(Decimal(digits).scaleb(-places))
        exact = Fraction(str(float(share))) * n
        assert share_count(share, n) == math.floor(exact + Fraction(1, 2))
        assert share_count(share, n, up=True) == math.ceil(exact)


def test_all_lists_every_public_name_the_package_binds():
    # an export deleted from one list only would leave the other stale
    bound = [name for name, value in vars(hardshap).items()
             if not name.startswith("_") and not inspect.ismodule(value)]
    assert sorted(hardshap.__all__) == sorted(bound)


def test_only_util_turns_a_share_into_a_count():
    # one rule: a module that rounds its own share * n drifts from the decimal as written
    found = []
    for path in sorted(Path(hardshap.__file__).parent.glob("*.py")):
        if path.name == "_util.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found += [f"{path.name}: import {a.name}" for a in node.names
                          if a.name == "fractions"]
            elif isinstance(node, ast.ImportFrom) and node.module in ("fractions", "math"):
                found += [f"{path.name}: from {node.module} import {a.name}" for a in node.names
                          if node.module == "fractions" or a.name in ("floor", "ceil")]
            elif (isinstance(node, ast.Attribute) and node.attr in ("floor", "ceil")
                  and isinstance(node.value, ast.Name) and node.value.id == "math"):
                found.append(f"{path.name}:{node.lineno}: math.{node.attr}")
    assert not found, found
