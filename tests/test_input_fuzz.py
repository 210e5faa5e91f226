"""Property tests of the two JSON loaders behind `cascade --factor` and
`verify-paper-suite --config`.

Whatever JSON value a file holds, a loader either returns a value or raises
one of the errors the CLI turns into exit code 2; and a factor survives the
trip through its own JSON form.  The runs are derandomized and bounded.
"""

from __future__ import annotations

import json
from dataclasses import fields

from hypothesis import given, settings, strategies as st

from beltrami_jets import HomogeneousPolynomial, TruncatedFactor
from beltrami_jets.cli import BAD_INPUT_ERRORS
from beltrami_jets.golden import SuiteConfig
from beltrami_jets.polynomials import monomials_of_degree

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=40)

# a fixed alphabet (digits, signs, separators, a letter, an Arabic-Indic
# digit): hypothesis's default one costs seconds to set up in a fresh process
texts = st.text(alphabet="0123456789-+/. ,ex\u0663", max_size=6)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | texts,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(texts, inner, max_size=4),
    max_leaves=6,
)
# values shaped like the documented formats, so the fuzzing reaches past the
# first type check; each may still be replaced by an arbitrary JSON value
rational_texts = (
    st.integers(-999, 999).map(str)
    | st.tuples(st.integers(-999, 999), st.integers(-9, 999)).map(lambda p: f"{p[0]}/{p[1]}")
    | json_values
)
small_ints = st.integers(-1, 5) | json_values
terms = st.fixed_dictionaries(
    {"k": st.lists(small_ints, max_size=4) | json_values, "c": rational_texts},
    optional={"extra": json_values},
) | json_values
polys = st.fixed_dictionaries({"degree": small_ints, "terms": st.lists(terms, max_size=3)}) | json_values
factor_files = st.fixed_dictionaries(
    {},
    optional={
        "f0": rational_texts,
        "components": st.dictionaries(
            st.sampled_from(["2", "3", "4", "02", " 3", "1"]) | texts, polys, max_size=3
        ) | json_values,
        "f_0": json_values,
    },
) | json_values
config_values = (
    st.integers(-2, 9)
    | st.lists(st.integers(-1, 9) | texts | json_values, max_size=3)
    | st.lists(st.lists(st.integers(0, 9) | texts, max_size=3), max_size=3)
    | json_values
)
config_files = st.dictionaries(
    st.sampled_from([f.name for f in fields(SuiteConfig)]) | texts,
    config_values,
    max_size=4,
) | json_values


def _load_or_reject(loader, value) -> None:
    try:
        loader(value)
    except BAD_INPUT_ERRORS:
        pass


@FUZZ
@given(factor_files)
def test_factor_loader_returns_or_rejects(value):
    _load_or_reject(TruncatedFactor.from_json, value)


@FUZZ
@given(config_files)
def test_suite_config_loader_returns_or_rejects(value):
    _load_or_reject(SuiteConfig.from_json, value)


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=50)


def _polys_of_degree(degree: int):
    coeffs = st.dictionaries(st.sampled_from(monomials_of_degree(degree)), rationals, max_size=4)
    return coeffs.map(lambda c: HomogeneousPolynomial(degree, c))


@FUZZ
@given(
    rationals,
    st.fixed_dictionaries({}, optional={d: _polys_of_degree(d) for d in range(2, 7)}),
)
def test_factor_json_round_trip(f0, components):
    factor = TruncatedFactor(f0, components)
    assert TruncatedFactor.from_json(json.loads(json.dumps(factor.to_json()))) == factor
