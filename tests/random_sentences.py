"""Random sentences for the tests that check sentence handling.

The generator draws from ``teamcheck.corpus``'s quantifier-free bodies and
work budget, so it makes the same RNG calls as the formula corpus does;
``test_corpus.py`` pins its first draws.
"""

import random

from teamcheck.corpus import DEFAULT_BUDGET, _PREFIX_SHAPES, _random_quantifier_free, search_cost
from teamcheck.formulas import Eq, Exists, Forall, Formula, Var, free_vars


def random_sentence(
    rng: random.Random,
    fragment: str,
    domain_size: int,
) -> Formula:
    """A budgeted random sentence (all variables quantified)."""
    for _ in range(300):
        prefix = rng.choice([shape for shape in _PREFIX_SHAPES if shape])
        bound = ["u", "v"][: len(prefix)]
        body = _random_quantifier_free(rng, fragment, bound)
        formula = body
        for quantifier, var in zip(reversed(prefix), reversed(bound)):
            formula = Exists(var, formula) if quantifier == "exists" else Forall(var, formula)
        if free_vars(formula):
            continue
        if search_cost(formula, 1, domain_size) <= DEFAULT_BUDGET:
            return formula
    return Forall("u", Eq(Var("u"), Var("u")))
