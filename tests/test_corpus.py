"""The seeded corpora draw the same values in the same order.

Every verification suite and benchmark pool is reproducible from its seed
only while each generator makes the same RNG calls.  Each family's first
20 draws from ``SplitMix64(2024)`` are hashed through the canonical
renderers (rows, tuples and circuit fields sorted), so the digests do not
depend on set iteration order.
"""

import hashlib

from teamcheck.corpus import (
    CORPUS_VOCABULARY,
    SplitMix64,
    random_circuit,
    random_formula,
    random_layered_prop,
    random_sentence,
    random_structure,
    random_team,
)
from teamcheck.formulas import render
from teamcheck.model import Structure, render_structure, render_team
from teamcheck.prop import render_prop

DRAWS = 20
FRAGMENTS = ("FO", "FO(dep)", "FO(inc)", "FO(indep)")
TEAM_STRUCTURE = Structure(CORPUS_VOCABULARY, 3)


def _circuit_fields(circuit):
    return (
        circuit.gate_count,
        sorted(circuit.edges),
        sorted(circuit.inputs),
        sorted(circuit.or_gates),
        sorted(circuit.and_gates),
        circuit.output,
    )


FAMILIES = {
    "structure": lambda rng: render_structure(random_structure(rng, 4)),
    "team": lambda rng: render_team(random_team(rng, TEAM_STRUCTURE, ("w", "x", "y"), 5)),
    **{f"formula {f}": lambda rng, f=f: render(random_formula(rng, f, 3, 3)) for f in FRAGMENTS},
    **{f"sentence {f}": lambda rng, f=f: render(random_sentence(rng, f, 3)) for f in FRAGMENTS},
    **{
        f"layered {d} {'positive' if p else 'negative'}": lambda rng, d=d, p=p: render_prop(
            random_layered_prop(rng, d, p)
        )
        for d in (1, 2, 3)
        for p in (True, False)
    },
    "circuit": lambda rng: repr(_circuit_fields(random_circuit(rng))),
}


def digest(family) -> str:
    rng = SplitMix64(2024)
    text = "\n".join(family(rng) for _ in range(DRAWS))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


EXPECTED = {
    "structure": "4441155a23c003d0",
    "team": "26cced0924257944",
    "formula FO": "f811d563dd93f4a9",
    "formula FO(dep)": "ae7cafc8738fdaba",
    "formula FO(inc)": "681134e7ada93d3a",
    "formula FO(indep)": "1d7f211f647b0baf",
    "sentence FO": "e5e4614647c3e903",
    "sentence FO(dep)": "a7b829ad0170e183",
    "sentence FO(inc)": "0410a28c25c6fbf0",
    "sentence FO(indep)": "e9cb2f7489f3fafe",
    "layered 1 positive": "8f5f4b9633235ee7",
    "layered 1 negative": "bc348018384bfead",
    "layered 2 positive": "85cb9b73b0137881",
    "layered 2 negative": "19e56feeaa2d4e91",
    "layered 3 positive": "a672548d1a2facd5",
    "layered 3 negative": "fd43c715ee3497bc",
    "circuit": "a640abd21b26b4b2",
}


def test_first_draws_are_pinned():
    assert {name: digest(family) for name, family in FAMILIES.items()} == EXPECTED
