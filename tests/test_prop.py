import itertools
import re

import pytest

from teamcheck.errors import ParseError
from teamcheck.corpus import SplitMix64, random_layered_prop
from teamcheck.prop import (
    PAnd,
    PLit,
    POr,
    layered_depth,
    normalize_layered,
    parse_prop,
    prop_eval,
    prop_variables,
    render_prop,
)
from teamcheck.reductions import wsat_brute


class TestParseProp:
    def test_chain(self):
        assert parse_prop("x1 & x2 & x3") == PAnd((PLit(1), PLit(2), PLit(3)))

    def test_nested(self):
        formula = parse_prop("(x1 | x2) & (x3 | x1)")
        assert formula == PAnd((POr((PLit(1), PLit(2))), POr((PLit(3), PLit(1)))))

    def test_negative_literals(self):
        assert parse_prop("!x1 & !x2") == PAnd((PLit(1, False), PLit(2, False)))

    def test_mixed_connectives_rejected(self):
        with pytest.raises(ParseError):
            parse_prop("x1 & x2 | x3")

    def test_round_trip(self):
        for text in ["x1", "!x2", "x1 & x2", "(x1 | x2) & (!x3 | x1)"]:
            assert render_prop(parse_prop(text)) == text

    def test_long_chain_round_trip(self):
        text = " & ".join(f"!x{i}" if i % 3 == 0 else f"x{i}" for i in range(5000))
        formula = parse_prop(text)
        assert len(formula.children) == 5000
        assert render_prop(formula) == text
        with pytest.raises(ParseError, match=f"line 1, column {len(text) + 2}: mixing"):
            parse_prop(text + " | x1")

    @pytest.mark.parametrize(
        "text, where",
        [
            (")\n\n", "line 1, column 1: unexpected ')'"),
            ("(x1\n  x2)\n\n", "line 2, column 3: expected ')'"),
            ("x1 &\n!(\n", "line 2, column 2: '!' must be followed"),
            ("x1 &\n x2 | x3\n\n", "line 2, column 5: mixing"),
            ("x1\n\n x2\n", "line 3, column 2: unexpected trailing input"),
            ("x1 &\n\n", "line 3, column 1: unexpected 'end of input'"),
        ],
    )
    def test_errors_report_the_line_of_the_bad_token(self, text, where):
        with pytest.raises(ParseError, match=f"^{re.escape(where)}"):
            parse_prop(text)


class TestLayering:
    def test_depth_of_cnf(self):
        assert layered_depth(parse_prop("(x1 | x2) & (x3 | x1)")) == 2

    def test_depth_of_literal_conjunction(self):
        assert layered_depth(parse_prop("x1 & x2")) == 1

    def test_depth_of_single_literal(self):
        assert layered_depth(PLit(1)) == 0

    def test_padding_inserts_singleton_layers(self):
        formula = parse_prop("x1 & (x2 | x3)")
        layered = normalize_layered(formula, 2)
        assert layered == PAnd((POr((PLit(1),)), POr((PLit(2), PLit(3)))))

    def test_too_deep_for_budget_rejected(self):
        formula = parse_prop("(x1 & x2) | x3")  # disjunction root needs padding first
        with pytest.raises(ValueError):
            normalize_layered(formula, 1)

    @staticmethod
    def fits_layered(node, level, depth):
        """The former search's test: does ``node`` at ``level`` fit ``depth`` layers?"""
        if level == depth:
            return isinstance(node, PLit)
        if isinstance(node, PLit):
            return True
        wanted = PAnd if level % 2 == 0 else POr
        if isinstance(node, wanted):
            return all(TestLayering.fits_layered(c, level + 1, depth) for c in node.children)
        return TestLayering.fits_layered(node, level + 1, depth)

    @staticmethod
    def random_tree(rng, depth):
        """A random tree of ``PAnd``/``POr`` nodes, same-type nesting allowed."""
        if depth == 0 or rng.random() < 0.3:
            return PLit(rng.randrange(1, 5), rng.random() < 0.5)
        children = tuple(TestLayering.random_tree(rng, depth - 1) for _ in range(rng.randrange(1, 4)))
        return rng.choice((PAnd, POr))(children)

    def test_one_walk_matches_the_least_fitting_depth(self):
        # The reference tries every depth in turn, as the former search did;
        # a tree of height h always fits depth 2h.
        rng = SplitMix64(17)
        for _ in range(2000):
            tree = self.random_tree(rng, rng.randrange(7))
            expected = next(d for d in itertools.count() if self.fits_layered(tree, 0, d))
            assert layered_depth(tree) == expected, render_prop(tree)
            normalize_layered(tree, expected)  # raises unless the padding accepts the depth


class TestWsatBrute:
    def test_conjunction_weights(self):
        formula = parse_prop("x1 & x2")
        assert wsat_brute(formula, 2) is True
        assert wsat_brute(formula, 1) is False

    def test_disjunction_weight_one(self):
        assert wsat_brute(parse_prop("x1 | x2"), 1) is True

    def test_weight_zero(self):
        assert wsat_brute(parse_prop("!x1 & !x2"), 0) is True
        assert wsat_brute(parse_prop("x1"), 0) is False

    def test_matches_truth_table_oracle(self):
        rng = SplitMix64(3)
        for _ in range(40):
            formula = random_layered_prop(rng, 2, positive=rng.random() < 0.5)
            variables = prop_variables(formula)
            for k in range(0, len(variables) + 1):
                expected = False
                for bits in itertools.product((False, True), repeat=len(variables)):
                    chosen = [v for v, b in zip(variables, bits) if b]
                    if len(chosen) == k and prop_eval(formula, chosen):
                        expected = True
                        break
                assert wsat_brute(formula, k) == expected
