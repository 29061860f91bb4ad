"""Propositional formulas with alternating and/or shape analysis.

Variables are written ``x<id>``; ``!`` negates a variable.  Chains of one
connective parse as a single n-ary node; mixing ``&`` and ``|`` requires
parentheses.  ``parse_prop`` supplies only its token pattern, its literal
parser and its n-ary joins to the expression front end in ``formulas``.

The shape classes used here stratify formulas by alternation depth ``t``
and literal-block fan-in ``d``: depth 0 is a block of at most ``d``
literals, and each further level alternates conjunction/disjunction, with
conjunction outermost.  Single-child layers are transparent, so ``x1 & x2``
also lives at depth 1 with fan-in 1.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator

from .formulas import Cursor, parse_chains


class PropFormula:
    __slots__ = ()


@dataclass(frozen=True)
class PLit(PropFormula):
    index: int
    positive: bool = True


@dataclass(frozen=True)
class PAnd(PropFormula):
    children: tuple[PropFormula, ...]

    def __post_init__(self) -> None:
        if not self.children:
            raise ValueError("empty conjunction")


@dataclass(frozen=True)
class POr(PropFormula):
    children: tuple[PropFormula, ...]

    def __post_init__(self) -> None:
        if not self.children:
            raise ValueError("empty disjunction")


def prop_variables(formula: PropFormula) -> tuple[int, ...]:
    """Distinct variable indices, ascending."""
    seen: set[int] = set()

    def walk(node: PropFormula) -> None:
        if isinstance(node, PLit):
            seen.add(node.index)
        else:
            for child in node.children:
                walk(child)

    walk(formula)
    return tuple(sorted(seen))


def prop_eval(formula: PropFormula, true_variables: Iterable[int]) -> bool:
    """Truth value under the assignment setting exactly the given variables true."""
    true_set = frozenset(true_variables)

    def walk(node: PropFormula) -> bool:
        if isinstance(node, PLit):
            return (node.index in true_set) == node.positive
        if isinstance(node, PAnd):
            return all(walk(c) for c in node.children)
        return any(walk(c) for c in node.children)

    return walk(formula)


def literals(formula: PropFormula) -> Iterator[PLit]:
    if isinstance(formula, PLit):
        yield formula
    else:
        for child in formula.children:
            yield from literals(formula=child)


def polarity(formula: PropFormula) -> str:
    signs = {lit.positive for lit in literals(formula)}
    if signs == {True}:
        return "positive"
    if signs == {False}:
        return "negative"
    return "mixed"


# --- shape classification -----------------------------------------------------

@dataclass(frozen=True)
class GammaShape:
    depth: int
    fanin: int
    polarity: str


def _is_literal_block(node: PropFormula, connective, fanin: int) -> bool:
    if isinstance(node, PLit):
        return True
    return isinstance(node, connective) and len(node.children) <= fanin and all(
        isinstance(c, PLit) for c in node.children
    )


def _in_conj_class(node: PropFormula, depth: int, fanin: int) -> bool:
    if depth == 0:
        return _is_literal_block(node, PAnd, fanin)
    children = node.children if isinstance(node, PAnd) else (node,)
    return all(_in_disj_class(c, depth - 1, fanin) for c in children)


def _in_disj_class(node: PropFormula, depth: int, fanin: int) -> bool:
    if depth == 0:
        return _is_literal_block(node, POr, fanin)
    children = node.children if isinstance(node, POr) else (node,)
    return all(_in_conj_class(c, depth - 1, fanin) for c in children)


def _height(node: PropFormula) -> int:
    if isinstance(node, PLit):
        return 0
    return 1 + max(_height(c) for c in node.children)


def _max_width(node: PropFormula) -> int:
    if isinstance(node, PLit):
        return 1
    return max(len(node.children), max(_max_width(c) for c in node.children))


def gamma_class(formula: PropFormula) -> GammaShape | None:
    """Least conjunction-outermost shape (depth >= 1, then least fan-in).

    Depth is minimized first because the weighted-satisfiability problem is
    posed for depth >= 1; single-child layers pad any formula upward, so a
    conjunction of literals classifies as depth 1 with fan-in 1.
    """
    max_depth = 2 * _height(formula) + 2
    max_fanin = max(1, _max_width(formula))
    for depth in range(1, max_depth + 1):
        for fanin in range(1, max_fanin + 1):
            if _in_conj_class(formula, depth, fanin):
                return GammaShape(depth, fanin, polarity(formula))
    return None


# --- layered normal form for syntax circuits ----------------------------------

def _fits_layered(node: PropFormula, level: int, depth: int) -> bool:
    if level == depth:
        return isinstance(node, PLit)
    if isinstance(node, PLit):
        return True
    wanted = PAnd if level % 2 == 0 else POr
    if isinstance(node, wanted):
        return all(_fits_layered(c, level + 1, depth) for c in node.children)
    return _fits_layered(node, level + 1, depth)


def layered_depth(formula: PropFormula) -> int:
    """Least depth at which the tree reads as strict and/or layers over single literals."""
    for depth in range(0, 2 * _height(formula) + 2):
        if _fits_layered(formula, 0, depth):
            return depth
    raise ValueError("formula does not fit any alternating layering")


def normalize_layered(formula: PropFormula, depth: int) -> PropFormula:
    """Pad with single-child layers so literals sit exactly at the given depth.

    Rejects trees that need wider literal blocks than the layering allows.
    """

    def build(node: PropFormula, level: int) -> PropFormula:
        if level == depth:
            if isinstance(node, PLit):
                return node
            raise ValueError(f"subformula too deep for an alternation depth of {depth}")
        wanted = PAnd if level % 2 == 0 else POr
        if isinstance(node, wanted):
            return wanted(tuple(build(c, level + 1) for c in node.children))
        return wanted((build(node, level + 1),))

    return build(formula, 0)


# --- concrete syntax ----------------------------------------------------------

_PTOKEN_RE = re.compile(r"(?P<ws>\s+)|(?P<var>x[0-9]+)|(?P<sym>[()&|!])|(?P<bad>.)")
_PJOINS = {"&": lambda parts: PAnd(tuple(parts)), "|": lambda parts: POr(tuple(parts))}


def _literal(cursor: Cursor) -> PropFormula:
    tok = cursor.next()
    if tok[0] == "!":
        var = cursor.next()
        if var[0] != "var":
            raise cursor.fail("'!' must be followed by a variable", var)
        return PLit(int(var[1][1:]), positive=False)
    if tok[0] == "var":
        return PLit(int(tok[1][1:]), positive=True)
    raise cursor.fail(f"unexpected {tok[1] or 'end of input'!r}", tok)


def parse_prop(text: str) -> PropFormula:
    return parse_chains(Cursor(_PTOKEN_RE, text), _literal, _PJOINS, {})


def render_prop(formula: PropFormula) -> str:
    if isinstance(formula, PLit):
        sign = "" if formula.positive else "!"
        return f"{sign}x{formula.index}"
    sep = " & " if isinstance(formula, PAnd) else " | "
    parts = []
    for child in formula.children:
        text = render_prop(child)
        if isinstance(child, (PAnd, POr)):
            text = f"({text})"
        parts.append(text)
    if len(parts) == 1:
        return f"({parts[0]})"
    return sep.join(parts)
