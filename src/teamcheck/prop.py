"""Propositional formulas and their layered normal form.

Variables are written ``x<id>``; ``!`` negates a variable.  Chains of one
connective parse as a single n-ary node; mixing ``&`` and ``|`` requires
parentheses.  ``parse_prop`` supplies only its token pattern, its literal
parser and its n-ary joins to the expression front end in ``formulas``.

The layered form of alternation depth ``t`` has ``t`` levels of
connectives over single literals, alternating conjunction/disjunction with
conjunction outermost.  ``layered_depth`` finds the least ``t`` a tree fits
once single-child layers are read as transparent, so ``x1 & x2`` has depth
1 and ``x1 | x2`` depth 2; ``normalize_layered`` inserts those layers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator

from .formulas import Cursor, parse_chains, position
from .model import numeral


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


# --- layered normal form for syntax circuits ----------------------------------

def layered_depth(formula: PropFormula) -> int:
    """Least depth at which the tree reads as strict and/or layers over single literals."""

    def need(node: PropFormula, level: int) -> int:
        # the least depth that fits ``node`` placed at ``level``
        if isinstance(node, PLit):
            return level
        if isinstance(node, PAnd if level % 2 == 0 else POr):
            return max(need(child, level + 1) for child in node.children)
        return need(node, level + 1)  # read the wanted layer as a single-child one

    return need(formula, 0)


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
    positive = tok[0] != "!"
    var = tok if positive else cursor.next()
    if var[0] != "var":
        message = f"unexpected {tok[1] or 'end of input'!r}" if positive else "'!' must be followed by a variable"
        raise cursor.fail(message, var)
    try:
        return PLit(int(var[1][1:]), positive)
    except ValueError:  # more digits than ``int`` reads: ``numeral`` raises where
        return PLit(numeral(var[1][1:], *position(cursor.text, var[2])), positive)


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
