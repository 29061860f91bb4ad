"""Formula ASTs, concrete syntax, and fragment classification.

The AST is first-order logic in negation normal form extended with three
team atoms: dependence ``dep(t1,..;u1,..)``, inclusion ``inc(t1,..;u1,..)``
and conditional independence ``indep(c..;a..;b..)``.  Negation exists only
as ``!=`` and ``!R(..)``.

Concrete syntax: ``&``, ``|``, ``!`` (before relation atoms only), ``=``,
``!=``, ``exists x``, ``forall x``.  Chains of one connective associate to
the left without parentheses; mixing ``&`` and ``|`` requires parentheses.
A quantifier binds exactly the next unit, so compound bodies are
parenthesized: ``forall x exists y (inc(y;z) & (E(x,y) | x=y))``.

The independence atom is written with the conditioning tuple first:
``indep(c;a;b)`` states that ``a`` and ``b`` vary independently among rows
agreeing on ``c``.  ``dep(;y)`` (empty first slot) states that ``y`` is
constant.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce

from .errors import ParseError
from .model import KEYWORDS, NAME, Vocabulary


# --- terms -----------------------------------------------------------------

class Term:
    __slots__ = ()


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class Const(Term):
    name: str


Terms = tuple[Term, ...]


# --- formulas ----------------------------------------------------------------

class Formula:
    __slots__ = ()


@dataclass(frozen=True)
class Eq(Formula):
    left: Term
    right: Term


@dataclass(frozen=True)
class Neq(Formula):
    left: Term
    right: Term


@dataclass(frozen=True)
class Rel(Formula):
    name: str
    terms: Terms


@dataclass(frozen=True)
class NegRel(Formula):
    name: str
    terms: Terms


@dataclass(frozen=True)
class Dep(Formula):
    """dep(determinants; determined): the first tuple fixes the second."""

    determinants: Terms
    determined: Terms

    def __post_init__(self) -> None:
        if not self.determined:
            raise ValueError("dependence atom needs at least one determined term")


@dataclass(frozen=True)
class Inc(Formula):
    """inc(left; right): every left-tuple value occurs as a right-tuple value."""

    left: Terms
    right: Terms

    def __post_init__(self) -> None:
        if not self.left or len(self.left) != len(self.right):
            raise ValueError("inclusion atom needs two nonempty tuples of equal length")


@dataclass(frozen=True)
class Indep(Formula):
    """indep(condition; left; right): left and right vary freely given the condition."""

    condition: Terms
    left: Terms
    right: Terms

    def __post_init__(self) -> None:
        if not self.left or not self.right:
            raise ValueError("independence atom needs nonempty left and right tuples")


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Exists(Formula):
    variable: str
    body: Formula


@dataclass(frozen=True)
class Forall(Formula):
    variable: str
    body: Formula


ATOM_KINDS = (Eq, Neq, Rel, NegRel, Dep, Inc, Indep)
TEAM_ATOM_NAMES = {Dep: "dep", Inc: "inc", Indep: "indep"}


def and_all(parts: list[Formula]) -> Formula:
    if not parts:
        raise ValueError("empty conjunction")
    return reduce(And, parts)


def or_all(parts: list[Formula]) -> Formula:
    if not parts:
        raise ValueError("empty disjunction")
    return reduce(Or, parts)


def _term_vars(terms: Terms) -> frozenset[str]:
    return frozenset(t.name for t in terms if isinstance(t, Var))


def free_vars(formula: Formula) -> frozenset[str]:
    """Free variables; atoms bind nothing, quantifiers bind their variable."""
    if isinstance(formula, (Eq, Neq)):
        return _term_vars((formula.left, formula.right))
    if isinstance(formula, (Rel, NegRel)):
        return _term_vars(formula.terms)
    if isinstance(formula, Dep):
        return _term_vars(formula.determinants + formula.determined)
    if isinstance(formula, Inc):
        return _term_vars(formula.left + formula.right)
    if isinstance(formula, Indep):
        return _term_vars(formula.condition + formula.left + formula.right)
    if isinstance(formula, (And, Or)):
        return free_vars(formula.left) | free_vars(formula.right)
    if isinstance(formula, (Exists, Forall)):
        return free_vars(formula.body) - {formula.variable}
    raise TypeError(f"not a formula: {formula!r}")


def subformulas(formula: Formula):
    yield formula
    if isinstance(formula, (And, Or)):
        yield from subformulas(formula.left)
        yield from subformulas(formula.right)
    elif isinstance(formula, (Exists, Forall)):
        yield from subformulas(formula.body)


def atom_set(formula: Formula) -> frozenset[str]:
    found = set()
    for sub in subformulas(formula):
        name = TEAM_ATOM_NAMES.get(type(sub))
        if name:
            found.add(name)
    return frozenset(found)


def is_quantifier_free(formula: Formula) -> bool:
    return all(not isinstance(sub, (Exists, Forall)) for sub in subformulas(formula))


def is_first_order(formula: Formula) -> bool:
    """Free of team atoms, hence flat: a team satisfies it exactly when every row does."""
    if isinstance(formula, (And, Or)):
        return is_first_order(formula.left) and is_first_order(formula.right)
    if isinstance(formula, (Exists, Forall)):
        return is_first_order(formula.body)
    return isinstance(formula, (Eq, Neq, Rel, NegRel))


def first_order_conjuncts(formula: Formula) -> list[Formula]:
    """The first-order operands of the formula's top-level ``&`` chain (all of it, if first-order).

    A team satisfies the formula only if every row satisfies each of them.
    """
    if isinstance(formula, And):
        return first_order_conjuncts(formula.left) + first_order_conjuncts(formula.right)
    if is_first_order(formula):
        return [formula]
    return []


@dataclass(frozen=True)
class PrenexPrefix:
    """Quantifier-block summary of a prenex formula.

    ``blocks`` counts maximal runs of one quantifier; ``first`` is the
    leading quantifier (``None`` for quantifier-free formulas, which sit in
    both hierarchies at index 0).
    """

    first: str | None
    blocks: int

    def __str__(self) -> str:
        if self.blocks == 0:
            return "quantifier-free"
        kind = "Pi" if self.first == "forall" else "Sigma"
        return f"{kind}_{self.blocks}"


@dataclass(frozen=True)
class FragmentReport:
    atoms: frozenset[str]
    fragment: str
    prefix: PrenexPrefix | None
    free_variables: frozenset[str]


_FRAGMENTS = {
    frozenset(): "FO",
    frozenset({"dep"}): "FO(dep)",
    frozenset({"inc"}): "FO(inc)",
    frozenset({"indep"}): "FO(indep)",
}


def classify(formula: Formula) -> FragmentReport:
    """Atom set, fragment name, prenex prefix class, and free variables."""
    atoms = atom_set(formula)
    fragment = _FRAGMENTS.get(atoms, "mixed")
    body = formula
    quantifiers: list[str] = []
    while isinstance(body, (Exists, Forall)):
        quantifiers.append("exists" if isinstance(body, Exists) else "forall")
        body = body.body
    prefix: PrenexPrefix | None
    if is_quantifier_free(body):
        blocks = 0
        last = None
        for q in quantifiers:
            if q != last:
                blocks += 1
                last = q
        prefix = PrenexPrefix(quantifiers[0] if quantifiers else None, blocks)
    else:
        prefix = None
    return FragmentReport(atoms, fragment, prefix, free_vars(formula))


# --- rendering ----------------------------------------------------------------

def _render_term(term: Term) -> str:
    return term.name


def _render_terms(terms: Terms) -> str:
    return ",".join(_render_term(t) for t in terms)


def _chain(formula: Formula, cls) -> list[Formula]:
    if isinstance(formula, cls):
        return _chain(formula.left, cls) + [formula.right]
    return [formula]


def render(formula: Formula) -> str:
    """Canonical concrete syntax; ``parse(render(f))`` rebuilds ``f``."""
    if isinstance(formula, Eq):
        return f"{_render_term(formula.left)}={_render_term(formula.right)}"
    if isinstance(formula, Neq):
        return f"{_render_term(formula.left)}!={_render_term(formula.right)}"
    if isinstance(formula, Rel):
        return f"{formula.name}({_render_terms(formula.terms)})"
    if isinstance(formula, NegRel):
        return f"!{formula.name}({_render_terms(formula.terms)})"
    if isinstance(formula, Dep):
        return f"dep({_render_terms(formula.determinants)};{_render_terms(formula.determined)})"
    if isinstance(formula, Inc):
        return f"inc({_render_terms(formula.left)};{_render_terms(formula.right)})"
    if isinstance(formula, Indep):
        return (
            f"indep({_render_terms(formula.condition)};"
            f"{_render_terms(formula.left)};{_render_terms(formula.right)})"
        )
    if isinstance(formula, (And, Or)):
        sep = " & " if isinstance(formula, And) else " | "
        return sep.join(_render_operand(part) for part in _chain(formula, type(formula)))
    if isinstance(formula, (Exists, Forall)):
        kw = "exists" if isinstance(formula, Exists) else "forall"
        return f"{kw} {formula.variable} {_render_operand(formula.body)}"
    raise TypeError(f"not a formula: {formula!r}")


def _render_operand(formula: Formula) -> str:
    if isinstance(formula, (And, Or)):
        return f"({render(formula)})"
    return render(formula)


# --- parsing ----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    rf"|(?P<name>{NAME})"
    r"|(?P<neq>!=)"
    r"|(?P<sym>[()&|!=;,])"
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        chunk = m.group(0)
        if m.lastgroup == "name":
            kind = chunk if chunk in KEYWORDS else "name"
            tokens.append(_Token(kind, chunk, line, col))
        elif m.lastgroup == "neq":
            tokens.append(_Token("!=", chunk, line, col))
        elif m.lastgroup == "sym":
            tokens.append(_Token(chunk, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str, vocabulary: Vocabulary | None):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.vocabulary = vocabulary

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, got {tok.text or 'end of input'!r}", tok.line, tok.column)
        return tok

    def fail(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.column)

    # expr := unit (op unit)* with a single connective kind per chain
    def parse_expr(self) -> Formula:
        first = self.parse_unit()
        op = self.peek().kind
        if op not in ("&", "|"):
            return first
        parts = [first]
        while self.peek().kind == op:
            self.next()
            parts.append(self.parse_unit())
        if self.peek().kind in ("&", "|"):
            raise self.fail("mixing '&' and '|' requires parentheses")
        return and_all(parts) if op == "&" else or_all(parts)

    def parse_unit(self) -> Formula:
        tok = self.peek()
        if tok.kind == "(":
            self.next()
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if tok.kind in ("exists", "forall"):
            self.next()
            var = self.expect("name").text
            body = self.parse_unit()
            return Exists(var, body) if tok.kind == "exists" else Forall(var, body)
        if tok.kind == "!":
            self.next()
            name = self.expect("name")
            self.expect("(")
            terms = self.parse_term_list(")")
            self.expect(")")
            self.check_relation(name, terms)
            return NegRel(name.text, terms)
        if tok.kind == "dep":
            self.next()
            self.expect("(")
            determinants = self.parse_term_list(";")
            self.expect(";")
            determined = self.parse_term_list(")")
            self.expect(")")
            return self.build(Dep, tok, determinants, determined)
        if tok.kind == "inc":
            self.next()
            self.expect("(")
            left = self.parse_term_list(";")
            self.expect(";")
            right = self.parse_term_list(")")
            self.expect(")")
            return self.build(Inc, tok, left, right)
        if tok.kind == "indep":
            self.next()
            self.expect("(")
            condition = self.parse_term_list(";")
            self.expect(";")
            left = self.parse_term_list(";")
            self.expect(";")
            right = self.parse_term_list(")")
            self.expect(")")
            return self.build(Indep, tok, condition, left, right)
        if tok.kind == "name":
            self.next()
            if self.peek().kind == "(":
                self.next()
                terms = self.parse_term_list(")")
                self.expect(")")
                self.check_relation(tok, terms)
                return Rel(tok.text, terms)
            left = self.make_term(tok.text)
            nxt = self.next()
            if nxt.kind == "=":
                right_tok = self.expect("name")
                return Eq(left, self.make_term(right_tok.text))
            if nxt.kind == "!=":
                right_tok = self.expect("name")
                return Neq(left, self.make_term(right_tok.text))
            raise ParseError("expected '=' or '!=' after a term", nxt.line, nxt.column)
        raise self.fail(f"unexpected {tok.text or 'end of input'!r}")

    def build(self, cls, tok: _Token, *tuples: Terms) -> Formula:
        try:
            return cls(*tuples)
        except ValueError as exc:
            raise ParseError(str(exc), tok.line, tok.column) from exc

    def parse_term_list(self, closer: str) -> Terms:
        terms: list[Term] = []
        if self.peek().kind == closer:
            return ()
        while True:
            name = self.expect("name")
            terms.append(self.make_term(name.text))
            if self.peek().kind == ",":
                self.next()
                continue
            return tuple(terms)

    def make_term(self, name: str) -> Term:
        if self.vocabulary is not None and self.vocabulary.has_constant(name):
            return Const(name)
        return Var(name)

    def check_relation(self, tok: _Token, terms: Terms) -> None:
        if self.vocabulary is None:
            return
        arity = self.vocabulary.relation_arity(tok.text)
        if arity is None:
            raise ParseError(f"unknown relation {tok.text!r}", tok.line, tok.column)
        if arity != len(terms):
            raise ParseError(
                f"relation {tok.text!r} has arity {arity}, got {len(terms)} arguments",
                tok.line,
                tok.column,
            )


def parse(text: str, vocabulary: Vocabulary | None = None) -> Formula:
    """Parse a formula; with a vocabulary, resolve constants and check arities."""
    parser = _Parser(text, vocabulary)
    formula = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.column)
    return formula
