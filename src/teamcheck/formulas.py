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

Every node carries the facts that depend on the formula alone: its free
variables (``free``), the team atoms that occur in it (``atoms``), whether
it is first-order (``first_order``) or quantifier-free
(``quantifier_free``), and its hash.  A node sets them when it is built,
from its own terms and its children's facts, so reading them is an
attribute read and walks nothing, however deep the formula; a formula
parsed once and solved on many structures is analysed once.
``classify`` and ``first_order_part`` are computed once per node and kept
on it.  None of this takes part in
equality, ``repr`` or ``render``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from functools import reduce, wraps

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

_FACT = {"init": False, "compare": False, "repr": False}


@dataclass(frozen=True)
class Formula:
    """A formula node; the fields declared here are its facts (see the module docstring)."""

    free: frozenset[str] = field(**_FACT)  # free variables
    atoms: frozenset[str] = field(**_FACT)  # the team atoms that occur: "dep", "inc", "indep"
    first_order: bool = field(**_FACT)  # no team atom, hence flat: a team satisfies it iff every row does
    quantifier_free: bool = field(**_FACT)
    hash_value: int = field(**_FACT)

    def __hash__(self) -> int:
        return self.hash_value

    def __reduce__(self):
        # rebuilt by the constructor, so facts and hash are the receiving process's
        return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)

    def _set(self, free: frozenset[str], atoms: frozenset[str], quantifier_free: bool, hash_value: int) -> None:
        facts = self.__dict__  # frozen against assignment only
        facts["free"] = free
        facts["atoms"] = atoms
        facts["first_order"] = not atoms
        facts["quantifier_free"] = quantifier_free
        facts["hash_value"] = hash_value


def _node(cls):
    """A frozen dataclass formula node; ``dataclass`` would replace the cached hash.

    A node class that adds no fields is a plain subclass of one: it inherits
    the fields, the hash, ``repr`` and equality, which compares classes.
    """
    cls = dataclass(frozen=True)(cls)
    cls.__hash__ = Formula.__hash__
    return cls


def _term_vars(terms: Terms) -> frozenset[str]:
    names = set()
    for term in terms:
        if isinstance(term, Var):
            names.add(term.name)
    return frozenset(names)


_NO_ATOMS: frozenset[str] = frozenset()
_DEP, _INC, _INDEP = frozenset({"dep"}), frozenset({"inc"}), frozenset({"indep"})


@_node
class _Comparison(Formula):
    left: Term
    right: Term

    def __post_init__(self) -> None:
        terms = (self.left, self.right)
        self._set(_term_vars(terms), _NO_ATOMS, True, hash((type(self), terms)))


class Eq(_Comparison):
    """left = right"""


class Neq(_Comparison):
    """left != right"""


@_node
class _Literal(Formula):
    name: str
    terms: Terms

    def __post_init__(self) -> None:
        self._set(_term_vars(self.terms), _NO_ATOMS, True, hash((type(self), self.name, self.terms)))


class Rel(_Literal):
    """name(terms)"""


class NegRel(_Literal):
    """!name(terms)"""


@_node
class Dep(Formula):
    """dep(determinants; determined): the first tuple fixes the second."""

    determinants: Terms
    determined: Terms

    def __post_init__(self) -> None:
        if not self.determined:
            raise ValueError("dependence atom needs at least one determined term")
        determinants, determined = self.determinants, self.determined
        self._set(_term_vars(determinants + determined), _DEP, True, hash((Dep, determinants, determined)))


@_node
class Inc(Formula):
    """inc(left; right): every left-tuple value occurs as a right-tuple value."""

    left: Terms
    right: Terms

    def __post_init__(self) -> None:
        if not self.left or len(self.left) != len(self.right):
            raise ValueError("inclusion atom needs two nonempty tuples of equal length")
        self._set(_term_vars(self.left + self.right), _INC, True, hash((Inc, self.left, self.right)))


@_node
class Indep(Formula):
    """indep(condition; left; right): left and right vary freely given the condition."""

    condition: Terms
    left: Terms
    right: Terms

    def __post_init__(self) -> None:
        if not self.left or not self.right:
            raise ValueError("independence atom needs nonempty left and right tuples")
        condition, left, right = self.condition, self.left, self.right
        self._set(_term_vars(condition + left + right), _INDEP, True, hash((Indep, condition, left, right)))


@_node
class _Connective(Formula):
    left: Formula
    right: Formula

    def __post_init__(self) -> None:
        left, right = self.left, self.right
        self._set(
            left.free | right.free,
            left.atoms | right.atoms,
            left.quantifier_free and right.quantifier_free,
            hash((type(self), left.hash_value, right.hash_value)),
        )


class And(_Connective):
    """left & right"""


class Or(_Connective):
    """left | right"""


@_node
class _Quantifier(Formula):
    variable: str
    body: Formula

    def __post_init__(self) -> None:
        variable, body = self.variable, self.body
        self._set(body.free - {variable}, body.atoms, False, hash((type(self), variable, body.hash_value)))


class Exists(_Quantifier):
    """exists variable body"""


class Forall(_Quantifier):
    """forall variable body"""


def and_all(parts: list[Formula]) -> Formula:
    if not parts:
        raise ValueError("empty conjunction")
    return reduce(And, parts)


def or_all(parts: list[Formula]) -> Formula:
    if not parts:
        raise ValueError("empty disjunction")
    return reduce(Or, parts)


def free_vars(formula: Formula) -> frozenset[str]:
    """Free variables; atoms bind nothing, quantifiers bind their variable."""
    return formula.free


def subformulas(formula: Formula):
    """Every node, parents before children, left before right."""
    stack = [formula]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, _Connective):
            stack += (node.right, node.left)
        elif isinstance(node, _Quantifier):
            stack.append(node.body)


def _per_node(analysis):
    """``analysis(formula)``, computed once per node and kept on it."""
    name = analysis.__name__

    @wraps(analysis)
    def cached(formula: Formula):
        facts = formula.__dict__
        if name not in facts:
            facts[name] = analysis(formula)
        return facts[name]

    return cached


@_per_node
def first_order_part(formula: Formula) -> Formula | None:
    """The conjunction of the first-order operands of the top-level ``&`` chain, or ``None``.

    The formula itself if it is first-order.  A team satisfies the formula
    only if every row satisfies this part.
    """
    conjuncts, stack = [], [formula]
    while stack:
        node = stack.pop()
        if node.first_order:
            conjuncts.append(node)
        elif isinstance(node, And):
            stack += (node.right, node.left)
    return and_all(conjuncts) if conjuncts else None


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


@_per_node
def classify(formula: Formula) -> FragmentReport:
    """Atom set, fragment name, prenex prefix class, and free variables."""
    atoms = formula.atoms
    fragment = _FRAGMENTS.get(atoms, "mixed")
    body = formula
    quantifiers: list[str] = []
    while isinstance(body, (Exists, Forall)):
        quantifiers.append("exists" if isinstance(body, Exists) else "forall")
        body = body.body
    prefix: PrenexPrefix | None
    if body.quantifier_free:
        blocks = 0
        last = None
        for q in quantifiers:
            if q != last:
                blocks += 1
                last = q
        prefix = PrenexPrefix(quantifiers[0] if quantifiers else None, blocks)
    else:
        prefix = None
    return FragmentReport(atoms, fragment, prefix, formula.free)


# --- rendering ----------------------------------------------------------------

def _render_term(term: Term) -> str:
    return term.name


def _render_terms(terms: Terms) -> str:
    return ",".join(_render_term(t) for t in terms)


def _chain(formula: Formula, cls) -> list[Formula]:
    """The operands of a left-nested ``cls`` chain, left to right."""
    parts = []
    while isinstance(formula, cls):
        parts.append(formula.right)
        formula = formula.left
    parts.append(formula)
    return parts[::-1]


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
