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
``parse`` reads this with the front end that ``prop.parse_prop`` shares
(``scan``, ``Cursor``, ``parse_chains``); it keeps open parentheses on a
stack, not the call stack, so no nesting depth raises ``RecursionError``.
``render`` loops over chains and quantifier prefixes, and recurses only
into parenthesised operands.

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
on it, and so is each ``evaluator.plan`` built for the node, with its
bindings.  None of this takes part in equality, ``repr``, ``render`` or
pickling, or refers back to the node, so refcounting frees the node.

``parse`` keeps the ``PARSED_FORMULAS`` most recently parsed texts, each
with its vocabulary, so a text asked about many times is parsed, and its
nodes analysed, once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from functools import lru_cache, reduce, wraps

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
        if name in facts:
            return facts[name]
        value = analysis(formula)
        if value is not formula:  # a node keeping itself would be a cycle
            facts[name] = value
        return value

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

def _render_terms(terms: Terms) -> str:
    return ",".join(t.name for t in terms)


def _chain(formula: Formula, cls) -> list[Formula]:
    """The operands of a left-nested ``cls`` chain, left to right."""
    parts = []
    while isinstance(formula, cls):
        parts.append(formula.right)
        formula = formula.left
    parts.append(formula)
    return parts[::-1]


def render(formula: Formula) -> str:
    """Canonical concrete syntax; ``parse(render(f))`` rebuilds ``f``.

    A stack holds the formulas still to render and the text between them,
    so no nesting depth recurses.
    """
    if not isinstance(formula, Formula):
        raise TypeError(f"not a formula: {formula!r}")
    out: list[str] = []
    stack: list[Formula | str] = [formula]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        if isinstance(item, (And, Or)):
            sep = " & " if isinstance(item, And) else " | "
            operands = _chain(item, type(item))
        elif isinstance(item, (Exists, Forall)):
            while isinstance(item, (Exists, Forall)):
                kw = "exists" if isinstance(item, Exists) else "forall"
                out.append(f"{kw} {item.variable} ")
                item = item.body
            sep, operands = "", [item]
        else:
            out.append(_render_atom(item))
            continue
        # pushed last operand first, so they pop left to right
        for i, operand in enumerate(reversed(operands)):
            if i:
                stack.append(sep)
            stack.extend((")", operand, "(") if isinstance(operand, (And, Or)) else (operand,))
    return "".join(out)


def _render_atom(formula: Formula) -> str:
    if isinstance(formula, Eq):
        return f"{formula.left.name}={formula.right.name}"
    if isinstance(formula, Neq):
        return f"{formula.left.name}!={formula.right.name}"
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
    raise TypeError(f"not a formula: {formula!r}")


# --- parsing ----------------------------------------------------------------
#
# One front end reads formulas here and propositional formulas in ``prop``:
# ``scan`` turns a text into tokens, a ``Cursor`` walks them, and
# ``parse_chains`` reads units joined by ``&`` or ``|``.  A grammar supplies
# its token pattern, its atom parser and its joins.

Token = tuple[str, str, int]  # kind, text, offset


def position(text: str, offset: int) -> tuple[int, int]:
    """The line and column, both from 1, of ``offset`` in ``text``."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _error(text: str, offset: int, message: str) -> ParseError:
    return ParseError(message, *position(text, offset))


def scan(pattern: re.Pattern, text: str, keywords: frozenset[str] = frozenset()) -> list[Token]:
    """The tokens of ``text``, ending in ``("eof", "", len(text))``.

    ``pattern`` has a group ``ws`` (skipped), a group ``sym`` (punctuation,
    whose kind is its text), a catch-all group ``bad`` (an unexpected
    character) and others whose name is their kind; a keyword's kind is its
    text.
    """
    tokens = []
    for m in pattern.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        chunk = m.group()
        if kind == "bad":
            raise _error(text, m.start(), f"unexpected character {chunk!r}")
        if kind == "sym" or chunk in keywords:
            kind = chunk
        tokens.append((kind, chunk, m.start()))
    tokens.append(("eof", "", len(text)))
    return tokens


class Cursor:
    """A position in the tokens of ``text``; errors are located by offset."""

    def __init__(self, pattern: re.Pattern, text: str, keywords: frozenset[str] = frozenset()):
        self.text = text
        self.tokens = scan(pattern, text, keywords)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.next()
        if tok[0] != kind:
            raise self.fail(f"expected {kind!r}, got {tok[1] or 'end of input'!r}", tok)
        return tok

    def fail(self, message: str, tok: Token | None = None) -> ParseError:
        """An error at ``tok``, by default the next token."""
        return _error(self.text, (tok or self.peek())[2], message)


def _bind(prefix: list, unit):
    for cls, variable in reversed(prefix):
        unit = cls(variable, unit)
    return unit


def parse_chains(cursor: Cursor, atom, joins: dict, quantifiers: dict):
    """Read the whole text: units joined by one connective per parenthesised group.

    ``unit := '(' chain ')' | quantifier name unit | atom`` and ``chain :=
    unit (op unit)*``, one op of ``joins`` per chain.  ``atom(cursor)``
    reads any other unit; ``joins[op](parts)`` builds a chain of two or
    more parts; ``quantifiers`` maps a keyword to the class that binds its
    variable in the next unit.  Open groups wait on a stack, so nesting
    depth is bounded by memory, not by the recursion limit.
    """
    stack = []  # the enclosing groups' (prefix, parts, op)
    prefix, parts, op = [], [], None  # the innermost open group's
    while True:
        unit_prefix = []
        while cursor.peek()[0] in quantifiers:
            cls = quantifiers[cursor.next()[0]]
            unit_prefix.append((cls, cursor.expect("name")[1]))
        if cursor.peek()[0] == "(":
            cursor.next()
            stack.append((prefix, parts, op))
            prefix, parts, op = unit_prefix, [], None
            continue
        unit = _bind(unit_prefix, atom(cursor))
        while True:  # close every group that this unit ends
            parts.append(unit)
            kind = cursor.peek()[0]
            if kind in joins:
                op = op or kind
                if kind != op:
                    raise cursor.fail("mixing '&' and '|' requires parentheses")
                cursor.next()
                break
            unit = joins[op](parts) if op else parts[0]
            if not stack:
                tok = cursor.peek()
                if tok[0] != "eof":
                    raise cursor.fail(f"unexpected trailing input {tok[1]!r}")
                return unit
            cursor.expect(")")
            unit = _bind(prefix, unit)
            prefix, parts, op = stack.pop()


_TOKEN_RE = re.compile(rf"(?P<ws>\s+)|(?P<name>{NAME})|(?P<sym>!=|[()&|!=;,])|(?P<bad>.)")
_JOINS = {"&": and_all, "|": or_all}
_QUANTIFIERS = {"exists": Exists, "forall": Forall}
_TEAM_ATOMS = {"dep": (Dep, (";", ")")), "inc": (Inc, (";", ")")), "indep": (Indep, (";", ";", ")"))}


# Parsed formulas kept, most recently used first; a bound, not an option.
PARSED_FORMULAS = 64


def parse(text: str, vocabulary: Vocabulary | None = None) -> Formula:
    """Parse a formula; with a vocabulary, resolve constants and check arities.

    Served from a cache of the ``PARSED_FORMULAS`` most recently parsed
    ``(text, vocabulary)`` pairs: formulas and vocabularies are immutable, so
    every caller shares one formula object and the facts kept on its nodes.
    A text that fails to parse is not kept; it raises again on every call.
    """
    return _parse(text, vocabulary)


@lru_cache(maxsize=PARSED_FORMULAS)
def _parse(text: str, vocabulary: Vocabulary | None) -> Formula:
    def term(name: str) -> Term:
        if vocabulary is not None and vocabulary.has_constant(name):
            return Const(name)
        return Var(name)

    def terms(closer: str) -> Terms:
        if cursor.peek()[0] == closer:
            return ()
        found = [term(cursor.expect("name")[1])]
        while cursor.peek()[0] == ",":
            cursor.next()
            found.append(term(cursor.expect("name")[1]))
        return tuple(found)

    def relation(tok: Token) -> Terms:
        cursor.expect("(")
        args = terms(")")
        cursor.expect(")")
        if vocabulary is not None:
            arity = vocabulary.relation_arity(tok[1])
            if arity is None:
                raise cursor.fail(f"unknown relation {tok[1]!r}", tok)
            if arity != len(args):
                raise cursor.fail(f"relation {tok[1]!r} has arity {arity}, got {len(args)} arguments", tok)
        return args

    def atom(cursor: Cursor) -> Formula:
        tok = cursor.next()
        kind = tok[0]
        if kind == "!":
            name = cursor.expect("name")
            return NegRel(name[1], relation(name))
        if kind in _TEAM_ATOMS:
            cls, closers = _TEAM_ATOMS[kind]
            cursor.expect("(")
            tuples = []
            for closer in closers:
                tuples.append(terms(closer))
                cursor.expect(closer)
            try:
                return cls(*tuples)
            except ValueError as exc:
                raise cursor.fail(str(exc), tok) from exc
        if kind == "name":
            if cursor.peek()[0] == "(":
                return Rel(tok[1], relation(tok))
            left = term(tok[1])
            nxt = cursor.next()
            if nxt[0] == "=":
                return Eq(left, term(cursor.expect("name")[1]))
            if nxt[0] == "!=":
                return Neq(left, term(cursor.expect("name")[1]))
            raise cursor.fail("expected '=' or '!=' after a term", nxt)
        raise cursor.fail(f"unexpected {tok[1] or 'end of input'!r}", tok)

    cursor = Cursor(_TOKEN_RE, text, KEYWORDS)
    return parse_chains(cursor, atom, _JOINS, _QUANTIFIERS)
