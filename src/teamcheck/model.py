"""Finite relational structures, assignments, and teams.

Elements of a structure are dense integer ids ``0..n-1``; external formats
use those ids directly.  A team is a set of assignments over a shared
variable domain.  Internally a team stores its variables as a sorted tuple
and its rows as a frozenset of value tuples aligned with that variable
order, so row sets hash and compare cheaply and team equality is exactly
row-set equality.

All values here are immutable after construction and every operation is
pure, so any number of teams, searches and bindings may share one.  The one
mutable type is ``Memo``, a per-row cache.  ``extension_memo`` keeps a
row's extensions by a variable in one; it is the row-extension primitive
behind ``duplicate``, ``evaluator.row_test`` and the bound team evaluators.
A row's extensions depend on the domain size alone, so one memo per
(domain size, variable order, variable) serves every structure and call;
a bounded cache keeps the ``EXTENSION_MEMOS`` most recently used of those
small enough to keep (``SHARED_EXTENSION_ROWS``), and a larger memo lives
only as long as its caller holds it.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping

from .errors import ParseError


_CLASH = "relation and constant names must be pairwise distinct"


def _check_arity(name: str, arity: object) -> None:
    if not isinstance(arity, int) or arity < 1:
        raise ValueError(f"relation {name!r} must have a positive integer arity, got {arity!r}")


def _check_constant(name: str, value: int, domain_size: int) -> None:
    if not (0 <= value < domain_size):
        raise ValueError(f"constant {name!r} maps outside the domain")


def _relation_rows(name: str, arity: int, tuples, domain_size: int) -> frozenset[tuple[int, ...]]:
    """The tuples as a frozenset, once every one has the arity and lies in the domain."""
    # the lengths and the distinct values checked in bulk; the loop only names the first bad tuple
    values = set(itertools.chain.from_iterable(tuples))
    if set(map(len, tuples)) - {arity} or values and not (0 <= min(values) and max(values) < domain_size):
        for tup in tuples:
            if len(tup) != arity:
                raise ValueError(f"tuple {tup} has wrong arity for {name!r}/{arity}")
            if any(not (0 <= v < domain_size) for v in tup):
                raise ValueError(f"tuple {tup} of {name!r} mentions elements outside the domain")
    return frozenset(map(tuple, tuples))


@dataclass(frozen=True)
class Vocabulary:
    """Relation symbols with positive arities, plus constant symbols."""

    relations: tuple[tuple[str, int], ...] = ()
    constants: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        names = [name for name, _ in self.relations] + list(self.constants)
        if len(set(names)) != len(names):
            raise ValueError(_CLASH)
        for name, arity in self.relations:
            _check_arity(name, arity)

    def relation_arity(self, name: str) -> int | None:
        for rel, arity in self.relations:
            if rel == name:
                return arity
        return None

    def has_constant(self, name: str) -> bool:
        return name in self.constants


@dataclass(frozen=True, eq=False)
class Structure:
    """A finite structure: domain ``0..domain_size-1`` with named relations and constants."""

    vocabulary: Vocabulary
    domain_size: int
    relations: Mapping[str, frozenset[tuple[int, ...]]] = field(default_factory=dict)
    constants: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.domain_size < 1:
            raise ValueError("structures must have at least one element")
        object.__setattr__(self, "relations", dict(self.relations))
        object.__setattr__(self, "constants", dict(self.constants))
        declared = dict(self.vocabulary.relations)
        for name, tuples in self.relations.items():
            if name not in declared:
                raise ValueError(f"relation {name!r} not declared in the vocabulary")
            self.relations[name] = _relation_rows(name, declared[name], tuples, self.domain_size)
        for name in declared:
            self.relations.setdefault(name, frozenset())
        for name in self.vocabulary.constants:
            if name not in self.constants:
                raise ValueError(f"constant {name!r} is not mapped to an element")
            _check_constant(name, self.constants[name], self.domain_size)
        for name in self.constants:
            if not self.vocabulary.has_constant(name):
                raise ValueError(f"constant {name!r} not declared in the vocabulary")

    @property
    def elements(self) -> range:
        return range(self.domain_size)


Row = tuple[int, ...]


@dataclass(frozen=True)
class Team:
    """A set of assignments sharing a variable domain.

    ``variables`` is always sorted; each row is a value tuple aligned with
    it.  The empty team is valid over any domain, including the empty one,
    in which case the single possible row is the empty tuple.
    """

    variables: tuple[str, ...]
    rows: frozenset[Row]

    def __post_init__(self) -> None:
        if tuple(sorted(self.variables)) != self.variables:
            raise ValueError("team variables must be sorted; use Team.make")
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable in team domain")
        for row in self.rows:
            if len(row) != len(self.variables):
                raise ValueError(f"row {row} does not match domain {self.variables}")

    @classmethod
    def make(cls, variables: Iterable[str], rows: Iterable[Mapping[str, int] | Row] = ()) -> "Team":
        """Build a team from assignment dicts or pre-aligned value tuples."""
        vs = tuple(sorted(set(variables)))
        out: set[Row] = set()
        for row in rows:
            if isinstance(row, Mapping):
                if set(row) != set(vs):
                    raise ValueError(f"assignment {dict(row)} does not bind exactly {vs}")
                out.add(tuple(row[v] for v in vs))
            else:
                tup = tuple(row)
                if len(tup) != len(vs):
                    raise ValueError(f"row {tup} does not match domain {vs}")
                out.add(tup)
        return cls(vs, frozenset(out))

    @classmethod
    def empty(cls, variables: Iterable[str] = ()) -> "Team":
        return cls.make(variables, ())

    def __len__(self) -> int:
        return len(self.rows)

    def domain(self) -> frozenset[str]:
        return frozenset(self.variables)

    def assignments(self) -> Iterator[dict[str, int]]:
        for row in sorted(self.rows):
            yield dict(zip(self.variables, row))


class Memo(dict):
    """Per-row results computed on first lookup; ``memo.__getitem__`` maps rows in C."""

    __slots__ = ("compute",)

    def __init__(self, compute: Callable[[Row], object]):
        super().__init__()
        self.compute = compute

    def __missing__(self, row: Row):
        value = self[row] = self.compute(row)
        return value


# The shared extension memos: how many are kept, and how many extended rows
# one may hold, so that the cache's memory stays bounded.
EXTENSION_MEMOS = 64
SHARED_EXTENSION_ROWS = 1024


def extension_memo(domain_size: int, variables: tuple[str, ...], variable: str) -> tuple[tuple[str, ...], Memo]:
    """The variable order after extending by ``variable``, and per-row extensions.

    An extension memo maps a row to its extensions by every element
    ``0..domain_size-1``, in element order; an existing ``variable`` column
    is overwritten.  Extensions depend on the domain size alone, so a memo
    that can hold at most ``SHARED_EXTENSION_ROWS`` extended rows (``n^(w+1)``
    for domain size ``n`` and ``w`` variables) is shared by every structure
    of that size, and the ``EXTENSION_MEMOS`` most recently used are kept.
    A larger one is built afresh and belongs to the caller.
    """
    if domain_size ** (len(variables) + 1) <= SHARED_EXTENSION_ROWS:
        return _shared_extension_memo(domain_size, variables, variable)
    return _extension_memo(domain_size, variables, variable)


def extended_order(variables: tuple[str, ...], variable: str) -> tuple[str, ...]:
    """The sorted variable order after extending ``variables`` by ``variable``."""
    return tuple(sorted(set(variables) | {variable}))


def _extension_memo(domain_size: int, variables: tuple[str, ...], variable: str) -> tuple[tuple[str, ...], Memo]:
    extended = extended_order(variables, variable)
    at = extended.index(variable)
    after = at + 1 if variable in variables else at
    singletons = tuple((a,) for a in range(domain_size))
    return extended, Memo(lambda row: tuple(row[:at] + a + row[after:] for a in singletons))


_shared_extension_memo = functools.lru_cache(maxsize=EXTENSION_MEMOS)(_extension_memo)


def duplicate(structure: Structure, team: Team, variable: str) -> Team:
    """Extend (or overwrite) ``variable`` with every element, per row.

    Result domain is ``team.domain ∪ {variable}``; the empty team stays
    empty.  With a fresh variable and a nonempty team the result has
    exactly ``len(team) * n`` rows.
    """
    extended, extensions = extension_memo(structure.domain_size, team.variables, variable)
    return Team(extended, frozenset(itertools.chain.from_iterable(map(extensions.__getitem__, team.rows))))


def canonical_rows(domain_size: int, variables: Iterable[str]) -> list[Row]:
    """All value tuples over the sorted variables, in lexicographic order.

    Element ids ascend and the last variable varies fastest; over no
    variables the one row is ``()``.  This order fixes every colex-first
    witness of ``wt_solve``.
    """
    return list(itertools.product(range(domain_size), repeat=len(set(variables))))


# ---------------------------------------------------------------------------
# Structure text format
#
#   domain <n>
#   rel <name>/<arity> : (a,b) (c,d) ...
#   const <name> = <id>
#
# Whitespace separated; `#` starts a comment.

_TUPLE_RE = re.compile(r"\(([0-9,\s]*)\)")

# What ``formulas.parse`` reads as a name; a keyword is never a symbol.
NAME = r"[A-Za-z_][A-Za-z0-9_]*"
KEYWORDS = frozenset({"exists", "forall", "dep", "inc", "indep"})


def is_numeral(text: str) -> bool:
    """A nonempty run of the ASCII digits 0-9; ``str.isdigit`` alone also takes ``²``."""
    return text.isascii() and text.isdigit()


def numeral(text: str, line: int, column: int = 1) -> int:
    """``int(text)``; a numeral with more digits than ``int`` reads is a ``ParseError`` at the place given."""
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"numeral of {len(text)} digits is too long", line, column) from None


def text_lines(text: str) -> Iterator[tuple[int, str, list[str]]]:
    """Number, stripped text and words of each line left nonblank once its ``#`` comment is cut.

    The three line formats read this way are structures, teams and graphs.
    """
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line, line.split()


def _symbol(name: str, lineno: int, lines: dict[str, int]) -> str:
    """A newly declared symbol's name, recorded with its line."""
    if name in KEYWORDS:
        raise ParseError(f"{name!r} is a formula keyword, not a symbol name", lineno, 1)
    if name in lines:
        raise ParseError(_CLASH, lineno, 1)
    lines[name] = lineno
    return name


@contextlib.contextmanager
def _at_line(lineno: int):
    """Report a ``ValueError`` as a ``ParseError`` at the given line."""
    try:
        yield
    except ValueError as exc:
        raise ParseError(str(exc), lineno, 1) from exc


def parse_structure(text: str) -> Structure:
    domain_size: int | None = None
    domain_line = 0
    arities: dict[str, int] = {}
    relations: dict[str, frozenset[Row]] = {}
    constants: dict[str, int] = {}
    lines: dict[str, int] = {}  # the line declaring each symbol
    for lineno, line, parts in text_lines(text):
        if parts[0] == "domain":
            if len(parts) != 2 or not is_numeral(parts[1]):
                raise ParseError("expected `domain <n>`", lineno, 1)
            domain_size, domain_line = numeral(parts[1], lineno), lineno
        elif parts[0] == "rel":
            m = re.match(rf"rel\s+({NAME})/([0-9]+)\s*:(.*)$", line)
            if not m:
                raise ParseError("expected `rel <name>/<arity> : (a,b) ...`", lineno, 1)
            name, arity, rest = _symbol(m.group(1), lineno, lines), numeral(m.group(2), lineno), m.group(3)
            with _at_line(lineno):
                _check_arity(name, arity)
            tuples: set[Row] = set()
            leftovers = _TUPLE_RE.sub("", rest).strip()
            if leftovers:
                raise ParseError(f"unexpected text in relation line: {leftovers!r}", lineno, 1)
            for grp in _TUPLE_RE.findall(rest):
                items = [s.strip() for s in grp.split(",") if s.strip()]
                if len(items) != arity:
                    raise ParseError(f"tuple ({grp}) does not have arity {arity}", lineno, 1)
                tuples.add(tuple(numeral(s, lineno) for s in items))
            arities[name] = arity
            relations[name] = frozenset(tuples)
        elif parts[0] == "const":
            m = re.match(rf"const\s+({NAME})\s*=\s*([0-9]+)$", line)
            if not m:
                raise ParseError("expected `const <name> = <id>`", lineno, 1)
            constants[_symbol(m.group(1), lineno, lines)] = numeral(m.group(2), lineno)
        else:
            raise ParseError(f"unknown directive {parts[0]!r}", lineno, 1)
    if domain_size is None:
        raise ParseError("missing `domain <n>` header")
    vocabulary = Vocabulary(tuple(arities.items()), tuple(constants))
    try:
        return Structure(vocabulary, domain_size, relations, constants)
    except ValueError as exc:
        # The domain may come last, so values meet it only here; find the
        # declaration at fault to name its line.
        for name, tuples in relations.items():
            with _at_line(lines[name]):
                _relation_rows(name, arities[name], tuples, domain_size)
        for name, value in constants.items():
            with _at_line(lines[name]):
                _check_constant(name, value, domain_size)
        raise ParseError(str(exc), domain_line, 1) from exc


def render_structure(structure: Structure) -> str:
    lines = [f"domain {structure.domain_size}"]
    for name, arity in structure.vocabulary.relations:
        tuples = " ".join(f"({','.join(map(str, t))})" for t in sorted(structure.relations[name]))
        lines.append(f"rel {name}/{arity} :{' ' + tuples if tuples else ''}")
    for name in structure.vocabulary.constants:
        lines.append(f"const {name} = {structure.constants[name]}")
    return "\n".join(lines) + "\n"


# Team text format: one assignment per non-comment line as `var=value`
# pairs; an optional `vars x y ...` header pins the domain (useful for the
# empty team).

def parse_team(text: str, default_variables: Iterable[str] = ()) -> Team:
    variables: tuple[str, ...] | None = None
    rows: list[dict[str, int]] = []
    for lineno, _, parts in text_lines(text):
        if parts[0] == "vars":
            variables = tuple(sorted(set(parts[1:])))
            continue
        binding: dict[str, int] = {}
        for part in parts:
            if "=" not in part:
                raise ParseError(f"expected `var=value`, got {part!r}", lineno, 1)
            var, _, val = part.partition("=")
            if not is_numeral(val.removeprefix("-")):
                raise ParseError(f"value for {var!r} is not an integer", lineno, 1)
            if var in binding:
                raise ParseError(f"variable {var!r} bound twice", lineno, 1)
            binding[var] = numeral(val, lineno)
        rows.append(binding)
    if variables is None:
        variables = tuple(sorted(set(rows[0]))) if rows else tuple(sorted(set(default_variables)))
    try:
        return Team.make(variables, rows)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def render_team(team: Team) -> str:
    lines = ["vars " + " ".join(team.variables) if team.variables else "vars"]
    for assignment in team.assignments():
        lines.append(" ".join(f"{v}={assignment[v]}" for v in team.variables))
    return "\n".join(lines) + "\n"
