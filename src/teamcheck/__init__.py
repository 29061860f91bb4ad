"""Team-semantics model checking and weighted team definability.

Evaluates dependence, inclusion, and independence logic formulas over
finite relational structures, searches for satisfying teams of a given
size, and ships the instance encoders and brute-force oracles used to
cross-validate everything.
"""

from .errors import EvaluationError, ParseError, TeamcheckError
from .evaluator import eval_fo_tarski, eval_team
from .formulas import (
    And,
    Const,
    Dep,
    Eq,
    Exists,
    Forall,
    Formula,
    FragmentReport,
    Inc,
    Indep,
    Neq,
    NegRel,
    Or,
    Rel,
    Var,
    classify,
    free_vars,
    parse,
    render,
)
from .inclusion import eval_inclusion, max_subteam
from .model import (
    Structure,
    Team,
    Vocabulary,
    duplicate,
    parse_structure,
    parse_team,
    render_structure,
    render_team,
)
from .prop import PAnd, PLit, POr, PropFormula, parse_prop, render_prop
from .reductions import (
    BooleanCircuit,
    Graph,
    build_syntax_circuit,
    circuit_eval,
    encode_clique,
    encode_domset,
    encode_indset,
    encode_wsat,
    graph_brute,
    parse_graph,
    phi_inclusion,
    proof_tree_exists,
    render_graph,
    theta_formula,
    wsat_brute,
)
from .solver import WdFormula, WtInstance, check_sentence, wd_check, wd_solve, wt_solve

__all__ = [name for name in dir() if not name.startswith("_")]
