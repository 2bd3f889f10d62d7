"""Workbench for the many-sorted polymodal provability logics.

Systems: the Kripke-complete base system (jstar), its extension with
monotonicity (glpstar), the sorted truth extension (glpsstar), and the
classical one-sorted logic (glp) via the omega-sorted embedding.
"""

from types import ModuleType as _ModuleType

from .formulas import (
    BOT,
    OMEGA,
    TOP,
    And,
    Bot,
    Box,
    Dia,
    Formula,
    Implies,
    Neg,
    Or,
    Sort,
    Top,
    Var,
    adequate_closure,
    desugar,
    diamond_subformulas,
    modal_levels,
    modified_negation,
    sort_of,
    subformulas,
    to_omega_sorted,
    variables_of,
)
from .parsing import (
    ParseError,
    SourceSpan,
    export_dot,
    parse_formula,
    parse_formula_file,
    parse_model,
    render_formula,
    render_model,
)
from .kripke import (
    KripkeModel,
    Violation,
    adjoin_root,
    check_jstar_frame,
    check_strong_persistence,
    find_roots,
    model_check,
    valid_in_model,
)
from .reductions import (
    h_formula,
    m_formula,
    m_plus,
    n_formula,
    n_plus,
    occurring_modalities,
    r_theta,
    r_theta_plus,
)
from .hintikka import DEFAULT_CANDIDATE_CAP, ResourceLimitError
from .decide import SystemId, Verdict, cross_validate, decide, reduction_target
from .oracle import SearchBudget, brute_force_countermodel, enumerate_models
from .proofs import (
    Axiom,
    CheckResult,
    DiaMono,
    ModusPonens,
    Necessitation,
    ProofLine,
    ProofObject,
    check_proof,
    corpus_proofs,
    match_axiom,
    parse_proof,
)

# the names imported above; the submodules they come from are not exported
__all__ = [name for name in dir()
           if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
__version__ = "0.1.0"
