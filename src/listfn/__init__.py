"""First-order and regular list functions over nested-list types.

The package has four layers: a typed combinator calculus with a reference
evaluator (``types``, ``terms``, ``stdlib``, ``syntax``), factorisation
forests and the compilation of aperiodic rational functions into bounded
pipelines (``algebra``, ``rational``), copyless register updates and
streaming transducers (``registers``), and first-order transductions over
parse-tree encodings (``logic``).  ``samples`` holds shared example objects,
``fileio`` the file formats, and ``cli`` the command-line front end.
"""

from .algebra import (
    AlgebraError,
    FactTree,
    FiniteMonoid,
    FiniteSemigroup,
    Homomorphism,
    Leaf,
    Node,
    NotAperiodicError,
    aperiodicity_index,
    build_factorisation,
    forest_depth_bound,
    is_aperiodic,
    validate_factorisation,
)
from .logic import (
    EncodingError,
    FOTransduction,
    Formula,
    LogicError,
    Structure,
    apply_transduction,
    builtin_fot,
    builtin_term,
    check_commutes,
    decode_structure,
    encode_value,
    eval_formula,
    parse_formula,
    render_formula,
)
from .rational import (
    Pipeline,
    RationalFn,
    compile_rational,
    eval_pipeline,
    eval_rational_direct,
)
from .registers import (
    Lit,
    Reg,
    SSTSpec,
    UpdateError,
    apply_update,
    homogeneous_product,
    parse_update,
    product_list_updates,
    render_update,
    run_sst_naive,
    run_sst_structured,
    update_product,
)
from .syntax import parse_term, render_term
from .terms import (
    EvalError,
    GroupSpec,
    GuardViolation,
    Term,
    TermTypeError,
    eval_term,
    infer_type,
    is_first_order,
)
from .types import (
    Atom,
    Bot,
    FinSet,
    List,
    ListfnError,
    ParseError,
    Prod,
    Sum,
    TypeExpr,
    TypeMismatch,
    Value,
    parse_type,
    parse_value,
    render_type,
    render_value,
)

__version__ = "0.1.0"
