"""Numerical toolkit for double sine series with generalized-monotone coefficients.

The package provides:

* coefficient sequences (builtin presets, expressions, tables) and their
  forward differences,
* window / block-sup majorant families used to define the coefficient
  classes, with certified tail bounds for power-decay sequences,
* conjugate Dirichlet kernels, summation by parts for rectangle partial
  sums, and the kernel envelope check,
* convergence diagnostics: weighted-tail quantities, uniform-tail
  rectangle probes, threshold (eta) searches with a closed-form envelope
  comparison, and a divergence witness for the residue-modulated preset,
* deterministic JSON / CSV report writers and a command line interface.
"""

from .differences import check_step, delta_0r, delta_r, delta_r0, delta_rr
from .convergence import (
    EtaCapError,
    EtaCondition,
    EtaSearchResult,
    Lemma3Result,
    Measurement,
    ProbeConfig,
    ProbeTraceRow,
    TailReport,
    Theorem7Result,
    Verdict,
    classify_probe,
    classify_tail,
    eta_search,
    interior_grid,
    lemma1_quantity,
    lemma2_quantities,
    lemma3_check,
    loglog_slope,
    remark2_divergence,
    theorem7_bound_check,
    uniform_tail_probe,
    uniform_tail_trace,
)
from .kernels import (
    KernelBoundReport,
    Rect,
    SingularityError,
    assert_admissible,
    dirichlet_conj,
    kernel_bound_check,
    rect_sum_direct,
    rect_sum_parts,
    rect_sum_separable,
    row_sum_by_parts,
)
from .majorants import (
    Axis,
    DoubleScanTable,
    Family,
    HorizonError,
    MajorantFamily,
    MajorantValue,
    averaging_window,
    block_sum_col,
    block_sum_double,
    block_sum_row,
    double_sup_scan,
    rhs,
    single_block_sum,
    single_sup_scan,
    single_window_sum,
)
from .membership import (
    MembershipReport,
    RatioRow,
    SingleClass,
    SingleMembershipReport,
    beta_star,
    check_condition_22,
    check_membership,
    check_single_membership,
)
from .reports import SCHEMA_VERSION, to_jsonable, write_csv, write_json
from .sequences import (
    BUILTIN_NAMES,
    CoefficientSequence,
    ExpressionError,
    PowerDecay,
    PowerDecay2D,
    SingleSequence,
    builtin,
    compile_expression,
    from_expression,
    from_table,
    parse_sequence_file,
    scale,
    separable,
    single_from_expression,
    single_from_values,
)
from .summing import ksum, sine_prefix

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # sequences
    "BUILTIN_NAMES",
    "CoefficientSequence",
    "ExpressionError",
    "PowerDecay",
    "PowerDecay2D",
    "SingleSequence",
    "builtin",
    "compile_expression",
    "from_expression",
    "from_table",
    "parse_sequence_file",
    "scale",
    "separable",
    "single_from_expression",
    "single_from_values",
    # differences
    "check_step",
    "delta_r",
    "delta_r0",
    "delta_0r",
    "delta_rr",
    # majorants
    "Axis",
    "DoubleScanTable",
    "Family",
    "HorizonError",
    "MajorantFamily",
    "MajorantValue",
    "averaging_window",
    "block_sum_row",
    "block_sum_col",
    "block_sum_double",
    "single_block_sum",
    "single_window_sum",
    "single_sup_scan",
    "double_sup_scan",
    "rhs",
    # membership
    "MembershipReport",
    "RatioRow",
    "SingleClass",
    "SingleMembershipReport",
    "beta_star",
    "check_condition_22",
    "check_membership",
    "check_single_membership",
    # kernels / summation
    "KernelBoundReport",
    "Rect",
    "SingularityError",
    "assert_admissible",
    "dirichlet_conj",
    "kernel_bound_check",
    "rect_sum_direct",
    "rect_sum_parts",
    "rect_sum_separable",
    "row_sum_by_parts",
    # convergence
    "EtaCapError",
    "EtaCondition",
    "EtaSearchResult",
    "Lemma3Result",
    "Measurement",
    "ProbeConfig",
    "ProbeTraceRow",
    "TailReport",
    "Theorem7Result",
    "Verdict",
    "classify_probe",
    "classify_tail",
    "eta_search",
    "interior_grid",
    "lemma1_quantity",
    "lemma2_quantities",
    "lemma3_check",
    "loglog_slope",
    "remark2_divergence",
    "theorem7_bound_check",
    "uniform_tail_probe",
    "uniform_tail_trace",
    # reports
    "SCHEMA_VERSION",
    "to_jsonable",
    "write_json",
    "write_csv",
    # summing
    "ksum",
    "sine_prefix",
]
