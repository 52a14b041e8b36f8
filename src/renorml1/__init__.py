"""renorml1: exact rational geometry of a renormed L1[0,1) at desk scale.

Step functions on the dyadic grid carry two exactly computable norms: the
canonical l1 norm and an l2 aggregate of cell seminorms whose square is
rational. On top of that calculus the package constructs and verifies, with
zero floating-point error, witnesses for the big-slice behaviour of the
renormed ball, strict-convexity equality certificates, octahedral/near-l1
spike systems for the canonical norm, and a sup-norm recursion separating
diameter-2 behaviour from directional uniform rotundity.
"""

from .dyadic import (
    MAX_LEVEL,
    DyadicIndex,
    DyadicStep,
    LevelOverflowError,
    decompose,
    dyadic_project,
    frac_str,
    indicator,
    integral_over,
    lin_comb,
    norms,
    pairing,
    refine,
    reflect,
    step_from_json,
    to_frac,
)
from .renorm import (
    EqualityCase,
    NormSqReport,
    check_equivalence,
    dual_norm_estimate,
    norm_report,
    partial_below,
    tail_formula,
    tnorm_sq,
    triangle_equality_case,
)
from .witness import (
    GapConditionError,
    SplitPair,
    WeakNbhd,
    WitnessReport,
    best_rational_leq_sqrt,
    choose_K,
    choose_gamma,
    d2p_witness,
    near_unit_scale,
    split_pair,
)
from .probes import (
    ChainReport,
    ExtremeFailureWitness,
    midpoint_defect,
    perturbation_l1_chain,
    slice_diameter_lb,
    strong_extreme_failure,
    weak_smallness,
)
from .ell1 import (
    CapacityError,
    DualPair,
    ScheduleInfeasibleError,
    Spike,
    SpikeFamily,
    combo_l1,
    disjoint_spike_family,
    dual_segment,
    ell1_bounds,
    greedy_asymptotic_ell1,
    nonsmooth_pairings,
    octahedral_direction,
)
from .ured import (
    RecursionRun,
    SparseSeq,
    segment_check,
    ured_recursion,
    verify_claim,
)

__version__ = "0.1.0"
