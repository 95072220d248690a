"""Exact wall-crossing computations for pointed curves on the plane and
the quadric: numerical stability over a one-parameter family of
linearizations, inflectionary behavior at the marked point, relative
flex divisor classes, and a replayable table of the interval claims the
analysis rests on. Everything runs in rational arithmetic."""

from .criterion import (
    OneParamSubgroup,
    StabilityVerdict,
    destabilizer_search,
    interval_mu_claim,
    mu_min,
    stabilizer_dimension,
    stability_verdict,
    torus_verdict,
)
from .curves import (
    FrameChange,
    PointedCurve,
    Surface,
    WitnessKind,
    apply_frame,
    curve_from_json,
    curve_to_json,
    make_witness,
    normalize_frame,
)
from .errors import InternalError
from .hessians import (
    DivisorClass,
    analyzed_slopes,
    h2prime_class,
    relative_hessian_class,
    symmetrized_class_quadric,
    wall_slope,
)
from .inflection import (
    InflectionReport,
    inflection_report,
    special_locus_membership,
    vanishing_sequence,
)
from .walls import (
    chamber_report,
    classify_at_wall,
    load_propositions,
    verify_all,
    verify_proposition,
)

__version__ = "0.1.0"
