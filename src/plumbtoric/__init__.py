"""plumbtoric: exact classification of concave boundaries of linear plumbings.

The library decides tight versus overtwisted for the concave contact
boundary of a linear plumbing of sphere disk bundles, identifies the lens
space, builds the glued toric moment image, and computes the combinatorial
ECH quantities (orbit enumeration, perturbation splitting, CZ / ECH /
Fredholm / J+ indices, the homological positivity sign, and the algebraic
torsion verdict).  All geometry is exact integer/rational arithmetic.
"""

from .errors import (
    ActionBoundHit,
    EmptyPlumbing,
    InconsistentInvariant,
    InternalInvariantError,
    InvalidItinerary,
    MalformedDocument,
    MinusOnePresent,
    MovePreconditionFailed,
    NonpositiveArea,
    NoNonnegativeEntry,
    NotConcaveCase,
    NotCoprime,
    NotDelzantCorner,
    OutputTooLarge,
    ParallelSameDirection,
    PlumbtoricError,
    PreconditionError,
    SizeTooLarge,
    SurveyTooLarge,
    TooManyGenerators,
    TooShort,
    ZeroVector,
)
from .lattice import (
    Cmp,
    Landing,
    MatSL2Z,
    SL2Z_IDENTITY,
    StepClass,
    WindingVerdict,
    continued_fraction,
    cross,
    dot,
    primitive,
    sl2z,
    sl2z_apply,
    sl2z_mul,
    step_class,
    winding_compare,
)
from .plumbing import (
    GSViolation,
    NeumannMove,
    blow_down,
    det_intersection,
    intersection_matrix,
    is_negative_definite,
    negative_gs_check,
    neumann_move,
)
from .toric import (
    BoundaryReport,
    Decomposition,
    MomentPolygon,
    PolygonEdge,
    RaySequence,
    Verdict,
    areas,
    blow_up_corner,
    boundary_rays,
    choose_heights,
    classify,
    decompose,
    lens_equivalent,
    lens_invariant,
    moment_polygon,
    ray_sequence,
)
from .reeb import (
    ContactInvariant,
    FamilyCount,
    IndexInput,
    ItineraryViolation,
    OrbitFamily,
    OrbitKind,
    PerturbedOrbit,
    ReebCurrent,
    ReebItinerary,
    TorsionBound,
    TorsionReport,
    ech_index,
    elliptic_orbit,
    enumerate_generators,
    enumerate_orbits,
    fredholm_index,
    hyperbolic_orbit,
    j_plus,
    parity_check,
    perturb_split,
    positivity_sign,
    reeb_direction,
    torsion_verdict,
    validate_itinerary,
)

__version__ = "0.1.0"
