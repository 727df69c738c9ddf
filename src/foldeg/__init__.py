"""foldeg — exact degrees of foliation families on projective 3-space.

Two families of degree-d one-dimensional foliations of P^3 are counted
here, both by torus (Bott) localization with all arithmetic over Q:

* the Legendrian family (foliations tangent to a contact distribution),
  whose degree sits inside the P^5 of antisymmetric forms; the fiber at
  each fixed point is a limit, summed in closed form under every method
  (foldeg.bott), while the kernel route and "both" also compute it by
  exact elimination as a check (foldeg.limits);
* the pencil family (foliations tangent to a varying pencil of planes),
  localized on the Grassmannian of pencils, where the fiber weights can
  be written down directly (foldeg.pencil).

Each family is a Family record, and foldeg.bott.localize computes the
six-point localization sum for either.  Both counting functions are
polynomials in d; foldeg.polyfit evaluates the closed forms and
reproduces them by exact interpolation of freshly computed degrees.  The
command-line entry point lives in foldeg.cli.
"""

from .bott import (
    DegreeReport,
    Family,
    NonIntegralDegree,
    legendrian_degree,
    localize,
)
from .exact import InadmissibleWeights, WeightSystem
from .fields import AntisymmetricForm, build_phi_basis, contract, tangent_kernel_dimension
from .limits import MethodDisagreement, SaturationRankError, limit_fiber_weights
from .pencil import pencil_degree
from .polyfit import (
    FAMILIES,
    InsufficientPoints,
    IntegralityError,
    family_closed_form,
    family_closed_form_polynomial,
    interpolate_family,
)

__version__ = "0.1.0"

__all__ = [
    "AntisymmetricForm",
    "DegreeReport",
    "FAMILIES",
    "Family",
    "InadmissibleWeights",
    "InsufficientPoints",
    "IntegralityError",
    "MethodDisagreement",
    "NonIntegralDegree",
    "SaturationRankError",
    "WeightSystem",
    "build_phi_basis",
    "cli",
    "contract",
    "family_closed_form",
    "family_closed_form_polynomial",
    "interpolate_family",
    "legendrian_degree",
    "limit_fiber_weights",
    "localize",
    "pencil",
    "pencil_degree",
    "tangent_kernel_dimension",
]
