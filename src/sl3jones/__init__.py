"""Exact sl3 colored invariants of torus knots.

The package computes the colored invariant of T(2,b) from a closed-form
expansion of the second plethysm of an irreducible sl3 character, and
that of any T(a,b) from the Adams image of the character's weights (the
weight form of the Rosso-Jones sum), with exact Laurent arithmetic on a
fractional exponent lattice.  An independent symmetric-function route
(Adams operation plus Schur decomposition) checks both from outside:
it cross-checks the plethysm expansion, and its straightened expansion,
summed by the same evaluator, must give the same invariant.
"""

__version__ = "0.3.0"

from .jones import (ColoredJonesResult, DegreeReport, TorusKnotSpec,
                    degree_report, jones_rosso, jones_t2b)
from .laurent import (InexactDivisionError, LaurentError,
                      NonIntegralExponentError, ScaledLaurent, ScaleError,
                      UndefinedDegreeError)
from .plethysm2 import psi2_closed, psi2_schur_form
from .schur3 import (NotSymmetricError, psi_oracle, verify_lemma_LR,
                     verify_lemma_psi2_recurrence)
from .sl3rep import (SignedWeightSum, Weight, pairing, qdim_closed, qdim_weyl,
                     qint, twist_monomial, twist_weyl_check)

__all__ = [
    "__version__",
    # laurent
    "ScaledLaurent",
    "LaurentError",
    "ScaleError",
    "InexactDivisionError",
    "NonIntegralExponentError",
    "UndefinedDegreeError",
    # sl3rep
    "Weight",
    "pairing",
    "qint",
    "qdim_closed",
    "qdim_weyl",
    "twist_monomial",
    "twist_weyl_check",
    "SignedWeightSum",
    # schur3
    "NotSymmetricError",
    "psi_oracle",
    "verify_lemma_LR",
    "verify_lemma_psi2_recurrence",
    # plethysm2
    "psi2_closed",
    "psi2_schur_form",
    # jones
    "TorusKnotSpec",
    "ColoredJonesResult",
    "DegreeReport",
    "jones_t2b",
    "jones_rosso",
    "degree_report",
]
