"""Exact construction, classification and isomorphism testing of nilpotent
Jordan algebras over Q and prime fields."""

from .algebra import Algebra, Fingerprint, zero_algebra
from .tables import CatalogEntry, catalog, catalog_verify
from .classify import ClassificationResult, brute_force_classes, classify_dim
from .cohomology import (BilinearForm, FormSpace, coboundary_space,
                         cocycle_space, dual_form, h2_space, pull_back)
from .extension import central_extension
from .field import GF, QQ, PrimeField, Rationals, UnsupportedFieldError
from .files import AlgebraFileError, parse_algebra_file, render_algebra
from .groebner import (PolyRing, Polynomial, buchberger, contains_one,
                       reduce_poly, s_polynomial)
from .isotest import IsoVerdict, decide, iso_system, prefilter
from .limits import Limits, ResourceLimitError
from .linalg import Subspace
from .orbits import (AutGroup, automorphism_group, grassmannian_points,
                     orbit_representatives)

__version__ = "0.1.0"
