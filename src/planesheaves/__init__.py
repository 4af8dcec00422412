"""Exact symbolic engine for one-dimensional sheaves on the projective plane.

Sheaves are presented as cokernels of injective maps between direct sums of
line bundles, written as matrices of homogeneous forms over the rationals.
The package computes Hilbert data and cohomology profiles exactly, classifies
multiplicity-6 presentations into the registry strata, decides Kronecker
semistability on blow-ups (a modular certificate or an exact destabilizer),
and computes minimal free resolutions of reduced point configurations.
"""

from .forms import (Form, FormError, ParseError, divides, form_gcd, form_mul,
                    format_form, linearly_independent, monomials, mult_map,
                    parse_form, space_dim)
from .linalg import QMatrix
from .presentation import (CohomologyProfile, HilbertData, Presentation,
                           PresentationError, dual, h0_omega, h0_twist,
                           h1_omega, h1_twist, hilbert, is_injective, profile,
                           twist)
from .kronecker import (Destabilizer, KroneckerModule, KroneckerVerdict,
                        SemistabilityCertificate, dim_kronecker_moduli,
                        is_semistable, minors_semistable, verify_certificate,
                        verify_destabilizer)
from .stability import (BoundsQuery, StabilityVerdict, bounds_check,
                        minor_gcd_criterion, pencil_block_criterion, slope,
                        two_by_two_criterion)
from .strata import (REGISTRY, StratumLabel, StratumRow, classify, dim_audit,
                     generate, get_row, normalize_chi, rows_for_chi,
                     side_condition, verify_row)
from .points import (BettiShape, PointConfig, colinear_triple_exists,
                     contained_in_curve_of_degree, flag_pair_presentation,
                     ideal_slice, minimal_resolution, verify_point_claim)

__version__ = "0.1.0"
