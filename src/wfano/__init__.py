"""Exact-arithmetic certificate checker for the 95 weighted Fano threefold
hypersurface families: enumeration, singularity census, blow-up intersection
numbers, and per-point exclusion/untwisting certificates verified against
the reference tables."""

from .blowup import (B, BlowupContext, E, NonIntegral, YClass, b_cubed,
                     divisor_multiplicity, monomial_order,
                     proper_transform_class, s_class, triple)
from .census import (Census, EdgeContained, NonTerminal, QuotientSingularity,
                     canonical_type, census, edge_point_count,
                     edge_singularities, is_terminal_family, normalize_type,
                     try_normalize_type, vertex_singularity)
from .exactmath import (NoEliminatingMonomial, OVERCUTOFF, Poly, Rat,
                        TruncSeries, ZeroPolynomial,
                        implicit_eliminate, parse_poly, series_order,
                        weighted_monomials)
from .golden import GoldenData, GoldenRow, NoMatchingRow, UnknownVariantFlag
from .rigidity import (Certificate, curve_status, involution_case,
                       k3_self_intersection, neg_definite,
                       smooth_point_status, super_rigid_families, test_b,
                       test_n, test_p)
from .wps import (Family, UnknownSpecialMember, anticanonical_degree,
                  enumerate_families, general_quasismooth, generic_member,
                  hat_lcms, is_wellformed, special_member)

__version__ = "0.1.0"
