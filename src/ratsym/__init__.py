"""Exact construction, verification and connection of rational maps of the
projective line with prescribed finite symmetry groups."""

from .fields import (QQ, CyclotomicField, FieldElement, FieldMismatch,
                     QuadraticField, RationalField, common_field, interval_embed,
                     lift, root_of_unity, sign_real)
from .poly import (BothZero, Poly, interpolate, poly_gcd, resultant,
                   sturm_roots_in_interval)
from .ratmap import (DegenerateMap, ProjPoint, RationalMap, compose, conjugate,
                     eval_proj, is_automorphism, make_map, maps_equal)
from .mobius import (CapExceeded, GroupSpec, MobiusMap, group_closure, identity,
                     inversion, mobius_order, rotation, scaling,
                     standard_generators, translation)
from .symmetry import (AutSearchIncomplete, CoefficientConditionViolated,
                       CyclicFamily, DihedralFamily, NotAdmissible,
                       UnexpectedDegree, WitnessReport, WitnessUnavailable,
                       aut_in_normalizer, build_cyclic, build_dihedral,
                       classify_lemma_case, cyclic_admissible,
                       cyclic_family_from_map, dihedral_admissible, lemma_witness,
                       platonic_admissible, random_cyclic_family,
                       random_dihedral_family, simple_cyclic_family,
                       simple_dihedral_family)
from .moduli import (CertificateInvalid, CertificationFailed, ConjugationLeg,
                     ConnectivityCertificate, DimensionReport, FamilyMismatch,
                     IntervalProof, MilnorPoint, NormalizationFailed,
                     NotDegreeTwo, PathCertificate, PathLeg, PathSegment,
                     SturmProof, build_path,
                     connectivity_certificate, dim_cyclic, dim_dihedral,
                     fujimura_cubic, involution_to_standard, milnor_coordinates,
                     validate_connectivity_certificate, validate_path_certificate)
from . import jsonio

__version__ = "0.1.0"
