"""Computational toolkit for the volume product of origin-symmetric 3D
polytopes: exact and floating polytope kernels, polar duality, symmetric
shadow systems with certified persistence, admissible-speed dimension
bounds, minimizer classification, and a volume-product descent optimizer.
"""

from . import errors
from .combinatorics import (AFFINE_OCTAHEDRON, EXCLUDED, PARALLELEPIPED,
                            DimensionReport, MinimizerClassification, c_theta,
                            classify_minimizer_candidate, dimension_bound,
                            dimension_bounds, generic_direction,
                            in_plane_direction)
from .geometry import (DOUBLE, RATIONAL, FaceLattice, SymPolytope,
                       build_sym_polytope, from_representatives, linear_image,
                       load_polytope, same_labeled_lattice, save_polytope,
                       snap_to_rational, to_double, volume)
from .optimizer import (DescentConfig, DescentStep, DescentTrace,
                        corpus_verify, descend, random_symmetric_polytope)
from .polarity import (MAHLER_BOUND, VolumeProductReport, polar,
                       verify_incidence_duality, volume_product)
from .shadow import (Direction, ShadowSystem, SpeedSpace, SpeedVector,
                     admissibility_residual, admissible_space,
                     admissible_spaces, check_inverse_polar_convexity,
                     check_volume_affine, deform, direction, frozen_product,
                     is_trivial, nontrivial_component, nontrivial_speed,
                     parallel_facets, persistence_interval, persistence_root,
                     shadow_system, speed_vector, trivial_speed)

__version__ = "1.0.0"

__all__ = [
    "AFFINE_OCTAHEDRON", "EXCLUDED", "PARALLELEPIPED", "DOUBLE",
    "DescentConfig", "DescentStep", "DescentTrace", "DimensionReport",
    "Direction", "FaceLattice", "MAHLER_BOUND", "MinimizerClassification",
    "RATIONAL", "ShadowSystem", "SpeedSpace", "SpeedVector", "SymPolytope",
    "VolumeProductReport", "admissibility_residual", "admissible_space",
    "admissible_spaces", "build_sym_polytope", "c_theta",
    "check_inverse_polar_convexity", "check_volume_affine",
    "classify_minimizer_candidate", "corpus_verify", "deform", "descend",
    "dimension_bound", "dimension_bounds", "direction", "errors",
    "from_representatives", "frozen_product", "generic_direction",
    "in_plane_direction", "is_trivial", "linear_image", "load_polytope",
    "nontrivial_component", "nontrivial_speed", "parallel_facets",
    "persistence_interval", "persistence_root", "polar",
    "random_symmetric_polytope", "same_labeled_lattice", "save_polytope",
    "shadow_system", "snap_to_rational", "speed_vector", "to_double",
    "trivial_speed", "verify_incidence_duality", "volume", "volume_product",
    "__version__",
]
