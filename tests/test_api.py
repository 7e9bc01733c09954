import mahler3d as M

# The public API, name for name: a name removed from the package must leave
# this list and __all__ together, and a new export must be added to both.
PUBLIC = frozenset({
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
})


def test_all_names_resolve_once():
    assert len(M.__all__) == len(set(M.__all__))
    for name in M.__all__:
        assert hasattr(M, name), name


def test_all_is_the_public_api():
    assert set(M.__all__) - PUBLIC == set(), "stale or unlisted export"
    assert PUBLIC - set(M.__all__) == set(), "missing export"
