import numpy as np
import pytest

import mahler3d as M

CUBE_REPS = [(1, 1, 1), (1, 1, -1), (1, -1, 1), (-1, 1, 1)]
OCTA_REPS = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
CUBOCTA_REPS = [(1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1),
                (0, 1, 1), (0, 1, -1)]
HEX_PRISM_REPS = [(2, 0, 1), (1, 2, 1), (-1, 2, 1),
                  (2, 0, -1), (1, 2, -1), (-1, 2, -1)]


def sym(reps, kernel):
    return M.build_sym_polytope(reps, kernel=kernel)


def random_corpus(count, seed, pairs_min=3, pairs_max=6):
    """Deterministic list of random double-kernel symmetric polytopes with
    cycling pair counts."""
    rng = np.random.default_rng(seed)
    span = pairs_max - pairs_min + 1
    bodies = []
    for i in range(count):
        n_pairs = pairs_min + (i % span)
        bodies.append(M.random_symmetric_polytope(
            n_pairs, seed=int(rng.integers(0, 2 ** 62))))
    return bodies


@pytest.fixture(scope="session")
def cube_r():
    return sym(CUBE_REPS, M.RATIONAL)


@pytest.fixture(scope="session")
def cube_d():
    return sym(CUBE_REPS, M.DOUBLE)


@pytest.fixture(scope="session")
def octa_r():
    return sym(OCTA_REPS, M.RATIONAL)


@pytest.fixture(scope="session")
def octa_d():
    return sym(OCTA_REPS, M.DOUBLE)


@pytest.fixture(scope="session")
def cubocta_r():
    return sym(CUBOCTA_REPS, M.RATIONAL)


@pytest.fixture(scope="session")
def cubocta_d():
    return sym(CUBOCTA_REPS, M.DOUBLE)


@pytest.fixture(scope="session")
def hex_prism_r():
    return sym(HEX_PRISM_REPS, M.RATIONAL)


@pytest.fixture(scope="session")
def corpus50():
    return random_corpus(50, seed=20240817)


@pytest.fixture
def snap_calls(monkeypatch):
    """The bodies passed to ``geometry.snap_to_rational`` during the test."""
    from mahler3d import geometry
    calls = []
    real = geometry.snap_to_rational

    def snap_to_rational(P):
        calls.append(P)
        return real(P)

    monkeypatch.setattr(geometry, "snap_to_rational", snap_to_rational)
    return calls


GATE_LINES = []


def pytest_terminal_summary(terminalreporter):
    """Replay the acceptance verdict lines after the run so they survive
    output capture and land in any teed log."""
    if GATE_LINES:
        terminalreporter.section("acceptance gate")
        for line in GATE_LINES:
            terminalreporter.write_line(line)
