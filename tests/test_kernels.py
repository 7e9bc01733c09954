import pytest

from mahler3d import _kernels


def test_backend_reports_a_name():
    assert _kernels.backend_name() == "numpy"


def test_fan_volume_parity(cube_r, cube_d):
    exact = _kernels.fan_volume(cube_r.vertices, cube_r.lattice.facet_cycles)
    assert exact == 8
    approx = _kernels.fan_volume(cube_d.vertices, cube_d.lattice.facet_cycles)
    assert approx == pytest.approx(8.0, rel=0, abs=1e-14)
