"""Shared fixtures: small contaminated systems reused across module tests.

``tiny_world`` and ``quad_world`` are each a (deployment, system config)
pair, the engine's description of a sweep point: a unit's links are
``build_unit_geometry(dep, cfg, n, k)``."""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from lis_uplink import Deployment, place_devices
from lis_uplink.config import LayoutConfig, PlacementConfig, SystemConfig
from lis_uplink.links import placement_rng

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def tiny_cfg() -> SystemConfig:
    """Two panels, two devices each, 16 antennas, 4 scattered paths."""
    return SystemConfig(M=16, K=2, N=2, T=500, P=4, seed=11)


@pytest.fixture(scope="session")
def tiny_layout() -> LayoutConfig:
    """Adjacent panels (pitch 4.5 m) so pilot reuse can keep line of sight."""
    return LayoutConfig(name="line", d_x=0.5)


@pytest.fixture(scope="session")
def tiny_world(tiny_cfg, tiny_layout) -> tuple[Deployment, SystemConfig]:
    return place_devices(tiny_cfg, tiny_layout, placement_rng(tiny_cfg.seed, 0)), tiny_cfg


@pytest.fixture(scope="session")
def quad_world() -> tuple[Deployment, SystemConfig]:
    """Four panels facing each other, the reference multi-panel geometry."""
    cfg = SystemConfig(M=16, K=2, N=4, T=500, P=4, seed=7)
    return place_devices(cfg, LayoutConfig(), placement_rng(cfg.seed, 0)), cfg


def assert_close(actual, expected, rtol=1e-12, atol=0.0):
    np.testing.assert_allclose(actual, expected, rtol=rtol, atol=atol)
