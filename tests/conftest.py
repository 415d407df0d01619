# tspred first: importing it pins BLAS to one thread, which only holds if
# numpy has not loaded its BLAS yet
import tspred  # noqa: F401  isort:skip

from dataclasses import replace

import numpy as np
import pytest

import networks
from tspred import features, simkit


@pytest.fixture(scope="session")
def smib():
    return networks.smib_model()


@pytest.fixture(scope="session")
def three_machine():
    return networks.three_machine_model()


def row(traj, s):
    """Scenario `s` of a batch Trajectory, without the scenario axis
    (views)."""
    return replace(traj, **{name: getattr(traj, name)[s] for name in
                            ("steps", "delta_deg", "speed_dev", "pm", "pe",
                             "t_clear", "max_gap_deg", "stop_step")})


def simulate_one(model, sc):
    """The full-history Trajectory of one scenario: row 0 of a batch of
    one."""
    return row(simkit.simulate_scenarios(model, [sc]), 0)


def make_trajectory(delta_deg, dt=1.0 / 240.0, f0=60.0, inertia=None,
                    t_clear=0.0, speed=None, pm=None, pe=None):
    """Synthetic full-history Trajectory for tests that only need some of
    the series; axes of `delta_deg` before (T+1, G) are scenario axes."""
    delta_deg = np.atleast_2d(np.asarray(delta_deg, dtype=float))
    *lead, n_t, ng = delta_deg.shape
    if inertia is None:
        inertia = np.ones(ng)
    return simkit.Trajectory(
        time=np.arange(n_t) * dt,
        steps=np.broadcast_to(np.arange(n_t), (*lead, n_t)),
        delta_deg=delta_deg,
        speed_dev=np.zeros_like(delta_deg) if speed is None else speed,
        pm=np.zeros((*lead, ng)) if pm is None else pm,
        pe=np.zeros_like(delta_deg) if pe is None else pe,
        t_clear=np.full(lead, t_clear),
        max_gap_deg=simkit.angle_gap(delta_deg).max(axis=-1),
        stop_step=np.full(lead, n_t - 1),
        inertia=inertia,
        f0=f0,
    )


def separable_kb(n=60, n_features=6, seed=0):
    """Toy knowledge base whose label is the sign of feature 0."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, n_features))
    labels = np.where(x[:, 0] >= 0, 1, -1)
    # guarantee both classes
    labels[0], labels[1] = 1, -1
    x[0, 0], x[1, 0] = abs(x[0, 0]), -abs(x[1, 0])
    return features.KnowledgeBase(samples=x, labels=labels, seed=seed)


@pytest.fixture(scope="session")
def smib_kb(smib):
    """Small simulated knowledge base from the SMIB fixture."""
    scenarios = simkit.build_scenario_grid(
        faults=["fault"],
        clearing_cycles=[5.0, 7.5, 10.0],
        load_levels=[0.8, 0.9, 1.0, 1.1, 1.2, 1.25, 1.3],
        seed=3)
    return features.build_knowledge_base(
        simkit.simulate_scenarios(smib, scenarios,
                                  keep=features.sample_steps), 3)


@pytest.fixture(scope="session")
def three_machine_kb():
    """The knowledge base `generate` builds from the three-machine fixture
    files (378 scenarios, 132 features)."""
    model = simkit.load_model("fixtures/three_machine.sys")
    spec = simkit.load_grid_spec("fixtures/three_machine.grid")
    return features.build_knowledge_base(
        simkit.simulate_scenarios(model, simkit.build_scenario_grid(**spec),
                                  keep=features.sample_steps),
        spec["seed"])
