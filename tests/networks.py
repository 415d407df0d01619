"""The analytic test networks and the equal-area oracle.

Both networks are built in code so tests can reason about them
analytically; the CLI reads their textual copies under fixtures/.
"""

import math

import numpy as np

from tspred.simkit import PowerSystemModel

#: SMIB surrogate: the "infinite bus" is a machine with this inertia
INFINITE_INERTIA = 1.0e6


def smib_model(h=1.5, pm=0.5, pmax=1.0, f0=60.0, damping=0.0):
    """Single machine against an (effectively) infinite bus.

    Lossless tie with E1·E2·B12 = pmax, so the electrical power seen by
    the finite machine is pmax·sin(δ), and the equal-area criterion gives
    a closed-form critical clearing time (see smib_critical_clearing_time).
    A bolted three-phase fault ("fault") zeroes the transfer path.
    """
    b12 = pmax  # E1 = E2 = 1
    y_pre = np.array([[0.0 - 2.0j * b12, 0.0 + 1.0j * b12],
                      [0.0 + 1.0j * b12, 0.0 - 2.0j * b12]])
    y_flt = np.zeros((2, 2), dtype=complex)
    return PowerSystemModel(
        name="smib",
        f0=f0,
        inertia=np.array([h, INFINITE_INERTIA]),
        damping=np.array([damping, 0.0]),
        emf=np.array([1.0, 1.0]),
        pm=np.array([pm, -pm]),
        y_prefault=y_pre,
        y_fault={"fault": y_flt},
    )


def smib_critical_clearing_time(model, load_level=1.0):
    """Equal-area critical clearing time (seconds) for smib_model.

    Valid for the bolted fault (Pe = 0 while faulted) with the postfault
    network equal to the prefault one. Uses the standard construction:
    δ0 = arcsin(Pm/Pmax), cos δcr = (Pm/Pmax)(π − 2δ0) − cos δ0, and the
    constant-acceleration fault-on trajectory δ(t) = δ0 + ω0·Pm·t²/(4H).
    """
    pm = float(model.pm[0]) * load_level
    pmax = (float(model.y_prefault[0, 1].imag)
            * float(model.emf[0]) * float(model.emf[1]))
    if pm > pmax:
        # mirror simkit.operating_points: EMFs are rescaled by sqrt(level)
        # only when the original magnitudes no longer admit an equilibrium
        pmax *= load_level
    ratio = pm / pmax
    if not 0 < ratio < 1:
        raise ValueError("no stable prefault operating point")
    d0 = math.asin(ratio)
    cos_dcr = ratio * (math.pi - 2.0 * d0) - math.cos(d0)
    dcr = math.acos(cos_dcr)
    omega0 = 2.0 * math.pi * model.f0
    h = float(model.inertia[0])
    return math.sqrt(4.0 * h * (dcr - d0) / (omega0 * pm))


def three_machine_model(f0=60.0):
    """Three coupled machines with one bolted-fault variant per machine.

    The network is lossless between machines with constant-impedance load
    folded into the diagonal conductances; mechanical powers are chosen so
    the base-case equilibrium sits at the angles below exactly.
    """
    emf = np.array([1.05, 1.03, 1.02])
    b = np.array([[0.0, 1.0, 0.7],
                  [1.0, 0.0, 0.8],
                  [0.7, 0.8, 0.0]])
    g_diag = np.array([0.4, 0.35, 0.28])
    delta = np.radians([48.0, 28.0, 0.0])
    ng = 3

    y_pre = np.zeros((ng, ng), dtype=complex)
    pm = np.zeros(ng)
    for i in range(ng):
        y_pre[i, i] = g_diag[i] - 1.0j * (b[i].sum() + 0.5)
        pm[i] = emf[i] ** 2 * g_diag[i]
        for j in range(ng):
            if j != i:
                y_pre[i, j] = 1.0j * b[i, j]
                pm[i] += emf[i] * emf[j] * b[i, j] * math.sin(
                    delta[i] - delta[j])

    faults = {}
    for k in range(ng):
        # bolted fault at machine k's terminal: it transfers no power and
        # sees no load; the other two stay coupled to each other
        y = y_pre.copy()
        y[k, :] = 0.0
        y[:, k] = 0.0
        faults[f"bus{k + 1}"] = y

    return PowerSystemModel(
        name="three_machine",
        f0=f0,
        inertia=np.array([2.4, 1.9, 1.5]),
        damping=np.array([0.05, 0.05, 0.05]),
        emf=emf,
        pm=pm,
        y_prefault=y_pre,
        y_fault=faults,
    )
