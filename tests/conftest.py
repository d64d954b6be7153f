import copy
import math
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

import cvqkd
from cvqkd import (
    ChannelParams,
    ConditionalVariances,
    Measurement,
    ModeQuadrature,
    Quadrature,
    Reconciliation,
    apply_channel,
    conditional_variance,
    entropy_g,
    gaussian_shannon_entropy,
    symplectic_eigenvalues,
    tmsv,
)
from cvqkd.gaussian import _one_mode_entropy


def fresh_python(*args):
    """Run a new interpreter with these arguments; it imports cvqkd from this checkout."""
    src = os.path.dirname(os.path.dirname(cvqkd.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120,
    )


# the routes that copy a record: each builds the copy through the record's class
COPY_ROUTES = {
    "replace": lambda record: record._replace(),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda record: pickle.loads(pickle.dumps(record)),
}
# a spec as built, and as each route that copies one returns it
SPEC_COPIES = {"built": lambda p: p, **COPY_ROUTES}

X_A = ModeQuadrature(0, Quadrature.X)
P_A = ModeQuadrature(0, Quadrature.P)
X_B = ModeQuadrature(1, Quadrature.X)
P_B = ModeQuadrature(1, Quadrature.P)


def channelled_state(v, t, xi):
    """EPR state of variance v after a (t, xi) channel on mode B."""
    return apply_channel(tmsv(v), ChannelParams(t, xi), mode=1)


def as_array(cm):
    """The 4 x 4 array of the state (a, b, c) in the ordering (x1, p1, x2, p2).

    The package keeps no such array; the array-based references below read it.
    """
    a, b, c = cm.a, cm.b, cm.c
    return np.array([[a, 0.0, c, 0.0], [0.0, a, 0.0, -c], [c, 0.0, b, 0.0], [0.0, -c, 0.0, b]])


def row(mq):
    """A quadrature's row/column in the ordering of ``as_array``."""
    return 2 * mq.mode + (0 if mq.quadrature is Quadrature.X else 1)


def reduced_state(cm, modes):
    """Partial trace down to the given modes (kept in the given order), as an array."""
    idx = [2 * m + k for m in modes for k in range(2)]
    return as_array(cm)[np.ix_(idx, idx)]


def condition_on_homodyne(cm, measured):
    """The one-mode array of the other mode after a homodyne measurement.

    Returns the Schur complement Sigma_rest - sigma sigma^T / V_meas
    together with the variance of the measured quadrature. The
    conjugate quadrature of the measured mode is discarded with the
    mode, and the result is outcome independent. The reference that
    the entry-level entropies of the UR slack and the DW ceiling are
    checked against, bit for bit.
    """
    v_meas = cm.variance(measured)
    keep = [i for i in range(4) if i // 2 != measured.mode]
    m = as_array(cm)
    sigma = m[keep, row(measured)]
    rest = m[np.ix_(keep, keep)] - np.outer(sigma, sigma) / v_meas
    return rest, v_meas


def one_mode_entropy(m):
    """Entropy of a diagonal one-mode array, through the package's one-mode route."""
    assert m.shape == (2, 2) and m[0, 1] == m[1, 0] == 0.0, m.tolist()
    return _one_mode_entropy(float(m[0, 0]), float(m[1, 1]))


def outcome_entropy(cm, measured):
    """H(q) + S(rest|q): the measured quadrature's Shannon entropy plus the conditioned state's."""
    conditioned, v = condition_on_homodyne(cm, measured)
    return gaussian_shannon_entropy(v) + one_mode_entropy(conditioned)


def joint_entropy(cm):
    """S(AB) summed here over the spectrum, not read from the value the state stores."""
    return sum(entropy_g(nu) for nu in symplectic_eigenvalues(cm))


def ur_slack_reference(cm):
    """The tripartite UR slack (O_x - S_B) + (O_p - S_AB) - log2(4 pi) from the references.

    Each entropy is ``joint_entropy(cm)`` or a ``one_mode_entropy`` of a
    ``reduced_state`` or a ``condition_on_homodyne`` array, summed in
    ``verify_ur_tripartite``'s order.
    """
    s_b = one_mode_entropy(reduced_state(cm, [1]))
    o_x, o_p = outcome_entropy(cm, X_A), outcome_entropy(cm, P_A)
    return (o_x - s_b) + (o_p - joint_entropy(cm)) - math.log2(4.0 * math.pi)


def dw_reference(cm, direction):
    """The Devetak-Winter ceiling I(ref:other) - (S_AB - S(other|x_ref)) from the references."""
    ref, other = (X_B, X_A) if direction is Reconciliation.RR else (X_A, X_B)
    mutual_info = 0.5 * math.log2(cm.variance(ref) / conditional_variance(cm, ref, other))
    conditioned, _ = condition_on_homodyne(cm, ref)
    return mutual_info - (joint_entropy(cm) - one_mode_entropy(conditioned))


def split_with_vacuum(m, mode):
    """Mix one mode of the array m with vacuum on a balanced beamsplitter.

    The vacuum mode is appended at the end; the original slot carries
    output 1 = (in + vac)/sqrt(2) and the appended slot output
    2 = (in - vac)/sqrt(2). Each output quadrature has variance
    (V + 1)/2 and correlations to third modes scale by 1/sqrt(2). Returns
    the (n + 1)-mode array, symmetrised as (m + m^T) / 2.
    """
    n = m.shape[0] // 2
    ext = np.eye(2 * (n + 1))
    ext[: 2 * n, : 2 * n] = m
    s = np.eye(2 * (n + 1))
    r = 1.0 / math.sqrt(2.0)
    for k in range(2):  # x then p of the (target, appended) pair
        i, j = 2 * mode + k, 2 * n + k
        s[i, i] = s[i, j] = s[j, i] = r
        s[j, j] = -r
    out = s @ ext @ s.T
    return (out + out.T) / 2.0


def schur_variance(m, target, given):
    """Conditional variance m_tt - m_tg^2 / m_gg of row ``target`` given row ``given`` of the array m."""
    c = m[target, given]
    return m[target, target] - c * c / m[given, given]


def split_protocol_state(protocol, ch, v):
    """A protocol's measured state with every beamsplitter port as a mode of its own.

    The EPR state of variance v through the channel, each heterodyning
    party's mode split with vacuum: the n-mode reference array for the
    conditional variances and for the sampled records. Returns the array
    and the row in it of each record column.
    """
    m = as_array(channelled_state(v, ch.transmission, ch.excess_noise))
    rows = {"x_a": 0, "p_a": 1, "x_b": 2, "p_b": 3}
    if protocol.alice_measurement is Measurement.HET:
        m = split_with_vacuum(m, 0)  # modes: A1, B, A2; p_a is A2's p
        rows["p_a"] = 5
    if protocol.bob_measurement is Measurement.HET:
        rows["p_b"] = m.shape[0] + 1  # p of the slot the split appends
        m = split_with_vacuum(m, 1)
    return m, rows


def random_channelled_states(n, seed):
    """Randomized physical two-mode states: V in [1, 50], T in (0, 1], xi in [0, 0.5]."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        v = float(rng.uniform(1.0, 50.0))
        t = float(rng.uniform(1e-6, 1.0))
        xi = float(rng.uniform(0.0, 0.5))
        out.append((v, t, xi, channelled_state(v, t, xi)))
    return out


def full_mode_cv(cm):
    """Full-mode conditional variances of a two-mode state, both directions."""
    return ConditionalVariances(
        v_x_b_given_a=conditional_variance(cm, X_B, X_A),
        v_p_b_given_a=conditional_variance(cm, P_B, P_A),
        v_x_a_given_b=conditional_variance(cm, X_A, X_B),
        v_p_a_given_b=conditional_variance(cm, P_A, P_B),
    )


@pytest.fixture(scope="session")
def acceptance_sweep():
    """The 10^4-state randomized sweep shared by the acceptance criteria."""
    return random_channelled_states(10_000, seed=20240901)
