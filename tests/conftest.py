import copy
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
    ModeQuadrature,
    Quadrature,
    apply_channel,
    conditional_variance,
    entropy_g,
    symplectic_eigenvalues,
    tmsv,
)


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


def joint_entropy(cm):
    """S(AB) summed here over the spectrum, not read from the value the state stores."""
    return sum(entropy_g(nu) for nu in symplectic_eigenvalues(cm))


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
