"""60-digit references for the states (V, T, xi) and the rates of the 16 protocols.

Each function takes floats, converts them to mpmath exactly, and
evaluates the textbook form of its quantity: the symplectic invariants
of the blocks a I, b I and diag(c, -c), Schur complements a - c^2/b, and
for a heterodyning party the state with its beamsplitter ports as modes
of their own. None of them uses the package's cancellation-free forms
(ab - c^2 = V w + T and the like): the working precision grows with the
entries instead, so that 60 digits survive every cancellation of a
state whose entries are below about 1e300. Results are mpmath numbers;
``float`` rounds them.
"""

import mpmath

DIGITS = 60


def _work(*entries):
    # digits enough that a difference of products of these entries keeps DIGITS of them
    scale = max([mpmath.mpf(1)] + [abs(mpmath.mpf(x)) for x in entries])
    return DIGITS + 4 * int(mpmath.log10(scale)) + 10


def blocks(v, t, xi):
    v, t, xi = mpmath.mpf(v), mpmath.mpf(t), mpmath.mpf(xi)
    return v, t * v + 1 - t + t * xi, t * (v * v - 1)


def g(nu):
    """The bosonic entropy kernel in bits, 0 at nu = 1 and below it by a rounding (a pure block)."""
    nu = mpmath.mpf(nu)
    if nu <= 1:
        assert 1 - nu < mpmath.mpf(10) ** -DIGITS, nu
        return mpmath.mpf(0)
    up, dn = (nu + 1) / 2, (nu - 1) / 2
    return up * mpmath.log(up, 2) - dn * mpmath.log(dn, 2)


def spectrum(v, t, xi):
    """(nu-, nu+) from det Sigma = (ab - c^2)^2 and Delta = a^2 + b^2 - 2c^2.

    nu+^2 = (Delta + sqrt(Delta^2 - 4 det^2)) / 2, where Delta^2 - 4 det^2
    factors as (a - b)^2 ((a + b)^2 - 4c^2), since the difference itself
    cancels to nothing near a degenerate pair; nu- = det / nu+.
    """
    with mpmath.workdps(_work(v, xi)):
        a, b, c2 = blocks(v, t, xi)
        det = a * b - c2
        delta = a * a + b * b - 2 * c2
        root = abs(a - b) * mpmath.sqrt((a + b) ** 2 - 4 * c2)
        nu_plus = mpmath.sqrt((delta + root) / 2)
        return +(det / nu_plus), +nu_plus


def joint_entropy(v, t, xi):
    """S(AB) = g(nu-) + g(nu+)."""
    with mpmath.workdps(_work(v, xi)):
        return sum(g(nu) for nu in spectrum(v, t, xi))


def ur_slack(v, t, xi):
    """(O_x - S_B) + (O_p - S_AB) - log2(4 pi), O = H(x_A) + S(B|x_A), B|x_A = diag(b - c^2/a, b)."""
    with mpmath.workdps(_work(v, xi)):
        a, b, c2 = blocks(v, t, xi)
        o = mpmath.log(2 * mpmath.pi * mpmath.e * a, 2) / 2 + g(mpmath.sqrt((b - c2 / a) * b))
        return (o - g(b)) + (o - joint_entropy(v, t, xi)) - mpmath.log(4 * mpmath.pi, 2)


def dw_ceiling(v, t, xi, reverse):
    """I(ref:other) - S(AB) + S(other|x_ref), ref Bob (reverse) or Alice."""
    with mpmath.workdps(_work(v, xi)):
        a, b, c2 = blocks(v, t, xi)
        ref, other = (b, a) if reverse else (a, b)
        mutual_info = mpmath.log(ref / (ref - c2 / other), 2) / 2
        return mutual_info - joint_entropy(v, t, xi) + g(mpmath.sqrt((other - c2 / ref) * other))


def conditional_variances(protocol, t, xi, v):
    """(V_{A|B}, V_{B|A}) of what the protocol's parties measure, x and p alike.

    A heterodyned mode's half has variance (V + 1)/2 and carries 1/sqrt(2)
    of its correlation. At v = inf, the limits of these Schur complements:
    V_{A|B} = w_B / T and V_{B|A} = w, with w_B = w (+ 1 where Bob
    heterodynes), and the halves' lifts as at finite v.
    """
    a_het = protocol.alice_measurement.value == "het"
    b_het = protocol.bob_measurement.value == "het"
    if v == float("inf"):
        with mpmath.workdps(_work(xi)):
            t, xi = mpmath.mpf(t), mpmath.mpf(xi)
            w = 1 - t + t * xi
            a_given_b = (w + b_het) / t
            b_given_a = 1 + t * xi if a_het else w
            if a_het:
                a_given_b = (a_given_b + 1) / 2
            if b_het:
                b_given_a = (b_given_a + 1) / 2
            return +a_given_b, +b_given_a
    with mpmath.workdps(_work(v, xi)):
        v_a, v_b, c2 = blocks(v, t, xi)
        if a_het:
            v_a, c2 = (v_a + 1) / 2, c2 / 2
        if b_het:
            v_b, c2 = (v_b + 1) / 2, c2 / 2
        return +(v_a - c2 / v_b), +(v_b - c2 / v_a)


def key_rate(protocol, t, xi, v):
    """log2(2 / (e sqrt(Vx Vp))) of the pair the protocol reads, Vp lifted 2v - 1 where its
    conditioner heterodynes; +inf where a factor is 0."""
    a_given_b, b_given_a = conditional_variances(protocol, t, xi, v)
    with mpmath.workdps(_work(a_given_b, b_given_a)):
        if protocol.reconciliation.value == "dr":
            vx, lift = a_given_b, protocol.bob_measurement.value == "het"
        else:
            vx, lift = b_given_a, protocol.alice_measurement.value == "het"
        vp = 2 * vx - 1 if lift else vx
        if vx == 0 or vp == 0:
            return mpmath.inf
        return mpmath.log(2 / mpmath.e, 2) - (mpmath.log(vx, 2) + mpmath.log(vp, 2)) / 2
