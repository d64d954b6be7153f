"""60-digit references for the states (V, T, xi) and the rates of the 16 protocols.

The tests' one numeric reference, apart from the paper's quoted closed
forms (``test_acceptance``) and the CSV row reference of
``test_montecarlo``. It holds:

* the state: the blocks (a, b, c^2) of an EPR state of modulation V sent
  through the channel (T, xi) on Bob's arm, its spectrum (nu-, nu+), the
  kernel g and the joint entropy S(AB);
* the entropies of the UR and DW tests: the Shannon entropy of a Gaussian
  outcome, S(x_A|B), the UR slack in its tripartite and bipartite
  assemblies, and both DW ceilings;
* the protocols: the second moments of the measured record columns,
  every heterodyne port a mode of its own, their conditional variances
  and the key rate;
* the V -> inf solvers: the law w <= c T^k, T*, xi_max and the fibre
  distance;
* the sampler's factor, the Cholesky factor of the measured columns' covariance.

Each function takes floats, converts them to mpmath exactly, and
evaluates the textbook form of its quantity: the symplectic invariants
of the blocks a I, b I and diag(c, -c), Schur complements a - c^2/b, a
beamsplitter matrix for each heterodyning party. None of them uses the
package's cancellation-free forms (ab - c^2 = V w + T and the like): the
working precision grows with the entries instead, so that 60 digits
survive every cancellation of a state whose entries are below about
1e300 (Serafini, Illuminati and De Siena, J. Phys. B 37, L21, 2004;
Weedbrook et al., Rev. Mod. Phys. 84, 621, 2012). Results are mpmath
numbers; ``float`` rounds them.
"""

import mpmath

DIGITS = 60


def _work(*entries):
    # digits enough that a difference of products of these entries keeps DIGITS of them,
    # and never fewer than the caller works at
    scale = max([mpmath.mpf(1)] + [abs(mpmath.mpf(x)) for x in entries])
    return max(mpmath.mp.dps, DIGITS + 4 * int(mpmath.log10(scale)) + 10)


def blocks(v, t, xi):
    v, t, xi = mpmath.mpf(v), mpmath.mpf(t), mpmath.mpf(xi)
    return v, t * v + 1 - t + t * xi, t * (v * v - 1)


def g(nu):
    """The bosonic entropy kernel in bits, 0 at nu = 1 and below it by a rounding (a pure block)."""
    with mpmath.workdps(_work(nu)):
        nu = mpmath.mpf(nu)
        if nu <= 1:
            assert 1 - nu < mpmath.mpf(10) ** -DIGITS, nu
            return mpmath.mpf(0)
        up, dn = (nu + 1) / 2, (nu - 1) / 2
        return up * mpmath.log(up, 2) - dn * mpmath.log(dn, 2)


def shannon_entropy(variance):
    """H = log2(2 pi e variance) / 2, the differential entropy of a Gaussian outcome."""
    with mpmath.workdps(_work(variance)):
        return mpmath.log(2 * mpmath.pi * mpmath.e * mpmath.mpf(variance), 2) / 2


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


def _outcome_and_rest(v, t, xi):
    # O = H(x_A) + S(B|x_A), B given x_A = diag(b - c^2/a, b), and S(B) = g(b)
    a, b, c2 = blocks(v, t, xi)
    return shannon_entropy(a) + g(mpmath.sqrt((b - c2 / a) * b)), g(b)


def conditional_entropy(v, t, xi):
    """S(x_A|B) = H(x_A) + S(B|x_A) - S(B); p_A gives the same by phase symmetry."""
    with mpmath.workdps(_work(v, xi)):
        o, s_b = _outcome_and_rest(v, t, xi)
        return o - s_b


def ur_slack(v, t, xi):
    """The tripartite assembly (O_x - S_B) + (O_p - S_AB) - log2(4 pi), O = H(x_A) + S(B|x_A)."""
    with mpmath.workdps(_work(v, xi)):
        o, s_b = _outcome_and_rest(v, t, xi)
        return (o - s_b) + (o - joint_entropy(v, t, xi)) - mpmath.log(4 * mpmath.pi, 2)


def ur_slack_bipartite(v, t, xi):
    """The bipartite assembly S(x_A|B) + S(p_A|B) - log2(4 pi) - S(A|B), S(A|B) = S_AB - S_B.

    The same number as ``ur_slack`` by the purification duality of Berta
    et al. (Nat. Phys. 6, 659, 2010), summed another way.
    """
    with mpmath.workdps(_work(v, xi)):
        s_x = conditional_entropy(v, t, xi)
        s_b = g(blocks(v, t, xi)[1])
        return 2 * s_x - mpmath.log(4 * mpmath.pi, 2) - (joint_entropy(v, t, xi) - s_b)


def dw_ceiling(v, t, xi, reverse):
    """I(ref:other) - S(AB) + S(other|x_ref), ref Bob (reverse) or Alice."""
    with mpmath.workdps(_work(v, xi)):
        a, b, c2 = blocks(v, t, xi)
        ref, other = (b, a) if reverse else (a, b)
        mutual_info = mpmath.log(ref / (ref - c2 / other), 2) / 2
        return mutual_info - joint_entropy(v, t, xi) + g(mpmath.sqrt((other - c2 / ref) * other))


def measured_moments(protocol, t, xi, v):
    """The covariance matrix of the record columns (x_a, p_a, x_b, p_b), as 4 x 4 mpmath.

    The EPR state of finite modulation v through the channel, each
    heterodyning party's mode mixed with a vacuum mode of its own on a
    balanced beamsplitter: port 1, (in + vac)/sqrt(2), carries that
    party's x column and port 2, (in - vac)/sqrt(2), its p column.
    """
    with mpmath.workdps(_work(v, xi)):
        a, b, c2 = blocks(v, t, xi)
        c = mpmath.sqrt(c2)
        sigma = mpmath.matrix([[a, 0, c, 0], [0, a, 0, -c], [c, 0, b, 0], [0, -c, 0, b]])
        columns = [0, 1, 2, 3]
        r = 1 / mpmath.sqrt(2)
        for party, measurement in enumerate((protocol.alice_measurement, protocol.bob_measurement)):
            if measurement.value != "het":
                continue
            n = sigma.rows
            ext, split = mpmath.eye(n + 2), mpmath.eye(n + 2)
            for i in range(n):
                for j in range(n):
                    ext[i, j] = sigma[i, j]
            for k in range(2):  # x, then p, of the (party, appended vacuum) pair
                i, j = 2 * party + k, n + k
                split[i, i] = split[i, j] = split[j, i] = r
                split[j, j] = -r
            sigma = split * ext * split.T
            columns[2 * party + 1] = n + 1  # the p column reads port 2
        return mpmath.matrix([[sigma[i, j] for j in columns] for i in columns])


def conditional_variances(protocol, t, xi, v):
    """(V_{xB|xA}, V_{pB|pA}, V_{xA|xB}, V_{pA|pB}) of what the parties measure, in field order.

    The order of ``ConditionalVariances``' fields. At finite v, the Schur
    complements of ``measured_moments``' columns, a heterodyning party's x
    read at its port 1 and its p at port 2. At v = inf, their limits, x
    and p alike: V_{A|B} = w_B / T and V_{B|A} = w, with w_B = w (+ 1
    where Bob heterodynes), a heterodyned half the lift (x + 1)/2 of its
    full mode, and V_{B|A2} = 1 + T xi where Alice heterodynes.
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
            return +b_given_a, +b_given_a, +a_given_b, +a_given_b
    with mpmath.workdps(_work(v, xi)):
        m = measured_moments(protocol, t, xi, v)
        return tuple(+(m[i, i] - m[i, j] ** 2 / m[j, j]) for i, j in ((2, 0), (3, 1), (0, 2), (1, 3)))


def key_rate(protocol, t, xi, v):
    """log2(2 / (e sqrt(Vx Vp))) of the pair the protocol reads, Vp lifted 2v - 1 where its
    conditioner heterodynes; +inf where a factor is 0."""
    x_ba, p_ba, x_ab, p_ab = conditional_variances(protocol, t, xi, v)
    with mpmath.workdps(_work(x_ba, x_ab)):
        if protocol.reconciliation.value == "dr":
            vx, vp, lift = x_ab, p_ab, protocol.bob_measurement.value == "het"
        else:
            vx, vp, lift = x_ba, p_ba, protocol.alice_measurement.value == "het"
        if lift:
            vp = 2 * vp - 1
        if vx == 0 or vp == 0:
            return mpmath.inf
        return mpmath.log(2 / mpmath.e, 2) - (mpmath.log(vx, 2) + mpmath.log(vp, 2)) / 2


def law(protocol):
    """(c, k) of the V -> inf secure law w <= c T^k, or None where no channel is secure.

    The conditioning party (Bob for DR, Alice for RR) must homodyne, or it
    adds vacuum and the variance read is at least 1 > 2/e. The rate is
    nonnegative iff e V_read <= 2, with V_read = w/T (DR) or w (RR) where
    the other party homodynes, and (w/T + 1)/2 or (w + 1)/2 where it
    heterodynes: c is 2/e, or 4/e - 1; k is 1 for DR and 0 for RR.
    """
    dr = protocol.reconciliation.value == "dr"
    het = (protocol.alice_measurement.value == "het", protocol.bob_measurement.value == "het")
    conditioner_het, other_het = (het[1], het[0]) if dr else het
    if conditioner_het:
        return None
    with mpmath.workdps(DIGITS + 10):
        return (4 / mpmath.e - 1 if other_het else 2 / mpmath.e), int(dr)


def threshold_transmission(protocol, xi):
    """T* at which w = c T^k: 1/(1 + c - xi) (DR), (1 - c)/(1 - xi) (RR).

    None without a law, or where the denominator is <= 0 or T* > 1: no
    T in (0, 1] is secure.
    """
    if (found := law(protocol)) is None:
        return None
    with mpmath.workdps(_work(xi)):
        c, k = found
        x = mpmath.mpf(xi)
        num, den = (1, 1 + c - x) if k else (1 - c, 1 - x)
        if den <= 0 or num / den > 1:
            return None
        return num / den


def xi_max(protocol, t):
    """(c T^k - (1 - T))/T, the largest secure xi at T; None without a law or where it is < 0."""
    if (found := law(protocol)) is None:
        return None
    with mpmath.workdps(_work(1 / mpmath.mpf(t))):
        c, k = found
        x = mpmath.mpf(t)
        want = (c * x**k - (1 - x)) / x
        return None if want < 0 else want


def distance(protocol, xi, attenuation_db_per_km=0.2):
    """(T*, loss 100 (1 - T*) in percent, -10 log10(T*) / attenuation in km), or None."""
    if (t_star := threshold_transmission(protocol, xi)) is None:
        return None
    with mpmath.workdps(_work(xi)):
        return t_star, 100 * (1 - t_star), -10 * mpmath.log10(t_star) / mpmath.mpf(attenuation_db_per_km)


def factor(protocol, t, xi, v):
    """The lower Cholesky factor of ``measured_moments``, as 4 x 4 mpmath: the textbook
    Cholesky of the record columns' covariance, every heterodyne port a mode of its own."""
    with mpmath.workdps(_work(v, xi)):
        return mpmath.cholesky(measured_moments(protocol, t, xi, v))
