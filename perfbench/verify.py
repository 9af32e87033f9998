"""Checks of dopshift outputs by routes that share no code with the package.

Each medium's wavenumber, each world-line's position and the exact values
of the oracle model integrals are written out here again from their
formulas, in numpy, so a defect in the package cannot also hide in its check.
Every ``check_*`` function returns None when the op's output is right and a
one-line reason when it is not.
"""

import math

import numpy as np

V_SCAN = 0.5            # source speed of the collinear scan, as in validation
IDENTITY_RTOL = 1e-8    # |w_s - w0 - k v_rad| <= 1e-8 max(1, w0)
ND_ROOT_RTOL = 1e-12
LORENTZ_G_RTOL = 1e-9
PLASMA_RTOL = 1e-9
ORACLE_RTOL = 1e-6


def lorentz_index(model, w):
    """n(w) of the two-resonance metamaterial on the half-argument branch."""
    w = np.asarray(w, dtype=float)
    eps = 1.0 + model.omega_pe ** 2 / (model.omega_te ** 2 - w * w
                                       - 1j * w * model.gamma_e)
    mu = 1.0 + model.omega_pm ** 2 / (model.omega_tm ** 2 - w * w
                                      - 1j * w * model.gamma_m)
    return np.sqrt(np.abs(eps * mu)) * np.exp(
        0.5j * (np.angle(eps) + np.angle(mu)))


def _propagating(n):
    return n.real ** 2 > n.imag ** 2


class LorentzScanReference:
    """Roots of w (1 + sign Re n(w) v) - w0 by a dense independent scan.

    n does not depend on the carrier, so it is tabulated once on a grid of
    ``n_grid`` frequencies spanning [lo, hi]; each carrier then only needs
    its propagating run and the sign changes of g on it.
    """

    def __init__(self, model, lo, hi, n_grid=400_001):
        self.model = model
        self.w = np.linspace(lo, hi, n_grid)
        n = lorentz_index(model, self.w)
        self.n_real = n.real
        prop = _propagating(n)
        # run boundaries of the propagating mask
        edges = np.flatnonzero(np.diff(prop.astype(np.int8))) + 1
        self.bounds = np.concatenate(([0], edges, [len(prop)]))
        self.prop = prop

    def brackets(self, w0, sign, v=V_SCAN):
        """Cells [a, b] of the band containing w0 where g changes sign."""
        i0 = int(np.searchsorted(self.w, w0))
        if not self.prop[i0]:
            return []
        k = int(np.searchsorted(self.bounds, i0, side="right")) - 1
        a, b = self.bounds[k], self.bounds[k + 1]
        if a == 0 or b == len(self.w):
            raise ValueError("band of the carrier reaches the reference grid end")
        w = self.w[a:b]
        g = w * (1.0 + sign * self.n_real[a:b] * v) - w0
        cells = np.flatnonzero(np.signbit(g[:-1]) != np.signbit(g[1:]))
        return [(float(w[i]), float(w[i + 1])) for i in cells]

    def g(self, w, w0, sign, v=V_SCAN):
        n = lorentz_index(self.model, w)
        return float(w * (1.0 + sign * n.real * v) - w0), bool(_propagating(n))


def check_scan(inp, per_sign, lorentz_ref):
    """Verify both signs' roots and the op's lowest root.

    Returns (reason or None, roots the independent route finds that the
    package did not return).
    """
    w0 = inp["omega0"]
    v = V_SCAN
    expected = {}
    if inp["medium"] == "nondispersive":
        n = math.sqrt(inp["eps"])
        for sign in (+1, -1):
            denom = 1.0 + sign * n * v
            expected[sign] = [w0 / denom] if denom > 0 else []
    else:
        for sign in (+1, -1):
            expected[sign] = lorentz_ref.brackets(w0, sign, v)
    missed = 0
    for sign, roots in zip((+1, -1), per_sign):
        roots = roots or []
        missed += max(0, len(expected[sign]) - len(roots))
        for r in roots:
            if inp["medium"] == "nondispersive":
                if not any(abs(r - e) <= ND_ROOT_RTOL * e for e in expected[sign]):
                    return f"sign {sign:+d} root {r!r} is not w0/(1+sign n v)", missed
            else:
                g, prop = lorentz_ref.g(r, w0, sign, v)
                if not prop or abs(g) > LORENTZ_G_RTOL * w0:
                    return (f"sign {sign:+d} root {r!r}: |g| = {abs(g):.2e}, "
                            f"propagating {prop}"), missed
    got = [r for roots in per_sign if roots for r in roots]
    if inp["medium"] == "nondispersive":
        want = [e for sign in (+1, -1) for e in expected[sign]]
        if want and (not got or abs(min(got) - min(want)) > ND_ROOT_RTOL * min(want)):
            return f"lowest root {min(got) if got else None!r} != {min(want)!r}", missed
    else:
        # Returned roots were each checked above; a root in the last grid
        # cell before a band edge has no reference sign change, so only a
        # lower reference root than the lowest returned one is a failure.
        cells = [c for sign in (+1, -1) for c in expected[sign]]
        if cells:
            a, b = min(cells)
            if not got or min(got) > b + (b - a):
                return (f"lowest root {min(got) if got else None!r} misses "
                        f"the reference sign change in [{a!r}, {b!r}]"), missed
    return None, missed


def _trajectory_state(inp, tau):
    """Source position and velocity at emission time tau."""
    if inp["medium"] == "plasma":
        vel = np.array([0.0, inp["mach"], 0.0])
        return vel * tau, vel
    return np.array([0.0, inp["v"] * tau, 0.0]), np.array([0.0, inp["v"], 0.0])


def _wavenumber(inp, w, lorentz_model):
    """Re k(w) and the propagating flag."""
    if inp["medium"] == "plasma":
        k2 = w * w - inp["omega_p"] ** 2
        return (math.copysign(math.sqrt(k2), w), True) if k2 > 0 else (0.0, False)
    n = lorentz_index(lorentz_model, w)
    return float(w * n.real), bool(_propagating(n))


def plasma_closed_form(w0, wp, mach, approaching):
    """Head-on shift in a cold plasma, (w0 +/- M sqrt(w0^2 - (1-M^2) wp^2))/(1-M^2)."""
    root = math.sqrt(w0 * w0 - (1.0 - mach * mach) * wp * wp)
    return (w0 + (mach if approaching else -mach) * root) / (1.0 - mach * mach)


def check_saddle(inp, contributions, lorentz_model):
    """Stationary identity, causality and finite fields of every contribution;
    on-axis plasma events must include the closed-form head-on frequency."""
    if not contributions:
        return "no stationary point"
    w0, t = inp["omega0"], inp["t"]
    x = np.array(inp["x"])
    for c in contributions:
        w, tau = c.instantaneous_frequency, c.point.tau_s
        k, prop = _wavenumber(inp, w, lorentz_model)
        if not prop:
            return f"omega_s={w!r} is not propagating"
        pos, vel = _trajectory_state(inp, tau)
        d = x - pos
        v_rad = float(vel @ d) / float(np.linalg.norm(d))
        ident = abs(w - w0 - k * v_rad)
        if ident > IDENTITY_RTOL * max(1.0, w0):
            return f"stationary identity off by {ident:.2e} at omega_s={w!r}"
        if not t - tau > 0:
            return f"non-causal tau_s={tau!r} for t={t!r}"
        if not (np.all(np.isfinite(c.E)) and np.all(np.isfinite(c.H))):
            return "non-finite E or H"
    if inp["medium"] == "plasma":
        closed = plasma_closed_form(w0, inp["omega_p"], inp["mach"],
                                    approaching=inp["x"][1] > 0)
        best = min(abs(c.instantaneous_frequency - closed) for c in contributions)
        if best > PLASMA_RTOL * closed:
            return f"no contribution within 1e-9 of the closed form {closed!r}"
    return None


def exact_integral(case, lam):
    """Exact value of each oracle model integral."""
    if case == "gaussian":
        return 2.0 * math.pi / (1.0 - 1j * lam)
    if case == "hyperbolic":
        return 2.0 * math.pi / math.sqrt(1.0 + lam * lam)
    return 2.0j * math.pi / lam


def check_oracle(inp, result):
    exact = exact_integral(inp["case"], inp["lam"])
    err = abs(result.value - exact) / abs(exact)
    if not err <= ORACLE_RTOL:
        return f"relative error {err:.2e} against the exact value"
    return None
