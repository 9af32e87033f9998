"""The three workloads: how their inputs are drawn, one op, and its check.

Every workload is a closed loop with one client: the next op starts when the
previous one has returned.  Inputs come in decks.  A deck has a fixed op mix
(written next to each deck function below) and draws only the op parameters
from the seed, so every run measures the same mix and two seeds differ only
in the draws.  Deck k of a seed is the same whatever the run length, and a
run is a fixed number of decks (see ``run.decks_per_pass``), so its inputs
depend on the seed and ``--seconds`` only, never on the host's speed.  No
input is filtered on its outcome: ops that end in a typed outcome stay in.
"""

import hashlib
import math
import struct

import numpy as np

from dopshift import dispersion as disp
from dopshift import fields as fld
from dopshift import oracle as orc
from dopshift import trajectory as trj
from dopshift.errors import NoRootInBand
from dopshift.units import omega_from_thz

import verify

SADDLE_SEEDS = (4, 4)       # Newton starts of a seed-grid op (omega x tau)
SADDLE_POOL_SEED = 0        # draws the seed-grid events, the same in every run
ORACLE_R0 = 3.0
ORACLE_TOL = 1e-6


class Workload:
    """A workload draws decks (``deck(rng, k)`` for deck k), runs one op
    (``run(inp)``), checks it (``check(inp, out)`` gives the failure reason
    or None, the number of typed outcomes and the number of roots the
    package missed) and turns its output into bytes for the digest
    (``encode(out)``)."""

    name = ""
    index = 0
    # p90 is reported from at least this many ops, so 10 lie beyond it
    min_ops = 100
    # times each op is run in a measured run; its latency is the fastest
    passes = 2
    # op seconds of one deck on the 2-vCPU host the benchmark was tuned on;
    # sets the number of decks of a run from --seconds
    deck_s = 1.0
    # the hostspeed loop that slows down like this workload's ops
    speed_loop = "scalar"

    def digest(self, outs):
        """sha256 over (output, exception) pairs in op order; an exception
        counts by its type."""
        h = hashlib.sha256()
        for out, err in outs:
            chunk = self.encode(out) if err is None \
                else b"!" + type(err).__name__.encode()
            h.update(struct.pack("<Q", len(chunk)))
            h.update(chunk)
        return h.hexdigest()

    def decks(self, seed, start=0):
        """Decks start, start+1, ... of this seed, each from its own stream."""
        k = start
        while True:
            yield self.deck(np.random.default_rng([seed, self.index, k]), k)
            k += 1


def _floats(*values):
    return struct.pack(f"<{len(values)}d", *values)


# Why: the dense scalar-grid use of dispersion.sample (8k-28k calls per op,
# most of the op time) with no trajectory or stationary-phase call.  Array
# kernels and band-edge masks move this workload and should leave `saddle`
# alone.
class Scan(Workload):
    """One op is one carrier: the collinear closed form for both signs at
    v = 0.5, keeping every root (the work of `doppler-sweep --method
    closed-form` and of the nondispersive-linearity check).

    Deck of 6 over 410-432 THz: four Lorentz-metamaterial carriers, one per
    5.5 THz stratum, and two non-dispersive ones, one per 11 THz stratum,
    with eps drawn from [1, 4] (mu = 1).  Lorentz share 2/3.  Lorentz
    carriers above about 426.4 THz have no propagating root on either sign
    (a typed outcome), so the top stratum holds the ops with that outcome,
    1/6 of every deck.  Non-dispersive ops are the cheapest (about 90 ms
    against 115-160 ms), and at a share of 1/3 the median falls inside the
    Lorentz ops rather than on the edge between the two media.
    Non-dispersive media with n v > 0.9 have their sign -1 root beyond the
    10 omega0 scan cap (counted as a missed root); they stay in.
    """

    name, index = "scan", 0
    deck_s = 0.85

    def __init__(self):
        self.lorentz = disp.lorentz_from_thz()
        self.reference = verify.LorentzScanReference(
            self.lorentz, omega_from_thz(380.0), omega_from_thz(470.0))

    def deck(self, rng, k):
        ops = []
        for medium, strata in (("lorentz", 4), ("nondispersive", 2)):
            width = 22.0 / strata
            for stratum in range(strata):
                f0 = 410.0 + width * (stratum + rng.random())
                eps = float(rng.uniform(1.0, 4.0)) \
                    if medium == "nondispersive" else None
                ops.append({"medium": medium, "f0_thz": f0, "eps": eps,
                            "omega0": omega_from_thz(f0)})
        rng.shuffle(ops)
        return ops

    def run(self, inp):
        model = self.lorentz if inp["medium"] == "lorentz" \
            else disp.NonDispersive(eps=inp["eps"], mu=1.0)
        per_sign = []
        for sign in (+1, -1):
            try:
                per_sign.append(fld.metamaterial_doppler_1d(
                    model, inp["omega0"], verify.V_SCAN, sign))
            except NoRootInBand:
                per_sign.append(None)
        return per_sign

    def check(self, inp, out):
        reason, missed = verify.check_scan(inp, out, self.reference)
        return reason, sum(roots is None for roots in out), missed

    def encode(self, out):
        return b"".join(b"-" if roots is None else _floats(*roots) + b";"
                        for roots in out)


# Why: the Newton hot path.  A default-seed op makes about 10
# dispersion.sample and 40 trajectory.geometry calls; the seed-grid ops add
# Newton starts that fail.  A change that speeds up grid sampling but adds
# per-call cost to scalar calls, or speeds up converging starts but slows
# failing ones, shows here.
class Saddle(Workload):
    """One op is one observer event (t, x): `moving_source_fields`.

    Deck of 20, drawn like the stationary-identity validation contexts:
    16 default-seed ops (6 plasma events on the axis ahead of the source,
    before it passes; 6 behind it, after it passed; 4 Lorentz/OffsetLine
    events) and 4 seed-grid ops that pass a 4 x 4 `seed_box` (3 Lorentz and
    1 plasma, on either side).  Plasma share 13/20, seed-grid share 1/5.
    The seed box is twice the width of the non-dispersive bracket of the
    shifted frequency and reaches back six light-crossing times (plasma) or
    200 range units (Lorentz), so a part of the starts fails.

    The seed draws the default-seed events and the order of the deck.  The
    seed-grid events of deck k are the same for every seed (drawn from
    ``SADDLE_POOL_SEED`` and k): their cost swings 40-fold from one event to
    the next (7-320 ms, set by how many starts fail and after how many
    line-search halvings), and a fresh draw per seed moved `ops_per_s` and
    `op_p90_ms` by 7 % and more between seeds.  Runs of the same length
    thus hold the same seed-grid events, in a different order.

    Op cost order (fastest pass of four, 2-vCPU shared host): Lorentz
    default-seed ops 0.4-1 ms, plasma ones 1.2-2.4 ms (most 1.3-1.5 ms),
    seed-grid ops 3-110 ms and more.  p50 falls in the middle of the plasma
    default-seed ops and p90 at the median seed-grid op, neither on the edge
    between two kinds of op.
    """

    name, index = "saddle", 1
    passes = 4          # a deck takes about 0.13 s, so passes are cheap
    deck_s = 0.13

    def __init__(self):
        self.lorentz = disp.lorentz_from_thz()

    def _plasma(self, rng, ahead, grid):
        w0 = float(rng.uniform(1.5, 4.0))
        mach = float(rng.uniform(0.0, 0.7))
        x2 = float(rng.uniform(3.0, 8.0)) * (1.0 if ahead else -1.0)
        t = float(rng.uniform(0.0, 1.5))
        inp = {"medium": "plasma", "omega0": w0, "omega_p": 1.0,
               "mach": mach, "x": (0.0, x2, 0.0), "t": t, "seed_box": None}
        if grid:
            r = abs(x2 - mach * t)
            inp["seed_box"] = ((0.5 * w0 / (1.0 + mach), 2.0 * w0 / (1.0 - mach)),
                               (t - 6.0 * r, t))
        return inp

    def _lorentz(self, rng, grid):
        f0 = float(rng.uniform(419.0, 429.0))
        v = float(rng.uniform(3e-4, 2e-3))
        x = (float(rng.uniform(1e-3, 2e-2)), float(rng.uniform(0.05, 0.3)), 0.0)
        w0 = omega_from_thz(f0)
        inp = {"medium": "lorentz", "omega0": w0, "f0_thz": f0, "v": v,
               "x": x, "t": 0.0, "seed_box": None}
        if grid:
            r = math.hypot(x[0], x[1])
            inp["seed_box"] = ((0.98 * w0, 1.02 * w0), (-200.0 * r, 0.0))
        return inp

    def deck(self, rng, k):
        ops = [self._plasma(rng, ahead, False) for ahead in (True, False) * 6]
        ops += [self._lorentz(rng, False) for _ in range(4)]
        pool = np.random.default_rng([SADDLE_POOL_SEED, self.index, k])
        ops += [self._lorentz(pool, True) for _ in range(3)]
        ops.append(self._plasma(pool, bool(pool.random() < 0.5), True))
        rng.shuffle(ops)
        return ops

    def run(self, inp):
        if inp["medium"] == "plasma":
            model = disp.ColdPlasma(omega_p=inp["omega_p"])
            traj = trj.StraightLine(velocity=(0.0, inp["mach"], 0.0))
        else:
            model = self.lorentz
            traj = trj.OffsetLine(v=inp["v"], H=0.0)
        source = fld.SourceModel(omega0=inp["omega0"])
        return fld.moving_source_fields(source, traj, model, inp["x"], inp["t"],
                                        seed_box=inp["seed_box"],
                                        n_seeds=SADDLE_SEEDS)

    def check(self, inp, out):
        return verify.check_saddle(inp, out, self.lorentz), 0, 0

    def encode(self, out):
        parts = []
        for c in out:
            p = c.point
            parts.append(_floats(p.omega_s, p.tau_s, p.det, c.phase_value,
                                 float(p.signature), float(p.iterations))
                         + np.asarray(c.E, dtype=complex).tobytes()
                         + np.asarray(c.H, dtype=complex).tobytes())
        return b";".join(parts)


# Why: the numpy-bound dense tensor-product quadrature (0.6-3 s per
# integral), the only workload that uses `oracle` and the only one whose
# memory is large.  Nothing else in the package runs here.
class Oracle(Workload):
    """One op is one `oscillatory_integral_2d` call at R0 = 3, tol = 1e-6.

    Deck of 9, lam in [20, 40]: the Gaussian saddle near lam 24 and 36,
    the hyperbolic saddle near 24 and three times near 36, the Fresnel case
    near 24.5, and two ops wrapped in `ibp_regularize(., 1)` (hyperbolic and
    Fresnel near 24).  IBP share 2/9.  The three hyperbolic ops near 36 are
    the middle of the cost order, so the median falls inside them; p90 lies
    between the hyperbolic IBP op and the Fresnel op near 24.5, the two
    slowest.  The seed picks each lam from a short list of values whose
    integral converges by R = 12 and shuffles the deck.  Values in between
    need larger cutoffs, and such ops would not fit in a run: the Fresnel
    case does not settle by R = 12 at lam = 24.0, 29.0 or 30.5; at 33.5 and
    34.0 its R = 12 value is already wrong (relative error 2e-3 and 1.2),
    and at 33.5 the R = 24 pass takes about 90 s and returns -2.74-0.43i
    against the exact 0.188i.  The Gaussian under IBP converges by R = 24 at
    lam = 20 (about 6 s), but not at 19.9, 20.2, 20.5 or 21.0; it is left
    out because that one op, a quarter of the deck's time, made the run too
    long for the benchmark's time budget.
    """

    name, index = "oracle", 2
    min_ops = 1
    passes = 1          # one deck takes about 20 s
    deck_s = 20.0
    speed_loop = "array"

    CASES = {"gaussian": orc.gaussian_saddle_case,
             "hyperbolic": orc.hyperbolic_saddle_case,
             "fresnel": orc.fresnel_case}
    STRATA = [("gaussian", (23.5, 24.0, 24.5), False),
              ("gaussian", (35.5, 36.0, 36.5), False),
              ("hyperbolic", (23.5, 24.0, 24.5), False),
              ("hyperbolic", (35.5, 36.0, 36.5), False),
              ("hyperbolic", (35.5, 36.0, 36.5), False),
              ("hyperbolic", (35.5, 36.0, 36.5), False),
              ("fresnel", (24.5, 25.0), False),
              ("hyperbolic", (23.5, 24.0, 24.5), True),
              ("fresnel", (23.5, 24.0, 24.5), True)]

    def deck(self, rng, k):
        ops = [{"case": case, "lam": float(rng.choice(lams)), "ibp": ibp}
               for case, lams, ibp in self.STRATA]
        rng.shuffle(ops)
        return ops

    def run(self, inp):
        ig, _, _ = self.CASES[inp["case"]](inp["lam"])
        if inp["ibp"]:
            ig = orc.ibp_regularize(ig, 1)
        return orc.oscillatory_integral_2d(ig, R0=ORACLE_R0, tol=ORACLE_TOL)

    def check(self, inp, out):
        return verify.check_oracle(inp, out), 0, 0

    def encode(self, out):
        return _floats(out.value.real, out.value.imag, out.R_used,
                       out.estimated_error)


WORKLOADS = {w.name: w for w in (Scan, Saddle, Oracle)}
