"""Seeded inputs for the three workloads.

Everything here is benchmark-side: the program receives only the generated
geometry dictionaries, files and command lines. The same seed gives the
same inputs.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

import oracle as O

F = Fraction

# Coefficient pool for the general-metric generator: small signed integers
# and unit fractions, so that push-forwards grow numerators and denominators
# to a few digits without running away.
POOL = tuple(F(x) for x in ("-3", "-2", "-1", "-1/2", "-1/3", "1/3", "1/2", "1", "2", "3"))
POOL0 = POOL + (F(0),)

# Family of each geometry by its index modulo 10, so every ten geometries
# hold exactly these shares: 4 unimodular, 3 non-unimodular, 2 with a unit
# parallel xi, 1 flat with psi = 0.
FAMILY_CYCLE = ("unimodular", "semidirect", "unimodular", "parallel", "semidirect",
                "unimodular", "flat0", "semidirect", "unimodular", "parallel")

KINDS = ("ricci", "yamabe", "einstein", "mquasi")


def zeros3():
    return [[[F(0)] * 3 for _ in range(3)] for _ in range(3)]


def _set_bracket(c, i, j, k, v):
    """[e_i, e_j] gets v e_k (0-based), with the antisymmetric partner."""
    c[k][i][j] += v
    c[k][j][i] -= v


def geometry_dict(name, c, g, xi):
    """The interchange form the program's loader reads."""
    n = len(g)
    entries = [{"i": i + 1, "j": j + 1, "k": k + 1, "value": O.fmt(c[k][i][j])}
               for i in range(n) for j in range(i + 1, n) for k in range(n) if c[k][i][j] != 0]
    return {"name": name, "dim": n, "structure_constants": entries,
            "metric": O.nested_str(g), "xi": O.nested_str(xi)}


def jet_dict(d, dd):
    return {"d": O.nested_str(d), "dd": O.nested_str(dd)}


class GeneralGeometry:
    """One generated dim-3 geometry with its oracle data and soliton problems."""

    def __init__(self, seed: int, index: int):
        rng = random.Random(f"general-metric/{seed}/{index}")
        self.index = index
        self.family = FAMILY_CYCLE[index % len(FAMILY_CYCLE)]
        base, xi, self.lams = _normal_form(rng, self.family)
        self.base_c = base
        self.b = _invertible(rng)
        self.c, self.g, self.xi = O.push_forward(base, O.identity(3), xi, self.b)
        self.name = f"gm-{seed}-{index}-{self.family}"
        self.geometry = geometry_dict(self.name, self.c, self.g, self.xi)
        self._app = None
        self.problems = [self._problem(rng, kind) for kind in KINDS]

    @property
    def app(self) -> O.Apparatus:
        if self._app is None:
            self._app = O.Apparatus(self.c, self.g, self.xi)
        return self._app

    def _consistent_jet(self, rng):
        """dd = sym + 1/2 C.d, so dd_ij - dd_ji = C^k_ij d_k exactly."""
        d = [rng.choice(POOL0) for _ in range(3)]
        sym = [[F(0)] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(i, 3):
                sym[i][j] = sym[j][i] = rng.choice(POOL0)
        dd = [[sym[i][j] + sum((self.c[k][i][j] * d[k] for k in range(3)), F(0)) / 2
               for j in range(3)] for i in range(3)]
        return d, dd

    def _problem(self, rng, kind):
        lam = rng.choice(POOL0)
        m = rng.choice((1, 2, 3)) if kind == "mquasi" else None
        zero_d = [F(0)] * 3
        if self.family == "flat0":
            # Hat curvature vanishes, so d = 0 with dd = -lambda g (lambda g
            # for m-quasi) solves every kind exactly.
            sign = 1 if kind == "mquasi" else -1
            dd = [[sign * lam * x for x in row] for row in self.g]
            return {"kind": kind, "lam": lam, "m": m, "d": zero_d, "dd": dd, "genuine": True}
        if kind == "yamabe" and self.index % 2 == 0:
            # A zero jet with lambda = r-hat is always a Yamabe soliton.
            lam = self.app.scalar_hat
            return {"kind": kind, "lam": lam, "m": m, "d": zero_d,
                    "dd": [[F(0)] * 3 for _ in range(3)], "genuine": True}
        d, dd = self._consistent_jet(rng)
        return {"kind": kind, "lam": lam, "m": m, "d": d, "dd": dd, "genuine": None}


def _normal_form(rng, family):
    """Milnor normal forms in an orthonormal frame: (C, xi, lambdas or None)."""
    c = zeros3()
    if family == "unimodular":
        while True:
            lams = [rng.choice(POOL0) for _ in range(3)]
            if any(lams):
                break
        _set_bracket(c, 1, 2, 0, lams[0])
        _set_bracket(c, 2, 0, 1, lams[1])
        _set_bracket(c, 0, 1, 2, lams[2])
        return c, _nonzero_vector(rng), lams
    if family == "semidirect":
        while True:
            a = [[rng.choice(POOL0) for _ in range(2)] for _ in range(2)]
            if a[0][0] + a[1][1] != 0:
                break
        for col in range(2):  # [e3, e_col] = A[0][col] e1 + A[1][col] e2
            for row in range(2):
                _set_bracket(c, 2, col, row, a[row][col])
        return c, _nonzero_vector(rng), None
    if family == "parallel":
        # H^2 x R: [e3, e1] = a e1 with e2 central; the unit field e2 is parallel.
        _set_bracket(c, 2, 0, 0, rng.choice(POOL))
        return c, [F(0), F(1), F(0)], None
    if family == "flat0":
        return c, [F(0)] * 3, None
    raise ValueError(family)


def _nonzero_vector(rng):
    while True:
        v = [rng.choice(POOL0) for _ in range(3)]
        if any(v):
            return v


def _invertible(rng):
    while True:
        b = [[rng.choice(POOL0) for _ in range(3)] for _ in range(3)]
        if O.det(b) != 0:
            return b


# -- fuzz-stream ------------------------------------------------------------

# The program's default fuzz pool and its draw order, restated here so that
# the oracle can replay which candidates a stream must accept.
FUZZ_POOL = tuple(F(x) for x in ("-2", "-1", "-1/2", "0", "1/2", "1", "2"))
FUZZ_SLOTS = tuple((k, i, j) for k in range(3) for (i, j) in ((0, 1), (0, 2), (1, 2)))
FUZZ_COUNT = 5  # candidates per stream in one operation
# (accepted, parallel_accepted) that every operation's general and parallel
# streams must have: the most common split of the outcome closest to the
# mean acceptance of a 5 + 5 pair (3 accepted, 2 parallel, against a mean of
# about 2.6 and 1.5). Acceptance varies from 0 to 7 across pairs, so without
# this the probe work per operation, and with it every timing, would swing
# with the seed.
FUZZ_TARGET = ((2, 1), (1, 1))


def fuzz_seed(seed: int, index: int) -> int:
    return seed * 1_000_003 + index


def fuzz_expectation(fseed: int, count: int, parallel_only: bool) -> tuple[int, int]:
    """(accepted, parallel_accepted) of a stream, replayed with the oracle."""
    rng = random.Random(fseed)
    accepted = parallel = 0
    for _ in range(count):
        c = zeros3()
        if parallel_only:
            a, b, t = (rng.choice(FUZZ_POOL) for _ in range(3))
            _set_bracket(c, 0, 1, 0, a)
            _set_bracket(c, 0, 1, 1, b)
            c[0][1][2], c[0][2][1] = t, -t
            c[1][0][2], c[1][2][0] = -t, t
        else:
            level = rng.randrange(len(FUZZ_SLOTS) + 1)
            for k, i, j in sorted(rng.sample(FUZZ_SLOTS, level)):
                v = rng.choice(FUZZ_POOL)
                c[k][i][j], c[k][j][i] = v, -v
        if not O.jacobi_holds(c):
            continue
        is_par = O.parallel_orthonormal(c, 2)
        if parallel_only and not is_par:
            continue
        accepted += 1
        parallel += is_par
    return accepted, parallel


class FuzzOps:
    """The fuzz seeds of successive operations, with their oracle expectations.

    Operation i uses the i-th seed derived from the benchmark seed whose
    stream pair meets FUZZ_TARGET.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.chosen: list[tuple[int, tuple, tuple]] = []
        self._next = 0

    def __getitem__(self, i):
        while len(self.chosen) <= i:
            fseed = fuzz_seed(self.seed, self._next)
            self._next += 1
            general = fuzz_expectation(fseed, FUZZ_COUNT, False)
            par = fuzz_expectation(fseed, FUZZ_COUNT, True)
            if (general, par) == FUZZ_TARGET:
                self.chosen.append((fseed, general, par))
        return self.chosen[i]


# -- cli-oneshot ------------------------------------------------------------

EXAMPLE1_C = zeros3()
_set_bracket(EXAMPLE1_C, 0, 2, 0, F(-1))
_set_bracket(EXAMPLE1_C, 1, 2, 1, F(-1))
H2XR_C = zeros3()
_set_bracket(H2XR_C, 0, 1, 0, F(-1))
E3 = [F(0), F(0), F(1)]


def cli_mix(seed: int, directory: Path) -> list[dict]:
    """Write the mix's input files and return one round of invocations.

    Each entry holds the argv after `python -m sscurv.cli`, the command name
    and what the check needs to know about the expected outcome.
    """
    directory.mkdir(parents=True, exist_ok=True)

    def write(name, data):
        path = directory / name
        path.write_text(json.dumps(data, indent=2) + "\n")
        return str(path)

    # Generated geometries: a general one, a parallel one, and two for the
    # soliton commands; indices are fixed so the family of each is fixed.
    gen = GeneralGeometry(seed, 0)        # unimodular
    par = GeneralGeometry(seed, 3)        # unit parallel xi
    ein = GeneralGeometry(seed, 1)        # non-unimodular
    mq = GeneralGeometry(seed, 5)         # unimodular
    g_gen = write("general.json", gen.geometry)
    g_par = write("parallel.json", par.geometry)
    g_ein = write("einstein.json", ein.geometry)
    p_ein = ein.problems[2]
    j_ein = write("einstein-jet.json", jet_dict(p_ein["d"], p_ein["dd"]))
    mq_geom = dict(mq.geometry)
    p_mq = mq.problems[3]
    mq_geom["jet"] = jet_dict(p_mq["d"], p_mq["dd"])
    g_mq = write("mquasi.json", mq_geom)

    flat0 = geometry_dict("flat0", zeros3(), O.identity(3), [F(0)] * 3)
    g_flat0 = write("flat0.json", flat0)
    j_gauss = write("gauss-jet.json", jet_dict([F(0)] * 3, O.identity(3)))

    bad = geometry_dict("jacobi-bad", zeros3(), O.identity(3), E3)
    bad["structure_constants"] = [{"i": 1, "j": 2, "k": 3, "value": "1"},
                                  {"i": 1, "j": 3, "k": 1, "value": "1"}]
    g_bad = write("jacobi-bad.json", bad)

    def lam_arg(lam):
        # "--lambda=-1/2": with a space argparse takes "-1/2" for an option.
        return f"--lambda={O.fmt(lam)}"

    return [
        {"cmd": "validate", "argv": ["validate", "--builtin", "example1"],
         "expect": {"exit": 0, "format": "text"}},
        {"cmd": "validate", "argv": ["validate", "--geometry", g_bad, "--format", "json"],
         "expect": {"exit": 2, "format": "json", "jacobi_triple": "(1, 2, 3)"}},
        {"cmd": "compute", "argv": ["compute", "--builtin", "example1", "--format", "json"],
         "expect": {"exit": 0, "format": "json", "c": EXAMPLE1_C, "g": O.identity(3),
                    "xi": E3, "example1": True}},
        {"cmd": "compute", "argv": ["compute", "--geometry", g_gen],
         "expect": {"exit": 0, "format": "text", "geometry": gen}},
        {"cmd": "probe", "argv": ["probe", "--builtin", "h2xr", "--suite", "all",
                                  "--format", "json"],
         "expect": {"exit": 0, "format": "json", "c": H2XR_C, "g": O.identity(3),
                    "xi": E3, "h2xr": True}},
        {"cmd": "probe", "argv": ["probe", "--geometry", g_par, "--suite", "all"],
         "expect": {"exit": 0, "format": "text", "geometry": par}},
        {"cmd": "soliton", "argv": ["soliton", "--builtin", "h2xr", "--type", "yamabe",
                                    "--lambda", "0", "--format", "json"],
         "expect": {"exit": 0, "format": "json", "c": H2XR_C, "g": O.identity(3), "xi": E3,
                    "problem": {"kind": "yamabe", "lam": F(0), "m": None,
                                "d": [F(0)] * 3, "dd": [[F(0)] * 3 for _ in range(3)]},
                    "genuine": True}},
        {"cmd": "soliton", "argv": ["soliton", "--geometry", g_flat0, "--jet", j_gauss,
                                    "--type", "ricci", "--lambda", "-1"],
         "expect": {"exit": 0, "format": "text", "c": zeros3(), "g": O.identity(3),
                    "xi": [F(0)] * 3,
                    "problem": {"kind": "ricci", "lam": F(-1), "m": None,
                                "d": [F(0)] * 3, "dd": O.identity(3)},
                    "genuine": True}},
        {"cmd": "soliton", "argv": ["soliton", "--geometry", g_ein, "--jet", j_ein,
                                    "--type", "einstein", lam_arg(p_ein["lam"]),
                                    "--format", "json"],
         "expect": {"exit": 0, "format": "json", "geometry": ein, "problem": p_ein}},
        {"cmd": "soliton", "argv": ["soliton", "--geometry", g_mq, "--type", "mquasi",
                                    "--m", str(p_mq["m"]), lam_arg(p_mq["lam"])],
         "expect": {"exit": 0, "format": "text", "geometry": mq, "problem": p_mq}},
        {"cmd": "builtin", "argv": ["builtin", "h2xr"],
         "expect": {"exit": 0, "format": "geometry",
                    "dict": geometry_dict("h2xr", H2XR_C, O.identity(3), E3)}},
    ]
