"""Output checks that do not take the program's verdict on trust.

Two kinds of check run after the timed rounds:

* Row checks.  A row passes only when its ``pass`` is the JSON boolean
  ``true``, and each invocation must write exactly the number of rows its
  definition implies (see workloads.py).
* Independent computations.  Reference values computed here, apart from the
  program: a float Dirac operator with difference-quotient reflections,
  Rösler's Bessel product for the z2 kernel, symmetry, invariance and the
  bound |E| <= 1 for the B2 kernel, the spectral eigenvalues, and the
  closed norm constants through mpmath.

Every check is written as a function of the data it judges, so
``prove_checks`` can feed it doctored data (a ``"pass": "False"`` row, a
dropped row, a value perturbed by 1e-6 relative) and require a rejection.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
from scipy.special import gamma as gamma_fn, jv

from workloads import TRANSFORM_TOL

EXACT_TOL = 1e-9      # float re-evaluation of exact output
KERNEL_TOL = 1e-10    # order-28 series inside its ball of convergence
NORM_TOL = 1e-12      # mpmath against the program's Gamma combinations
PERTURB = 1e-6        # relative size of the doctored values
ERROR_FIELDS = ("rel_err", "residual", "numeric_err", "paths_agree_err",
                "eigen_rel_err")


# -- rows -------------------------------------------------------------------

def read_rows(inv_dir: Path, suite: str) -> list:
    path = inv_dir / f"{suite}.jsonl"
    if not path.exists():
        return []
    with path.open() as fh:
        return [json.loads(line) for line in fh if line.strip()]


def row_failures(rows: list, expected: int) -> int:
    """Rows whose pass is not JSON true, plus rows missing or surplus."""
    bad = sum(1 for row in rows if row.get("pass") is not True)
    bad += abs(len(rows) - expected)
    return min(bad, expected)


def err_max(rows: list) -> float:
    vals = [float(row[k]) for row in rows for k in ERROR_FIELDS if k in row]
    return max(vals, default=0.0)


# -- an independent float Dirac operator --------------------------------------

def roots_of(family: str, m: int) -> list:
    if family == "z2":
        return [np.eye(m)[i] for i in range(m)]
    if family == "symmetric":
        return [np.eye(m)[i] - np.eye(m)[j] for i in range(m) for j in range(i + 1, m)]
    raise ValueError(family)


def clifford_mul(a: int, b: int) -> tuple:
    """(sign, mask) of e_A e_B with e_i e_i = -1, by sorting the index word."""
    word = [i for i in range(a.bit_length()) if a >> i & 1]
    word += [i for i in range(b.bit_length()) if b >> i & 1]
    sign = 1
    for end in range(len(word) - 1, 0, -1):
        for j in range(end):
            if word[j] > word[j + 1]:
                word[j], word[j + 1] = word[j + 1], word[j]
                sign = -sign
    out = []
    for i in word:
        if out and out[-1] == i:
            out.pop()
            sign = -sign
        else:
            out.append(i)
    return sign, sum(1 << i for i in out)


def own_dirac(family, m, k, a, b, c, mono, blade, pts) -> np.ndarray:
    """D (x^mono e_B) at each point, D = r^{1-a/2} D_k + (b + c E) r^{-a/2-1} x."""
    a, b, c, k = float(a), float(b), float(c), float(k)
    roots = roots_of(family, m)
    out = np.zeros((len(pts), 1 << m))
    for p, x in enumerate(pts):
        r = math.sqrt(x @ x)
        fx = np.prod(x ** np.array(mono))
        for i in range(m):
            d = np.array(mono)
            ti = 0.0
            if d[i]:
                d[i] -= 1
                ti += mono[i] * np.prod(x ** d)
            for v in roots:
                if v[i]:
                    sx = x - 2 * (v @ x) / (v @ v) * v
                    ti += k * v[i] * (fx - np.prod(sx ** np.array(mono))) / (v @ x)
            sign, res = clifford_mul(1 << i, blade)
            out[p, res] += sign * (r ** (1 - a / 2) * ti
                                   + (b + c * sum(mono)) * r ** (-a / 2 - 1) * x[i] * fx)
    return out


def eval_json(data: list, m: int, pts: np.ndarray) -> np.ndarray:
    """Evaluate RadialExpr.to_json() output with float arithmetic."""
    out = np.zeros((len(pts), 1 << m))
    r = np.sqrt(np.sum(pts * pts, axis=1))
    for chunk in data:
        rs = r ** float(Fraction(chunk["r_exp"]))
        for mono, mv in chunk["poly"]["monomials"]:
            base = rs * np.prod(pts ** np.array(mono), axis=1)
            for indices, coeff in mv["blades"]:
                mask = sum(1 << (i - 1) for i in indices)
                out[:, mask] += float(Fraction(coeff)) * base
    return out


def close(got: np.ndarray, want: np.ndarray, tol: float) -> bool:
    scale = max(float(np.max(np.abs(want))), 1e-300)
    return float(np.max(np.abs(got - want))) <= tol * scale


def own_delta(p: dict) -> Fraction:
    """delta = a/2 + (2b + mu - 1)/(1 + c) with mu = m + 2 sum_v k_v."""
    mu = p["m"] + 2 * p["k"] * len(roots_of(p["family"], p["m"]))
    return p["a"] / 2 + (2 * p["b"] + mu - 1) / (1 + p["c"])


def osp_samples(inv, seed: int, n_inputs: int = 4, n_pts: int = 3):
    """Seeded degree 1..3 inputs off the kernel of E + delta/2, and generic
    points away from every mirror."""
    p = inv.params
    m = p["m"]
    rng = random.Random(seed)
    delta = own_delta(p)
    monos = [mo for mo in itertools.product(range(4), repeat=m)
             if 1 <= sum(mo) <= 3 and sum(mo) + delta / 2 != 0]
    inputs = [(rng.choice(monos), rng.randrange(1 << m)) for _ in range(n_inputs)]
    nrng = np.random.default_rng(seed)
    roots = roots_of(p["family"], m)
    pts = []
    while len(pts) < n_pts:
        x = nrng.uniform(-1.3, 1.3, size=m)
        if np.sqrt(x @ x) > 0.4 and all(abs(v @ x) > 0.1 for v in roots):
            pts.append(x)
    return inputs, np.array(pts)


def osp_outputs(inv, seed: int) -> list:
    """Program outputs for the osp checks: D f and {x_a, D} f, as JSON + verdict."""
    from dunkldirac import DeformedContext, DeformParams, DunklContext, RadialExpr
    from dunkldirac.reflection import symmetric, z2_power

    p = inv.params
    m = p["m"]
    setup = z2_power(m, p["k"]) if p["family"] == "z2" else symmetric(m, p["k"])
    dctx = DeformedContext(DunklContext(setup), DeformParams(p["a"], p["b"], p["c"]))
    inputs, pts = osp_samples(inv, seed)
    out = []
    for mono, blade in inputs:
        f = RadialExpr.monomial(m, mono, blade=blade)
        df = dctx.dirac(f)
        anti = dctx.x_a(df) + dctx.dirac(dctx.x_a(f))
        out.append({"mono": mono, "blade": blade, "pts": pts,
                    "dirac": eval_json(df.to_json(), m, pts),
                    "anti": eval_json(anti.to_json(), m, pts),
                    "anti_is_zero": anti.is_zero()})
    return out


def osp_checks(inv, outputs: list) -> list:
    """Per input: D f against the float operator; {x_a, D} f is nonzero and
    equals -2(1+c)(|mono| + delta/2) f with delta recomputed here."""
    p = inv.params
    m, a, b, c, k = p["m"], p["a"], p["b"], p["c"], p["k"]
    delta = own_delta(p)
    res = []
    for o in outputs:
        pts, mono, blade = o["pts"], o["mono"], o["blade"]
        want = own_dirac(p["family"], m, k, a, b, c, mono, blade, pts)
        res.append(("dirac float", close(o["dirac"], want, EXACT_TOL)))
        f_vals = np.zeros((len(pts), 1 << m))
        f_vals[:, blade] = np.prod(pts ** np.array(mono), axis=1)
        lam = float(-2 * (1 + c) * (sum(mono) + delta / 2))
        res.append(("anticommutator nonzero", o["anti_is_zero"] is False))
        res.append(("anticommutator value", close(o["anti"], lam * f_vals, EXACT_TOL)))
    return res


# -- kernels --------------------------------------------------------------------

def normalized_bessel(nu: float, z: np.ndarray) -> np.ndarray:
    """j_nu(z) = Gamma(nu + 1) (z/2)^{-nu} J_nu(z)."""
    return gamma_fn(nu + 1) * (z / 2) ** (-nu) * jv(nu, z)


def rosler_z2(ks, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """E_k(x, -i y) for z2^m as the product of rank-one Bessel kernels."""
    out = np.ones((len(X), len(Y)), dtype=complex)
    for j, k in enumerate(ks):
        z = np.outer(X[:, j], Y[:, j])
        k = float(k)
        out *= normalized_bessel(k - 0.5, z) - 1j * z / (2 * k + 1) * normalized_bessel(k + 0.5, z)
    return out


def ball_points(rng, n: int, m: int, radius: float) -> np.ndarray:
    pts = rng.uniform(-1, 1, size=(n, m))
    norms = np.sqrt(np.sum(pts * pts, axis=1))[:, None]
    return pts / norms * radius * rng.uniform(0.3, 1.0, size=(n, 1))


def b2_elements() -> list:
    out = []
    for perm in itertools.permutations(range(2)):
        for signs in itertools.product((1, -1), repeat=2):
            g = np.zeros((2, 2))
            for i, j in enumerate(perm):
                g[i, j] = signs[i]
            out.append(g)
    return out


def kernel_outputs(seed: int) -> dict:
    """Program kernel values: z2 against Bessel, B2 for the method properties."""
    from dunkldirac import DunklContext
    from dunkldirac.dunkltransform import kernel_matrix
    from dunkldirac.reflection import hyperoctahedral, z2_power

    rng = np.random.default_rng(seed)
    ks = [Fraction(1, 2), Fraction(3, 2)]
    X, Y = ball_points(rng, 6, 2, 1.5), ball_points(rng, 6, 2, 1.5)
    z2 = kernel_matrix(DunklContext(z2_power(2, ks)), X, Y, 28)
    dk = DunklContext(hyperoctahedral(2, 1, 2))
    U, V = ball_points(rng, 5, 2, 1.2), ball_points(rng, 5, 2, 1.2)
    b2 = kernel_matrix(dk, U, V, 28)
    return {"ks": ks, "X": X, "Y": Y, "z2": z2, "b2": b2,
            "b2_swapped": kernel_matrix(dk, V, U, 28),
            "b2_moved": [np.diag(kernel_matrix(dk, U @ g.T, V @ g.T, 28))
                         for g in b2_elements()]}


def kernel_checks(out: dict) -> list:
    res = []
    want = rosler_z2(out["ks"], out["X"], out["Y"])
    err = np.abs(out["z2"] - want) / np.abs(want)
    res += [("z2 kernel = Bessel product", bool(e <= KERNEL_TOL)) for e in err.ravel()]
    b2 = out["b2"]
    sym = np.abs(b2 - out["b2_swapped"].T) / np.abs(b2)
    res += [("B2 E(x,y) = E(y,x)", bool(e <= KERNEL_TOL)) for e in sym.ravel()]
    for moved in out["b2_moved"]:
        inv = np.abs(moved - np.diag(b2)) / np.abs(np.diag(b2))
        res += [("B2 E(gx,gy) = E(x,y)", bool(e <= KERNEL_TOL)) for e in inv]
    res += [("B2 |E(x,-iy)| <= 1", bool(v <= 1 + KERNEL_TOL)) for v in np.abs(b2).ravel()]
    return res


# -- eigenvalues and norms ----------------------------------------------------------

def spectral(a: Fraction, t: int, ell: int) -> complex:
    """(-i)^t e^{-i pi ell / (a (1 + c))} on the commuting line c = 2/a - 1."""
    c = 2 / a - 1
    return (-1j) ** t * cmath.exp(-1j * math.pi * ell / float(a * (1 + c)))


def eigen_checks(inv, rows: list) -> list:
    res = []
    for row in rows:
        if "measured" not in row:  # an excluded row
            res.append(("eigenvalue", False))
            continue
        want = spectral(inv.params["a"], row["t"], row["l"])
        got = complex(*row["measured"])
        res.append(("eigenvalue", abs(got - want) / abs(want) <= TRANSFORM_TOL))
    return res


def norm_constant(m, ks, a, c, ell: int, t: int):
    """The closed norm constant c(t) of psi_t e^{-r^a/a}, in mpmath.

    c(2h)   = (1/2) (2a)^{2h}   (1+c)^{4h}   h! Gamma(g/a + h)     (a/2)^{g/a - 1}
    c(2h+1) = (1/2) (2a)^{2h+1} (1+c)^{4h+2} h! Gamma(g/a + h + 1) (a/2)^{g/a - 1}
    with g = a/2 + (mu - 1 + 2 ell)/(1 + c) and mu = m + 2 sum k.
    """
    mp = lambda q: mpmath.mpf(Fraction(q).numerator) / Fraction(q).denominator
    mu = m + 2 * sum(ks)
    ga = mp((a / 2 + (mu - 1 + 2 * Fraction(ell)) / (1 + c)) / a)
    h, odd = divmod(t, 2)
    val = (mpmath.mpf(1) / 2 * mp(2 * a) ** (2 * h + odd) * mp(1 + c) ** (4 * h + 2 * odd)
           * mpmath.factorial(h) * mpmath.gamma(ga + h + odd) * mp(a / 2) ** (ga - 1))
    return val


def gamma_comb_value(text: str, half_a: Fraction):
    """Numeric value of a GammaComb as the program prints it."""
    mp = lambda q: mpmath.mpf(q.numerator) / q.denominator
    total = mpmath.mpf(0)
    if text == "0":
        return total
    for term in text.split(" + "):
        val = mpmath.mpf(1)
        for factor in term.split("*"):
            if factor.startswith("(a/2)^("):
                val *= mp(half_a) ** mp(Fraction(factor[7:-1]))
            elif factor.startswith("2^("):
                val *= mpmath.mpf(2) ** mp(Fraction(factor[3:-1]))
            elif factor.startswith("/G("):
                val /= mpmath.gamma(mp(Fraction(factor[3:-1])))
            elif factor.startswith("G("):
                val *= mpmath.gamma(mp(Fraction(factor[2:-1])))
            elif factor.startswith("("):
                val *= mp(Fraction(factor[1:-1]))
            else:
                raise ValueError(f"unreadable factor {factor!r}")
        total += val
    return total


def rel_close(got, want, tol: float) -> bool:
    return abs(got - want) <= tol * abs(want)


def orthogonality_checks(inv, rows: list) -> list:
    """Off-diagonal exact products are empty; along each tower the diagonal
    values scale as the closed norm constants c(t) / c(0)."""
    p = inv.params
    res = []
    diag: dict = {}
    for row in rows:
        if (row["t"], row["ell"]) != (row["s"], row["ell2"]):
            res.append(("off-diagonal exact product empty", row.get("exact") == {}))
        else:
            diag[(row["ell"], row["t"])] = {
                bl: gamma_comb_value(txt, p["a"] / 2)
                for bl, txt in (row.get("exact") or {}).items()}
    for ell in range(p["ell_max"] + 1):
        base = diag.get((ell, 0))
        c0 = norm_constant(p["m"], p["ks"], p["a"], p["c"], ell, 0)
        for t in range(1, p["t_max"] + 1):
            ratio = norm_constant(p["m"], p["ks"], p["a"], p["c"], ell, t) / c0
            vals = diag.get((ell, t))
            ok = bool(base) and vals is not None and set(vals) == set(base) and all(
                rel_close(vals[bl], base[bl] * ratio, NORM_TOL) for bl in base)
            res.append(("diagonal norm ratio = c(t)/c(0)", ok))
    return res


def laguerre_checks(inv, rows: list) -> list:
    p = inv.params
    return [("norm constant", row.get("norm_numeric") is not None and rel_close(
        row["norm_numeric"],
        norm_constant(p["m"], p["ks"], p["a"], p["c"], row["ell"], row["t"]),
        NORM_TOL)) for row in rows]


# -- all checks of one workload -------------------------------------------------------

def program_outputs(workload: str, invocations: list, seed: int) -> dict:
    """Outputs the independent checks need beyond the report rows."""
    if workload == "osp-exact":
        return {"osp": [osp_outputs(inv, seed + j) for j, inv in enumerate(invocations)]}
    if workload == "transform-series":
        return {"kernel": kernel_outputs(seed)}
    return {}


def independent_checks(invocations: list, rows: list, outputs: dict) -> list:
    """(name, ok) for every independent check; rows[j] belongs to invocations[j]."""
    res = []
    for inv, osp in zip(invocations, outputs.get("osp", [])):
        res += osp_checks(inv, osp)
    if "kernel" in outputs:
        res += kernel_checks(outputs["kernel"])
    for inv, inv_rows in zip(invocations, rows):
        if inv.suite == "transform-eigen":
            res += eigen_checks(inv, inv_rows)
        elif inv.suite == "orthogonality":
            res += orthogonality_checks(inv, inv_rows)
        elif inv.suite == "laguerre-table":
            res += laguerre_checks(inv, inv_rows)
    return res


def _rejects(results: list) -> bool:
    return not all(ok for _name, ok in results)


def _perturbed(text: str) -> str:
    factor = 1 + Fraction(1, round(1 / PERTURB))
    return " + ".join(f"{term}*({factor})" for term in text.split(" + "))


def prove_checks(invocations: list, rows: list, outputs: dict) -> list:
    """Doctor the outputs and return the doctorings that were NOT rejected."""
    missed = []
    for inv, inv_rows in zip(invocations, rows):
        bad = [dict(r) for r in inv_rows]
        bad[0]["pass"] = "False"
        if row_failures(bad, inv.rows) == 0:
            missed.append(f"{inv.suite}: row with pass \"False\"")
        if row_failures(inv_rows[1:], inv.rows) == 0:
            missed.append(f"{inv.suite}: dropped row")
        bad = [dict(r) for r in inv_rows]
        if inv.suite == "transform-eigen":
            bad[-1]["measured"] = [v * (1 + PERTURB) for v in bad[-1]["measured"]]
            if not _rejects(eigen_checks(inv, bad)):
                missed.append("transform-eigen: perturbed eigenvalue")
        elif inv.suite == "orthogonality":
            off = next(r for r in bad if (r["t"], r["ell"]) != (r["s"], r["ell2"]))
            off["exact"] = {"0": "(1)"}
            if not _rejects(orthogonality_checks(inv, bad)):
                missed.append("orthogonality: nonempty off-diagonal product")
            bad = [dict(r) for r in inv_rows]
            last = next(r for r in reversed(bad) if (r["t"], r["ell"]) == (r["s"], r["ell2"]))
            last["exact"] = {bl: _perturbed(txt) for bl, txt in last["exact"].items()}
            if not _rejects(orthogonality_checks(inv, bad)):
                missed.append("orthogonality: perturbed diagonal value")
        elif inv.suite == "laguerre-table":
            bad[-1]["norm_numeric"] *= 1 + PERTURB
            if not _rejects(laguerre_checks(inv, bad)):
                missed.append("laguerre-table: perturbed norm constant")
    for inv, osp in zip(invocations, outputs.get("osp", [])):
        doctored = dict(osp[0], dirac=osp[0]["dirac"] * (1 + PERTURB))
        if not _rejects(osp_checks(inv, [doctored])):
            missed.append("verify-osp: perturbed D f")
        doctored = dict(osp[1], anti_is_zero=True)
        if not _rejects(osp_checks(inv, [doctored])):
            missed.append("verify-osp: zero test answering True")
    if "kernel" in outputs:
        for key in ("z2", "b2"):
            doctored = dict(outputs["kernel"])
            doctored[key] = doctored[key].copy()
            doctored[key][0, 0] *= 1 + PERTURB
            if not _rejects(kernel_checks(doctored)):
                missed.append(f"transform-series: perturbed {key} kernel value")
    return missed
