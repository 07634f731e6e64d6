"""Dunkl operators T_i, the Dunkl Laplacian, and the intertwining kernel.

All computations here are exact.  The difference quotient (f - f o r_v)/<v,x>
is carried out by polynomial division with a zero-remainder check, so a
failure of divisibility raises instead of silently truncating.  Per-monomial
actions are cached on the context: T_i is linear and commutes with the radial
shift rule T_i(r^s p) = s r^{s-2} x_i p + r^s T_i(p), which holds because r
is invariant under every reflection of the group.

The shift rule puts the Dirac operator D_k = sum_i e_i T_i, and the whole
deformed family D = r^{1-a/2} D_k + b r^{-a/2-1} x + c r^{-a/2-1} x E, in
closed form on one term:

    D(r^s x^beta e_B) = r^{s-a/2-1} [((1+c) s + b + c|beta|) x x^beta
                                     + r^2 D_k x^beta] e_B,

with D_k itself at (a, b, c) = (2, 0, 0).  :meth:`DunklContext.dirac` applies
it, in integers, from a memo per monomial (:meth:`DunklContext.dirac_monomial`):
the folded D_k x^beta as ints over one denominator and the folded x x^beta.
The memo holds no radial exponent and no parameter, so every triple on the
group shares it.  The one float object is the kernel's coefficients, one
block per degree, converted from the exact series once per order for the
numerical transform.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np

from .clifford import blade_product
from .linalg import solve_columns
from .poly import (RadialExpr, _acc, _add_term, _bump, _exponent, _ints, _merge, _new,
                   r_squared_power)
from .reflection import ReflectionSetup, reflect_monomial


def div_linear(poly: dict, v: tuple) -> dict:
    """Divide a monomial->coeff polynomial by the linear form sum_j v_j x_j.

    Raises ValueError when the remainder is nonzero.
    """
    p = next(j for j, c in enumerate(v) if c)
    vp = v[p]
    dividend = dict(poly)
    quot: dict = {}
    while dividend:
        mono = max(dividend, key=lambda mo: (mo[p], mo))
        if mono[p] == 0:
            raise ValueError("nonzero remainder in division by a linear form")
        c = dividend.pop(mono)
        q = c / vp
        qm = _bump(mono, p, -1)
        _acc(quot, qm, q)
        for j, vj in enumerate(v):
            if j == p or not vj:
                continue
            _acc(dividend, _bump(qm, j), -(q * vj))
    return quot


class DunklContext:
    """Dunkl operators for a fixed reflection group and multiplicity choice."""

    def __init__(self, setup: ReflectionSetup):
        self.setup = setup
        self.m = setup.m
        self._t_cache: dict = {}
        self._t_lookups = 0
        self._d_cache: dict = {}
        self._d_lookups = 0
        self._kernel_cache: dict = {}

    def cache_info(self) -> dict:
        """Hits and misses of :meth:`dunkl_monomial` and :meth:`dirac_monomial`;
        each miss is stored."""
        return {name: {"hits": lookups - len(cache), "misses": len(cache)}
                for name, cache, lookups in (("dunkl_monomial", self._t_cache, self._t_lookups),
                                             ("dirac_monomial", self._d_cache, self._d_lookups))}

    # -- the operators ------------------------------------------------------

    def dunkl_monomial(self, i: int, mono: tuple) -> dict:
        """T_i applied to the plain monomial x^mono, as a monomial->coeff map."""
        key = (i, mono)
        self._t_lookups += 1
        cached = self._t_cache.get(key)
        if cached is not None:
            return cached
        setup = self.setup
        out: dict = {}
        e = mono[i - 1]
        if e:
            _acc(out, _bump(mono, i - 1, -1), Fraction(e))
        for ridx, (root, k) in enumerate(zip(setup.roots, setup.mults)):
            vi = root[i - 1]
            if not k or not vi:
                continue
            mo2, sign = reflect_monomial(setup, ridx, mono)
            diff = {mono: Fraction(1)}
            _acc(diff, mo2, Fraction(-sign))
            if not diff:
                continue
            for qm, cf in div_linear(diff, root).items():
                _acc(out, qm, k * vi * cf)
        self._t_cache[key] = out
        return out

    def dunkl(self, i: int, f: RadialExpr) -> RadialExpr:
        """T_i f for radially shifted f (i is 1-based)."""
        den = f.den
        t: dict = {}
        for (n, mono, blade), c in f.terms.items():
            if n:
                _add_term(t, n - 2 * den, _bump(mono, i - 1), blade,
                          _exponent(n, den) * c, den)
            for mo2, cf in self.dunkl_monomial(i, mono).items():
                _add_term(t, n, mo2, blade, cf * c, den)
        return _new(self.m, den, t)

    def dirac_monomial(self, mono: tuple) -> tuple:
        """(d, xs, ts): x x^mono and D_k x^mono in the normal form, each as
        ((ds, mono, blade, int), ...) with r^ds an even integer power from the
        folding, the ints of ts over d and those of xs over 1."""
        self._d_lookups += 1
        cached = self._d_cache.get(mono)
        if cached is not None:
            return cached
        xs, ts = {}, {}
        for i in range(self.m):
            _add_term(xs, 0, _bump(mono, i), 1 << i, 1, 1)
            for mo2, cf in self.dunkl_monomial(i + 1, mono).items():
                _add_term(ts, 0, mo2, 1 << i, cf, 1)
        d, ts = _ints(ts)
        out = self._d_cache[mono] = (d, *(tuple((*k, v) for k, v in t.items()) for t in (xs, ts)))
        return out

    def dirac_pair(self, den: int, pair: tuple, weights=(1, 0, 0, 1), shift=-2) -> tuple:
        """The integer step of :meth:`dirac`: (common, {key: coeff}) on the
        lattice den, a multiple of den(shift), to the same pair for the image.

        weights = (A, B, C, Q) are ints and shift is -(a/2 + 1), so that
        (A s + B + C |beta|) / Q = (1+c) s + b + c|beta|; the classical
        (1, 0, 0, 1) and -2 give D_k.  A term's image takes
        :meth:`dirac_monomial`'s two lists, the first times that weight and
        the second times r^2, both shifted by r^{s + shift}, and e_B on the
        right.  Coefficients are multiplied by ints only, so ints stay ints
        and ExactScalars pass through.
        """
        common, terms = pair
        a, b, c, q = weights
        sh = shift.numerator * (den // shift.denominator)
        parts = [(key, v, self.dirac_monomial(key[1])) for key, v in terms.items()]
        total = lcm(*(p[2][0] for p in parts))
        out: dict = {}
        for (n, mono, blade), v, (d, xs, ts) in parts:
            if w := (a * n + (b + c * sum(mono)) * den) * total:
                vw = v * w
                for ds, mo, bl, t in xs:
                    sign, nb = blade_product(bl, blade)
                    _acc(out, (n + sh + ds * den, mo, nb), vw * t if sign == 1 else -vw * t)
            vt, up = v * (q * den * (total // d)), n + sh + 2 * den
            for ds, mo, bl, t in ts:
                sign, nb = blade_product(bl, blade)
                _acc(out, (up + ds * den, mo, nb), vt * t if sign == 1 else -vt * t)
        return common * q * den * total, out

    def dirac(self, f: RadialExpr, weights=(1, 0, 0, 1), shift=-2) -> RadialExpr:
        """sum_i e_i T_i f, which squares to minus the Laplacian, or with the
        weights and shift of a triple its deformed operator D f
        (:meth:`dirac_pair`).  The output sits on lcm(f.den, den(shift));
        rational coefficients are cleared to ints and back, others pass
        through."""
        den = lcm(f.den, shift.denominator)
        terms = f._on(den)
        if all(isinstance(c, (int, Fraction)) for c in terms.values()):
            common, out = self.dirac_pair(den, _ints(terms), weights, shift)
            return _new(self.m, den, {k: Fraction(v, common) for k, v in out.items()})
        common, out = self.dirac_pair(den, (1, terms), weights, shift)
        inv = Fraction(1, common)
        return _new(self.m, den, {k: c * inv for k, c in out.items()})

    def laplacian(self, f: RadialExpr) -> RadialExpr:
        """sum_i T_i T_i f."""
        out = RadialExpr(self.m)
        for i in range(1, self.m + 1):
            _merge(out, self.dunkl(i, self.dunkl(i, f)))
        return out

    def sum_x_dunkl(self, f: RadialExpr) -> RadialExpr:
        """sum_i x_i T_i f, the radial contraction of the Dunkl gradient."""
        out = RadialExpr(self.m)
        for i in range(1, self.m + 1):
            _merge(out, self.dunkl(i, f).mul_x(i))
        return out

    def basic_props_report(self, f: RadialExpr) -> dict:
        """Defect of each first-order calculus relation on f, by name.

        Covers the product rule against the invariant r^2, the commutator
        with the Laplacian, the Euler contraction, the exchange with the
        radial derivative, pairwise commutativity, and the symmetry of
        T_i x_j + x_i T_j.  Every defect is identically zero; the report
        hands back the actual residuals so callers can show or test them.
        """
        m = self.setup.m
        mu = self.setup.mu
        report = {}
        total = RadialExpr(m)
        for j in range(1, m + 1):
            _merge(total, self.dunkl(j, f.mul_x(j)))
            _merge(total, self.dunkl(j, f).mul_x(j))
        report["sum_j (x_j T_j + T_j x_j) = 2 E + mu"] = (
            total - f.euler().scale(2) - f.scale(mu))
        lap = self.laplacian(f)
        dr = f.partial_r()
        for i in range(1, m + 1):
            ti = self.dunkl(i, f)
            report[f"T_{i}(r^2 f) = 2 x_{i} f + r^2 T_{i} f"] = (
                self.dunkl(i, f.mul_radial(2))
                - f.mul_x(i).scale(2) - ti.mul_radial(2))
            report[f"[x_{i}, Delta] = -2 T_{i}"] = (
                lap.mul_x(i) - self.laplacian(f.mul_x(i)) + ti.scale(2))
            report[f"dr T_{i} = T_{i} dr + (x_{i}/r^2) dr - (1/r) T_{i}"] = (
                ti.partial_r() - self.dunkl(i, dr)
                - dr.mul_x(i).mul_radial(-2) + ti.mul_radial(-1))
            for j in range(i + 1, m + 1):
                report[f"[T_{i}, T_{j}] = 0"] = (
                    self.dunkl(i, self.dunkl(j, f))
                    - self.dunkl(j, self.dunkl(i, f)))
                report[f"T_{i} x_{j} + x_{i} T_{j} symmetric"] = (
                    self.dunkl(i, f.mul_x(j)) + self.dunkl(j, f).mul_x(i)
                    - self.dunkl(j, f.mul_x(i)) - self.dunkl(i, f).mul_x(j))
        return report

    # -- independent oracle for the Laplacian --------------------------------

    def laplacian_explicit(self, f: RadialExpr) -> RadialExpr:
        """Dunkl Laplacian from its difference-quotient formula.

        Works per blade on the polynomial form of f (radial exponents must be
        even non-negative integers, which are expanded through powers of
        sum x_i^2).  Serves as a cross-check for :meth:`laplacian`, which
        composes T_i twice and never sees a second-order quotient.
        """
        setup = self.setup
        blades: dict = {}
        for (s, mono, blade), c in f.rational_terms():
            if s.denominator != 1 or s < 0 or int(s) % 2:
                raise ValueError("explicit form needs polynomial input")
            d = blades.setdefault(blade, {})
            for lift, lc in r_squared_power(self.m, int(s) // 2):
                _acc(d, tuple(a + b for a, b in zip(mono, lift)), c * lc)
        t: dict = {}
        for blade, poly in blades.items():
            res: dict = {}
            for mono, c in poly.items():
                for i in range(self.m):
                    if mono[i] >= 2:
                        _acc(res, _bump(mono, i, -2), c * mono[i] * (mono[i] - 1))
            for ridx, (root, k) in enumerate(zip(setup.roots, setup.mults)):
                if not k:
                    continue
                num: dict = {}
                for mono, c in poly.items():
                    for i, vi in enumerate(root):
                        if vi and mono[i]:
                            grad = _bump(mono, i, -1)
                            for j, vj in enumerate(root):
                                if vj:
                                    _acc(num, _bump(grad, j), 2 * c * mono[i] * vi * vj)
                norm2 = setup.norm2(ridx)
                for mono, c in poly.items():
                    _acc(num, mono, -norm2 * c)
                    mo2, sign = reflect_monomial(setup, ridx, mono)
                    _acc(num, mo2, norm2 * c * sign)
                if num:
                    quot = div_linear(div_linear(num, root), root)
                    for mono, c in quot.items():
                        _acc(res, mono, k * c)
            for mono, c in res.items():
                _add_term(t, 0, mono, blade, c, 1)
        return _new(self.m, 1, t)

    # -- intertwining kernel ---------------------------------------------

    def kernel_series(self, order: int) -> list:
        """Bihomogeneous kernel components K_0 .. K_order.

        K_n is returned as a dict (x_mono, y_mono) -> Fraction and is the
        unique polynomial of bidegree (n, n) with T_{i,x} K_n = y_i K_{n-1}
        and K_0 = 1.  Contracting that requirement with sum_i x_i T_i and
        using sum_i (T_i x_i - x_i T_i) = m + 2 sum_v k_v r_v turns each step
        into the linear system

            ((n + gamma) I - sum_v k_v r_v^x) K_n = <x, y> K_{n-1},

        block diagonal over orbits of x-monomials, which is what gets solved
        here.  The defining first-order property is not re-checked when this
        runs: :meth:`verify_kernel_series` checks it exactly, as a test oracle
        the solved series is held against.  Each reflection is a signed
        permutation (enforced by :class:`ReflectionSetup`), so each orbit is
        walked once, one :func:`reflect_monomial` lookup per root and
        monomial, and its block is filled during that walk.  The solve runs in
        integers: a level is kept as int numerators over its lowest common
        denominator and grouped by x-monomial into the next right-hand side,
        and each block times L, the lcm of the multiplicity denominators, is
        the integer matrix L (n + gamma) I - L sum_v k_v r_v^x.
        """
        setup = self.setup
        m = setup.m
        kden = lcm(*(Fraction(k).denominator for k in setup.mults))
        knum = [int(k * kden) for k in setup.mults]
        zero = (0,) * m
        nums, den = {(zero, zero): 1}, 1
        series = [{(zero, zero): Fraction(1)}]
        for n in range(1, order + 1):
            rhs: dict = {}  # x_mono -> {y_mono: numerator over den}
            for (xm, ym), c in nums.items():
                for i in range(m):
                    _acc(rhs.setdefault(_bump(xm, i), {}), _bump(ym, i), c)
            level, seen = {}, set()
            for xm in sorted(xm for xm, row in rhs.items() if row):
                if xm in seen:
                    continue
                orbit, idx, entries = [xm], {xm: 0}, []
                for col, mo in enumerate(orbit):  # grows while it is walked
                    for ridx, kn in enumerate(knum):
                        mo2, sign = reflect_monomial(setup, ridx, mo)
                        if mo2 not in idx:
                            idx[mo2] = len(orbit)
                            orbit.append(mo2)
                        if kn:
                            entries.append((idx[mo2], col, kn * sign))
                seen.update(orbit)
                size = len(orbit)
                mat = [[0] * size for _ in range(size)]
                for t in range(size):
                    mat[t][t] = kden * n + sum(knum)
                for row, col, v in entries:
                    mat[row][col] -= v
                rows = [rhs.get(mo, {}) for mo in orbit]
                ymonos = sorted({ym for row in rows for ym in row})
                try:
                    sols, d = solve_columns(mat, [[row.get(ym, 0) for row in rows]
                                                  for ym in ymonos])
                except ValueError as exc:  # a singular multiplicity
                    raise type(exc)(f"kernel series: {exc} at order {n} with multiplicities "
                                    f"{', '.join(map(str, dict.fromkeys(setup.mults)))}") from None
                for ym, sol in zip(ymonos, sols):
                    for mo, v in zip(orbit, sol):
                        if v:
                            level[(mo, ym)] = Fraction(v * kden, d * den)
            den = lcm(*(c.denominator for c in level.values()))
            nums = {key: c.numerator * (den // c.denominator) for key, c in level.items()}
            series.append(level)
        return series

    def kernel_coefficients(self, order: int) -> list:
        """Blocks (xmonos_n, C_n, ymonos_n), n = 0 .. order, built once per order,
        with E(x, -i y) = sum_n sum C_n[s, t] x^xmonos_n[s] y^ymonos_n[t].

        C_n is the float image of level n of :meth:`kernel_series`, of
        bidegree (n, n), with its weight (-i)^n folded in.
        """
        cached = self._kernel_cache.get(order)
        if cached is not None:
            return cached
        out = []
        for n, level in enumerate(self.kernel_series(order)):
            xmonos = sorted({xm for xm, _ym in level})
            ymonos = sorted({ym for _xm, ym in level})
            xi = {mo: t for t, mo in enumerate(xmonos)}
            yi = {mo: t for t, mo in enumerate(ymonos)}
            C = np.zeros((len(xmonos), len(ymonos)), dtype=complex)
            w = (-1j) ** (n % 4)
            for (xm, ym), c in level.items():
                C[xi[xm], yi[ym]] = w * float(c)
            out.append((xmonos, C, ymonos))
        self._kernel_cache[order] = out
        return out

    def verify_kernel_series(self, series: list) -> bool:
        """Exact check of T_{i,x} K_n = y_i K_{n-1} for every i and n."""
        m = self.setup.m
        for n in range(1, len(series)):
            for i in range(1, m + 1):
                lhs: dict = {}
                for (xm, ym), c in series[n].items():
                    for mo2, cf in self.dunkl_monomial(i, xm).items():
                        _acc(lhs, (mo2, ym), cf * c)
                rhs = {(xm, _bump(ym, i - 1)): c for (xm, ym), c in series[n - 1].items()}
                if lhs != rhs:
                    return False
        return True
