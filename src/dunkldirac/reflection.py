"""Finite reflection groups with rational root data.

Roots are stored as primitive integer vectors (one per positive root line)
together with a rational multiplicity per root.  The normalization to
squared length 2 only ever enters through the even power (2/<v,v>)^k in the
weight function, so all operator coefficients stay rational.  Every
reflection must act by a signed permutation of the coordinates, as those of
every built-in family do: :class:`ReflectionSetup` computes each one once and
rejects a root whose reflection is not of that form, so a reflected monomial
is always one signed monomial.  Construction also enforces that the
reflections permute the root lines and keep their multiplicities, so the
weight and the Dunkl operators are invariant under the group they generate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .linalg import primitive_scale


def _primitive(vec) -> tuple:
    """vec scaled to coprime integers, its first nonzero entry positive."""
    fr = [Fraction(x) for x in vec]
    if not any(fr):
        raise ValueError("zero root")
    scale = primitive_scale(fr) * (1 if next(x for x in fr if x) > 0 else -1)
    return tuple(x * scale for x in fr)


@dataclass(frozen=True)
class ReflectionSetup:
    """A root system fragment: positive root lines plus multiplicities.

    ``perms[ridx]`` is the reflection in root ``ridx`` as the (perm, signs)
    of :meth:`signed_permutation`, fixed at construction; so is the hash,
    since setups key caches and hashing their Fractions is not cheap.
    """

    name: str
    m: int
    roots: tuple
    mults: tuple
    perms: tuple = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"rank m = {self.m}; it must be at least 1")
        if len(self.roots) != len(self.mults):
            raise ValueError("one multiplicity per root")
        for v in self.roots:
            if len(v) != self.m:
                raise ValueError("root dimension mismatch")
        perms = tuple(self.signed_permutation(r) for r in range(len(self.roots)))
        lines = {_primitive(v): k for v, k in zip(self.roots, self.mults)}
        for ridx, (v, sp) in enumerate(zip(self.roots, perms)):
            if sp is None:
                fault = "is not a signed permutation of the coordinates"
            elif any(lines.get(_primitive(self.reflect_vector(ridx, w))) != k
                     for w, k in lines.items()):
                fault = "does not permute the root lines with their multiplicities"
            else:
                continue
            raise ValueError(f"the reflection in root ({', '.join(map(str, v))}) {fault}")
        object.__setattr__(self, "perms", perms)
        object.__setattr__(self, "_hash", hash((self.name, self.m, self.roots, self.mults)))

    def __hash__(self):
        return self._hash

    @property
    def gamma(self) -> Fraction:
        return sum(self.mults, Fraction(0))

    @property
    def mu(self) -> Fraction:
        """Effective dimension m + 2 gamma."""
        return self.m + 2 * self.gamma

    def norm2(self, ridx: int) -> Fraction:
        v = self.roots[ridx]
        return sum((x * x for x in v), Fraction(0))

    def reflect_vector(self, ridx: int, vec):
        v = self.roots[ridx]
        ip = sum((a * b for a, b in zip(v, vec)), Fraction(0))
        factor = 2 * ip / self.norm2(ridx)
        return tuple(Fraction(x) - factor * a for x, a in zip(vec, v))

    def reflection_matrix(self, ridx: int):
        cols = []
        for j in range(self.m):
            basis = [Fraction(0)] * self.m
            basis[j] = Fraction(1)
            cols.append(self.reflect_vector(ridx, basis))
        return tuple(tuple(cols[j][i] for j in range(self.m)) for i in range(self.m))

    def signed_permutation(self, ridx: int):
        """(perm, signs) with r(x)_perm[j] = signs[j]*x_j, or None if not of that form."""
        mat = self.reflection_matrix(ridx)
        perm, signs = [], []
        for j in range(self.m):
            col = [mat[i][j] for i in range(self.m)]
            hits = [i for i, v in enumerate(col) if v]
            if len(hits) != 1 or abs(col[hits[0]]) != 1:
                return None
            perm.append(hits[0])
            signs.append(1 if col[hits[0]] > 0 else -1)
        return tuple(perm), tuple(signs)

    def weight_numeric(self, points):
        """prod_alpha |<alpha, x>|^{2 k_alpha} with <alpha,alpha> = 2, per row of points."""
        import numpy as np

        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[None, :]
        out = np.ones(len(pts))
        for ridx, (v, k) in enumerate(zip(self.roots, self.mults)):
            if not k:
                continue
            varr = np.array([float(x) for x in v])
            scale = 2.0 / float(self.norm2(ridx))
            ip = pts @ varr
            out *= (scale * ip ** 2) ** float(k)
        return out

    def to_config(self) -> dict:
        """The {family, m, k} config that :func:`from_config` reads back."""
        ks = [str(k) for k in self.mults]
        if self.name == "symmetric":
            ks = ks[0] if ks else "0"
        elif self.name == "hyperoctahedral":
            ks = [ks[0], ks[-1]]
        return {"family": self.name, "m": self.m, "k": ks}


def z2_power(m: int, ks) -> ReflectionSetup:
    """Z_2^m: sign flips of the coordinates, one multiplicity per axis."""
    if isinstance(ks, (int, str, Fraction)):
        ks = [ks] * m
    if len(ks) != m:
        raise ValueError("need one multiplicity per coordinate")
    roots = []
    for i in range(m):
        v = [Fraction(0)] * m
        v[i] = Fraction(1)
        roots.append(tuple(v))
    return ReflectionSetup("z2^m", m, tuple(roots), tuple(Fraction(k) for k in ks))


def symmetric(m: int, k) -> ReflectionSetup:
    """S_m acting on R^m by coordinate permutations (type A_{m-1} roots)."""
    roots = []
    for i in range(m):
        for j in range(i + 1, m):
            v = [Fraction(0)] * m
            v[i], v[j] = Fraction(1), Fraction(-1)
            roots.append(tuple(v))
    return ReflectionSetup("symmetric", m, tuple(roots), tuple([Fraction(k)] * len(roots)))


def hyperoctahedral(m: int, k_short, k_long) -> ReflectionSetup:
    """B_m: sign flips (short roots e_i) and signed transpositions (long e_i +- e_j)."""
    roots, mults = [], []
    for i in range(m):
        v = [Fraction(0)] * m
        v[i] = Fraction(1)
        roots.append(tuple(v))
        mults.append(Fraction(k_short))
    for i in range(m):
        for j in range(i + 1, m):
            for sgn in (1, -1):
                v = [Fraction(0)] * m
                v[i], v[j] = Fraction(1), Fraction(sgn)
                roots.append(tuple(v))
                mults.append(Fraction(k_long))
    return ReflectionSetup("hyperoctahedral", m, tuple(roots), tuple(mults))


def dihedral(n: int, k1, k2=None) -> ReflectionSetup:
    """I_2(n) in the plane, for the n with rational root coordinates.

    Only n = 1 (one mirror, built as z2^2 with multiplicity 0 on the second
    axis), n = 2 (two perpendicular mirrors) and n = 4 (the square's
    symmetry group) have rational roots in an orthogonal embedding; other n
    need surds, which the exact layer does not represent.
    """
    if n < 1:
        raise ValueError(f"I2({n}) needs n >= 1")
    if n == 1:
        if k2 is not None:
            raise ValueError("I2(1) has one mirror class; give one multiplicity")
        return z2_power(2, [k1, 0])
    if n == 2:
        return z2_power(2, [k1, k1 if k2 is None else k2])
    if n == 4:
        return hyperoctahedral(2, k1, k1 if k2 is None else k2)
    raise ValueError(f"I2({n}) has irrational root coordinates; only n in {{1, 2, 4}} supported")


_ALIASES = {"z2^m": "z2", "z2m": "z2", "a": "symmetric", "b": "hyperoctahedral",
            "i2": "dihedral"}


def _exact(name: str, val) -> Fraction:
    """val as a Fraction.  A float is refused, as an approximation, and so
    is a bool, which Fraction would read as 0 or 1."""
    if isinstance(val, (float, bool)):
        raise ValueError(f"{name} = {val!r} is a {type(val).__name__}, not an exact rational")
    try:
        return Fraction(val)
    except (TypeError, ValueError, ZeroDivisionError):
        raise ValueError(f"{name} = {val!r} is not a rational") from None


def from_config(cfg: dict) -> ReflectionSetup:
    """The setup of a ``{family, m, k}`` config, the one reader of setups.

    ``family`` is z2 (also z2^m), symmetric, hyperoctahedral or dihedral;
    ``m`` is the rank, and for dihedral the order n of I2(n).  ``k`` is one
    rational or a list of them: symmetric takes 1, hyperoctahedral 2
    (k_short, k_long), dihedral 1 or 2, and z2 1 (for every axis) or m.
    Values are exact: ints, Fractions or strings such as "1/3".  Raises
    ValueError for a float or bool value, a non-integer m and any other
    count.
    """
    fam = str(cfg["family"]).lower()
    fam = _ALIASES.get(fam, fam)
    m = _exact("m", cfg["m"])
    if m.denominator != 1:
        raise ValueError(f"m = {cfg['m']!r} is not an integer")
    m = int(m)
    ks = [_exact("k", k) for k in (cfg["k"] if isinstance(cfg["k"], list) else [cfg["k"]])]
    counts = {"z2": {1, m}, "symmetric": {1}, "hyperoctahedral": {2}, "dihedral": {1, 2}}
    if fam not in counts:
        raise ValueError(f"unknown family {cfg['family']!r}")
    if len(ks) not in counts[fam]:
        raise ValueError(f"wrong number of multiplicities ({len(ks)}); {fam} takes "
                         f"{' or '.join(map(str, sorted(counts[fam])))}")
    if fam == "z2":
        return z2_power(m, ks * m if len(ks) == 1 else ks)
    if fam == "symmetric":
        return symmetric(m, *ks)
    if fam == "hyperoctahedral":
        return hyperoctahedral(m, *ks)
    return dihedral(m, *ks)


@lru_cache(maxsize=None)
def reflect_monomial(setup: ReflectionSetup, ridx: int, mono: tuple):
    """x^mono composed with reflection ``ridx``, as one pair (mono2, sign).

    The reflection maps e_j to signs[j] e_perm[j] (a signed permutation,
    enforced when the setup is built), so x^mono o r = sign * x^mono2 with
    mono2[j] = mono[perm[j]] and sign the product of signs[j]^mono2[j].
    """
    perm, signs = setup.perms[ridx]
    mono2 = tuple(mono[p] for p in perm)
    odd = sum(e for e, sg in zip(mono2, signs) if sg < 0) % 2
    return mono2, -1 if odd else 1
