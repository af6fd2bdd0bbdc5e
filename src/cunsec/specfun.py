"""Special-function kernel: gamma family, Meijer G, Fox H, bivariate Fox H.

All G/H evaluations use the same method: a truncated Mellin-Barnes integral
along a vertical line, summed by the trapezoid rule and refined by one loop
(`_refine`, shared by the univariate and the bivariate evaluator).  The loop
fixes the half-length once, where the integrand has fallen below 1e-17 of
its peak, then starts at node spacing 0.2 and halves it; each level keeps
the nodes it already holds, evaluates the integrand only at its new odd
nodes, and the difference of two levels is the error check (`_settled`,
against the one tolerance `_REL_TOL`).  A univariate
line is one `LineEvaluator`: `fox_h` and `meijer_g` return its value at
the argument it converged at, and its frozen last level serves other
arguments.  The convention is

    H(z) = (1/2*pi*i) * int_L Phi(t) z^t dt,
    Phi(t) = prod_{j<=m} Gamma(b_j - B_j t) * prod_{j<=n} Gamma(1 - a_j + A_j t)
           / [ prod_{j>m} Gamma(1 - b_j + B_j t) * prod_{j>n} Gamma(a_j - A_j t) ]

with L separating the poles of the m-group (right of L) from the poles of the
n-group (left of L).  Every abscissa, univariate or bivariate, comes from one
rule (`_abscissa`): take the strip between the pole families, extend each
unbounded side while the real-axis magnitude |Phi(c) z^c| keeps falling
outwards, pad each end by 1e-2 of the strip, and return the least-magnitude
point of 97 evenly spaced candidates; an empty strip raises ContourError.
Staying near the magnitude minimum keeps cancellation under control for
arguments far from 1.

The bivariate evaluator integrates over a product of two vertical lines.  Its
joint gamma factors depend on the contour point only through A1*t1 + A2*t2, so
the trapezoid nodes sit on a lattice with spacings h/A1 and h/A2: every node
then maps onto one line of joint values, and the double sum is a single
convolution of the two kernel lines weighted by that line (`_lattice_sum`).
Halving the spacing halves both axis spacings, so the lattice nests too.
Each of its two abscissas comes from the same rule, with the joint factors
in the magnitude and the strip clipped to positive joint arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, gammaincc, loggamma
from scipy.special import gamma as _scipy_gamma

from .errors import ContourError, ConvergenceError, ParameterError

__all__ = [
    "MeijerGSpec",
    "FoxHSpec",
    "BivariateFoxHSpec",
    "LineEvaluator",
    "gamma_fn",
    "lower_incomplete_gamma",
    "upper_incomplete_gamma",
    "meijer_g",
    "fox_h",
    "fox_h_bivariate",
]


# --------------------------------------------------------------------------
# elementary gamma family
# --------------------------------------------------------------------------

def gamma_fn(x):
    """Gamma function for x > 0."""
    if not np.isfinite(x) or x <= 0:
        raise ParameterError(f"gamma_fn requires x > 0, got {x}")
    return float(_scipy_gamma(x))


def lower_incomplete_gamma(a, x):
    """Unregularised lower incomplete gamma, int_0^x t^(a-1) e^-t dt."""
    if not np.isfinite(a) or a <= 0:
        raise ParameterError(f"lower_incomplete_gamma requires a > 0, got a={a}")
    if not np.isfinite(x) or x < 0:
        raise ParameterError(f"lower_incomplete_gamma requires x >= 0, got x={x}")
    return float(gammainc(a, x) * _scipy_gamma(a))


def upper_incomplete_gamma(a, x):
    """Unregularised upper incomplete gamma, int_x^inf t^(a-1) e^-t dt."""
    if not np.isfinite(a) or a <= 0:
        raise ParameterError(f"upper_incomplete_gamma requires a > 0, got a={a}")
    if not np.isfinite(x) or x < 0:
        raise ParameterError(f"upper_incomplete_gamma requires x >= 0, got x={x}")
    return float(gammaincc(a, x) * _scipy_gamma(a))


# --------------------------------------------------------------------------
# specs and the numerical constants
# --------------------------------------------------------------------------

# Nested trapezoid rule on the contour variable y of t = c + i*y (Trefethen &
# Weideman, SIAM Review 56(3), 2014): the half-length is fixed once on a
# line of spacing _H0 and then the spacing halves, so every level keeps the
# nodes of the one before and evaluates only its new odd nodes.
_H0 = 0.2
_HALF0 = 8.0
_LOG_TAIL = np.log(1e-17)
# nodes of a new line at spacing _H0 over half-length _HALF0
_START_NODES = 2 * int(np.ceil(_HALF0 / _H0 - 1e-9)) + 1


# Per-axis node budgets of the refinement loop (`_refine`): past them it
# raises ConvergenceError, once it holds two estimates.  Every line starts at
# _START_NODES (81) nodes; on a bivariate lattice with A1 != A2 the finer
# axis starts at about max(A1, A2)/min(A1, A2) times as many.
_MAX_NODES = 2 ** 16
_BIVARIATE_MAX_NODES = 2 ** 12 + 1


# The one relative tolerance of every contour and expectation: the contour
# refinement (`_refine`) and the tanh-sinh expectation (cun_cdf._expect)
# stop once two levels pass `_settled`, and the closed outage assemblies
# (secrecy._assemble) scale it into their error bound.  Every reader
# looks it up here at each call, so that one
# monkeypatch.setattr(specfun, "_REL_TOL", ...) reaches all of them.
_REL_TOL = 1e-8
_TINY = np.finfo(float).tiny


def _settled(value, prev, l1):
    """The one stop test of every refinement: two successive estimates agree
    within max(_REL_TOL*|value|, 1e-15*l1, _TINY), l1 being the integral of
    the integrand's magnitude at the same level.  The l1 floor certifies a
    value far below its integrand's scale to its leading digits, and the
    smallest normal float floors both, so a subnormal value still settles.
    Elementwise on arrays; true when every entry has settled."""
    tol = np.maximum(np.maximum(_REL_TOL * np.abs(value), 1e-15 * l1), _TINY)
    return bool(np.all(np.abs(value - prev) <= tol))


def _as_pairs(pairs, side):
    out = []
    for p in pairs:
        try:
            a, A = p
        except TypeError:
            a, A = p, 1.0
        A = float(A)
        if A <= 0:
            raise ParameterError(f"{side} coefficient must be > 0, got {A}")
        out.append((float(a), A))
    return tuple(out)


@dataclass(frozen=True)
class FoxHSpec:
    """H^{m,n}_{p,q}[z | (a_j,A_j); (b_j,B_j)] parameter block (argument kept
    separate so one spec can serve many arguments)."""

    m: int
    n: int
    upper: tuple  # p pairs (a_j, A_j); first n belong to the n-group
    lower: tuple  # q pairs (b_j, B_j); first m belong to the m-group

    def __post_init__(self):
        object.__setattr__(self, "upper", _as_pairs(self.upper, "upper"))
        object.__setattr__(self, "lower", _as_pairs(self.lower, "lower"))
        if not (0 <= self.n <= len(self.upper)):
            raise ParameterError("need 0 <= n <= p")
        if not (0 <= self.m <= len(self.lower)):
            raise ParameterError("need 0 <= m <= q")

    @property
    def p(self):
        return len(self.upper)

    @property
    def q(self):
        return len(self.lower)

    def pole_interval(self):
        """Open interval of abscissas separating the two pole families."""
        lo = max(((a - 1.0) / A for a, A in self.upper[: self.n]), default=-np.inf)
        hi = min((b / B for b, B in self.lower[: self.m]), default=np.inf)
        return lo, hi

    def decay_rate(self):
        """Coefficient of the exponential decay exp(-rate*pi/2*|y|)."""
        rate = sum(B for _, B in self.lower[: self.m])
        rate += sum(A for _, A in self.upper[: self.n])
        rate -= sum(B for _, B in self.lower[self.m:])
        rate -= sum(A for _, A in self.upper[self.n:])
        return rate

    def log_phi(self, t):
        t = np.asarray(t, dtype=complex)
        out = np.zeros_like(t)
        for b, B in self.lower[: self.m]:
            out = out + loggamma(b - B * t)
        for a, A in self.upper[: self.n]:
            out = out + loggamma(1.0 - a + A * t)
        for b, B in self.lower[self.m:]:
            out = out - loggamma(1.0 - b + B * t)
        for a, A in self.upper[self.n:]:
            out = out - loggamma(a - A * t)
        return out


@dataclass(frozen=True)
class MeijerGSpec:
    """G^{m,n}_{p,q}(z | a; b): the unit-coefficient special case of Fox H."""

    m: int
    n: int
    a: tuple
    b: tuple

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(float(x) for x in self.a))
        object.__setattr__(self, "b", tuple(float(x) for x in self.b))
        if self.m > len(self.b):
            raise ParameterError("need m <= q")
        if self.n > len(self.a):
            raise ParameterError("need n <= p")

    def as_fox_h(self):
        return FoxHSpec(
            m=self.m,
            n=self.n,
            upper=tuple((x, 1.0) for x in self.a),
            lower=tuple((x, 1.0) for x in self.b),
        )


@dataclass(frozen=True)
class BivariateFoxHSpec:
    """Extended generalised bivariate Fox H.

    joint holds triples (a, A1, A2) contributing Gamma(1 - a + A1*t1 + A2*t2)
    to the numerator of the double Mellin-Barnes integrand; kernel1/kernel2
    are the per-variable univariate blocks.  An empty joint group makes the
    function separable into the product of the two kernels.  The triples
    share one (A1, A2), both > 0: the joint factors then depend on the
    contour point only through A1*t1 + A2*t2, and the evaluator sums the
    product contour on a lattice whose spacings h/A1 and h/A2 map every
    node onto one line of joint values (see `_lattice_sum`).

    The abscissas follow the one rule (`_abscissa`): c2 with c1 held (at
    -0.5 unless that leaves c2 no room), then c1, each by its kernel's
    magnitude plus `log_joint`'s, over its kernel's strip clipped to
    positive joint arguments.

    Each axis's half-length comes from its kernel line alone when the
    kernel decays by itself (decay_rate() > 0): the joint factors peak at
    Y = 0, so that bound holds for every point of the other axis.  A kernel
    that does not decay by itself is trimmed by its product with the joint
    factors on the slice where the other axis is at y = 0.  A kernel that
    decays only slowly by itself still sets a long line, which may run past
    _BIVARIATE_MAX_NODES.
    """

    joint: tuple
    kernel1: FoxHSpec
    kernel2: FoxHSpec

    def __post_init__(self):
        trip = []
        for j in self.joint:
            a, A1, A2 = j
            if not (A1 > 0 and A2 > 0):
                raise ParameterError(
                    f"joint coefficients must be > 0, got ({A1}, {A2})")
            trip.append((float(a), float(A1), float(A2)))
        if len({(A1, A2) for _, A1, A2 in trip}) > 1:
            raise ParameterError("joint triples must share one (A1, A2)")
        object.__setattr__(self, "joint", tuple(trip))

    def log_joint(self, t):
        """Log of the joint factors at t = A1*t1 + A2*t2."""
        t = np.asarray(t, dtype=complex)
        out = np.zeros_like(t)
        for a, _, _ in self.joint:
            out = out + loggamma(1.0 - a + t)
        return out


# --------------------------------------------------------------------------
# line integration engine
# --------------------------------------------------------------------------

# The one abscissa rule (`_abscissa`): an unbounded side of the strip starts
# _SIDE0 from the origin and doubles up to _SIDE_DOUBLINGS times while the
# magnitude keeps falling outwards; _PAD of the strip is kept clear at each
# end and _SCAN evenly spaced candidates are scanned.
_SCAN = 97
_PAD = 1e-2
_SIDE0 = 60.0
_SIDE_DOUBLINGS = 6


def _abscissa(log_mag, lo, hi):
    """The candidate of the strip (lo, hi) where log_mag, the real-axis log
    magnitude of the integrand (a function of an array of abscissas), is
    least; non-finite magnitudes count as +inf.  Raises ContourError when
    the strip is empty."""
    if lo >= hi:
        raise ContourError(
            f"no vertical line clears the poles (strip [{lo}, {hi}] empty); "
            "the Mellin-Barnes representation is not valid for these parameters"
        )

    def magnitude(cs):
        with np.errstate(all="ignore"):
            m = log_mag(cs)
        return np.where(np.isfinite(m), m, np.inf)

    clo = lo if np.isfinite(lo) else min(hi, 0.0) - _SIDE0
    chi = hi if np.isfinite(hi) else max(lo, 0.0) + _SIDE0
    for _ in range(_SIDE_DOUBLINGS):
        grew = False
        if not np.isfinite(lo):
            m = magnitude(np.array([clo, clo + 1.0]))
            if m[0] < m[1]:
                clo, grew = 2.0 * clo, True
        if not np.isfinite(hi):
            m = magnitude(np.array([chi - 1.0, chi]))
            if m[1] < m[0]:
                chi, grew = 2.0 * chi, True
        if not grew:
            break
    pad = _PAD * (chi - clo)
    cands = np.linspace(clo + pad, chi - pad, _SCAN)
    return float(cands[int(np.argmin(magnitude(cands)))])


class _Line:
    """log Phi at the nodes t = c + i*h*k, |k| <= K, of one vertical line.

    cover() sets K and halve() halves h; both evaluate log Phi only at the
    nodes the line does not hold yet.  A new line covers half-length _HALF0.
    """

    def __init__(self, log_phi, c, h):
        self.log_phi, self.c, self.h, self.level = log_phi, c, h, 0
        self.tail = None
        self.K = int(np.ceil(_HALF0 / h - 1e-9))
        self.vals = self._eval(np.arange(-self.K, self.K + 1))

    def _eval(self, k):
        with np.errstate(all="ignore"):
            return self.log_phi(self.c + 1j * self.h * k)

    @property
    def nodes(self):
        return 2 * self.K + 1

    @property
    def t(self):
        return self.c + 1j * self.h * np.arange(-self.K, self.K + 1)

    def cover(self, K):
        if K < self.K:
            self.vals = self.vals[self.K - K:self.K + K + 1]
        elif K > self.K:
            k = np.arange(self.K + 1, K + 1)
            self.vals = np.concatenate([self._eval(-k[::-1]), self.vals,
                                        self._eval(k)])
        self.K = K

    def halve(self):
        self.h /= 2.0
        self.level += 1
        vals = np.empty(2 * self.nodes - 1, dtype=complex)
        vals[0::2] = self.vals
        vals[1::2] = self._eval(np.arange(-2 * self.K + 1, 2 * self.K, 2))
        self.vals, self.K = vals, 2 * self.K

    def span(self):
        """Half-length to the first node past the outermost one within
        1e-17 of the peak magnitude, or None while an end is above that.

        With a tail line set (same level, node k of both lines at the same
        Y), the magnitude tested is that of the product of the two lines.
        """
        vals = self.vals
        if self.tail is not None:
            self.tail.cover(max(self.tail.K, self.K))
            vals = vals + self.tail.vals[self.tail.K - self.K:
                                         self.tail.K + self.K + 1]
        mag = np.where(np.isfinite(vals), vals.real, -np.inf)
        keep = np.flatnonzero(mag >= mag.max() + _LOG_TAIL)
        if keep[0] == 0 or keep[-1] == len(mag) - 1:
            return None
        return self.h * (max(self.K - keep[0], keep[-1] - self.K) + 1)


def _over_budget(axes, estimates, max_nodes):
    raise ConvergenceError(
        "Mellin-Barnes refinement exceeded the per-axis node budget "
        f"({max_nodes}); last estimates {list(estimates)}",
        estimates=estimates,
        diagnostics={"half_lengths": tuple(ln.h * ln.K for ln in axes),
                     "nodes": tuple(ln.nodes for ln in axes)},
    )


def _refine(axes, total, max_nodes):
    """The Mellin-Barnes refinement loop of every evaluator.

    axes holds the _Line of each contour axis, the coarsest at spacing _H0;
    total() returns (integral, l1) of the trapezoid rule over the lines as
    they stand.  First one half-length, a multiple of _H0, is fixed for
    every axis: it doubles from _HALF0 until both ends of each line are
    below 1e-17 of its peak (`_Line.span`), then shrinks to the widest
    axis's span.  Then every spacing halves until two levels pass
    `_settled`.  Returns (estimates, error, l1), where
    estimates holds the last two values (the second is the result); raises
    ConvergenceError with the last two estimates, the half-lengths and the
    per-axis node counts once an unconverged line holds more than max_nodes.
    """
    half, prev = _HALF0, None
    while True:
        for ln in axes:
            ln.cover(int(np.ceil(half / ln.h - 1e-9)))
        spans = [ln.span() for ln in axes]
        if None not in spans:
            break
        value = total()[0]
        if prev is not None and max(ln.nodes for ln in axes) > max_nodes:
            _over_budget(axes, (prev, value), max_nodes)
        prev, half = value, 2.0 * half
    half = _H0 * np.ceil(max(spans) / _H0 - 1e-9)
    for ln in axes:
        ln.cover(int(np.ceil(half / ln.h - 1e-9)))
    prev = total()[0]
    while True:
        for ln in axes:
            ln.halve()
        value, l1 = total()
        if _settled(value, prev, l1):
            return (prev, value), abs(value - prev), l1
        if max(ln.nodes for ln in axes) > max_nodes:
            _over_budget(axes, (prev, value), max_nodes)
        prev = value


def _terms(log_phi, t, lz):
    """Trapezoid terms exp(log Phi + t*ln z) at the nodes t, with non-finite
    terms set to 0; lz broadcasts against t.  Callers weight the sum by
    h/(2*pi): weighting each term would round the sum differently."""
    with np.errstate(all="ignore"):
        vals = np.exp(log_phi + t * lz)
    return np.nan_to_num(vals, nan=0.0, posinf=0.0, neginf=0.0)


class LineEvaluator:
    """The converged Mellin-Barnes line of one G/H spec.

    The constructor checks z_ref, picks the abscissa and refines one line
    at z_ref (`_refine`); value and error are the result there and its
    bound, after the imaginary-residue check of `_finalize`.  The last level
    is kept frozen, so eval_many evaluates other arguments in one
    vectorised pass: that serves quadrature fallbacks and CDF grids where
    thousands of evaluations of the same kernel are needed.  Accuracy at
    arguments far from z_ref is that of the frozen grid.

    The line ends at the first node past the outermost one where
    Re log Phi(c+iy) >= peak + ln 1e-17 (`_refine`).  Since
    |z^(c+iy)| = z^c along the whole line, the nodes beyond are below
    1e-17 of the largest one at every argument, not only at z_ref.
    """

    def __init__(self, spec, z_ref):
        if isinstance(spec, MeijerGSpec):
            spec = spec.as_fox_h()
        z_ref = float(z_ref)
        if not np.isfinite(z_ref) or z_ref <= 0:
            raise ParameterError(
                f"argument must be a positive real, got {z_ref}")
        lz = np.log(z_ref)
        c = _abscissa(lambda cs: spec.log_phi(cs).real + cs * lz,
                      *spec.pole_interval())
        line = _Line(spec.log_phi, c, _H0)

        def total():
            terms = _terms(line.vals, line.t, lz)
            scale = line.h / (2.0 * np.pi)
            return terms.sum() * scale, np.abs(terms).sum() * scale

        estimates, err, l1 = _refine([line], total, _MAX_NODES)
        self.value, self.error = _finalize(estimates, err, l1)
        self.c, self.h = line.c, line.h
        self.log_phi = line.vals
        self.t = line.t

    def eval_many(self, zs):
        zs = np.asarray(zs, dtype=float)
        if not np.all(np.isfinite(zs) & (zs > 0)):
            raise ParameterError("arguments must be finite positive reals")
        flat = zs.reshape(-1)
        out = np.empty(len(flat))
        chunk = max(1, (1 << 21) // len(self.t))
        for i in range(0, len(flat), chunk):
            lz = np.log(flat[i:i + chunk])[:, None]
            out[i:i + chunk] = _terms(self.log_phi, self.t, lz).sum(
                axis=1).real * (self.h / (2.0 * np.pi))
        out = out.reshape(zs.shape)
        return out if out.ndim else float(out)

    def __call__(self, z):
        return float(self.eval_many(np.array([float(z)]))[0])


def _finalize(estimates, err, l1):
    value = estimates[-1]
    noise = 1e-14 * l1
    im_budget = max(_REL_TOL * abs(value.real), 10.0 * noise)
    if abs(value.imag) > im_budget:
        raise ConvergenceError(
            f"imaginary residue {value.imag:.3e} exceeds budget {im_budget:.3e} "
            "for a real-by-construction integral",
            estimates=estimates,
        )
    return float(value.real), float(max(err, noise))


# --------------------------------------------------------------------------
# public evaluators
# --------------------------------------------------------------------------

def fox_h(spec, z):
    """Evaluate a univariate Fox H (FoxHSpec) or Meijer G (MeijerGSpec) at
    positive real z: the value of its line converged at z."""
    return LineEvaluator(spec, z).value


meijer_g = fox_h


def _lattice_sum(z1, z2, line1, line2, joint):
    """Product-contour trapezoid on a lattice, summed as one convolution.

    On the product contour the joint factors depend on (y1, y2) only
    through Y = A1*y1 + A2*y2.  line1 and line2 hold the kernel factors at
    y1 = i*h/A1 and y2 = j*h/A2, so Y = (i+j)*h and the double sum is
    sum_k J_k (a * b)_k, with a and b the kernel1 and kernel2 terms and J
    the joint line at spacing h on |k| <= K1 + K2: the joint gammas cost
    one line instead of a grid.  The joint line is brought to the level of
    the kernel lines first, keeping the nodes it holds.  Each line is
    exponentiated after subtracting its largest real part and the scales
    are multiplied back.  Returns (integral, l1).
    """
    while joint.level < line1.level:
        joint.halve()
    joint.cover(line1.K + line2.K)
    logs = [line1.vals + line1.t * np.log(z1),
            line2.vals + line2.t * np.log(z2),
            joint.vals]
    lines, log_scale = [], 0.0
    with np.errstate(all="ignore"):
        for lg in logs:
            top = np.max(np.where(np.isfinite(lg), lg.real, -np.inf))
            lines.append(np.nan_to_num(np.exp(lg - top),
                                       nan=0.0, posinf=0.0, neginf=0.0))
            log_scale += top
    a, b, j = lines
    scale = np.exp(log_scale) * line1.h * line2.h / (2.0 * np.pi) ** 2
    val = np.dot(j, np.convolve(a, b)) * scale
    l1abs = np.dot(np.abs(j), np.convolve(np.abs(a), np.abs(b))) * scale
    return val, l1abs


def _bivar_abscissas(spec, z1, z2):
    """The product-contour abscissas (c1, c2), chosen as BivariateFoxHSpec
    describes."""
    A1, A2 = spec.joint[0][1:] if spec.joint else (1.0, 1.0)
    t_min = max((a - 1.0 for a, _, _ in spec.joint), default=-np.inf)

    def pick(kernel, z, A, rest):
        # rest: the other axis's share of A1*c1 + A2*c2
        lo, hi = kernel.pole_interval()
        return _abscissa(
            lambda cs: (kernel.log_phi(cs).real + cs * np.log(z)
                        + spec.log_joint(A * cs + rest).real),
            max(lo, (t_min - rest) / A), hi)

    # c1 is held at -0.5 while c2 is picked, unless c2's strip then leaves
    # no room for A1*c1 + A2*c2 > t_min; then it is held past the least c1
    # that does (by half the rest of its own strip, at most 1)
    need = (t_min - A2 * spec.kernel2.pole_interval()[1]) / A1
    if need < -0.5:
        c1 = -0.5
    else:
        lo1, hi1 = spec.kernel1.pole_interval()
        need = max(need, lo1)
        c1 = need + 0.5 * min(hi1 - need, 2.0)
    c2 = pick(spec.kernel2, z2, A2, A1 * c1)
    return pick(spec.kernel1, z1, A1, A2 * c2), c2


def fox_h_bivariate(spec, z1, z2):
    """Evaluate the bivariate Fox H (EGBFHF) at positive real (z1, z2) on
    the abscissas of two calls of the one abscissa rule (`_bivar_abscissas`),
    whose strips already clear the joint poles."""
    z1 = float(z1)
    z2 = float(z2)
    if not np.isfinite(z1) or z1 <= 0 or not np.isfinite(z2) or z2 <= 0:
        raise ParameterError("both arguments must be positive reals")
    c1, c2 = _bivar_abscissas(spec, z1, z2)
    A1, A2 = spec.joint[0][1:] if spec.joint else (1.0, 1.0)
    h = _H0 * min(A1, A2)
    axes = [_Line(spec.kernel1.log_phi, c1, h / A1),
            _Line(spec.kernel2.log_phi, c2, h / A2)]

    joint = _Line(spec.log_joint, A1 * c1 + A2 * c2, h)
    # a kernel that does not decay by itself is trimmed together with the
    # joint factors on its axis (the other axis at y = 0)
    for ln, kernel in zip(axes, (spec.kernel1, spec.kernel2)):
        if kernel.decay_rate() <= 0:
            ln.tail = joint
    estimates, err, l1 = _refine(
        axes, lambda: _lattice_sum(z1, z2, *axes, joint),
        _BIVARIATE_MAX_NODES)
    return _finalize(estimates, err, l1)[0]
