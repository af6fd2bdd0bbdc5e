"""Special-function kernel: gamma family, Meijer G, Fox H, bivariate Fox H.

All G/H evaluations use the same method: a truncated Mellin-Barnes integral
along a vertical line, summed by the trapezoid rule and refined by one loop
(`_refine`, shared by the univariate and the bivariate evaluator).  The loop
fixes the half-length once, where the integrand has fallen below 1e-17 of
its peak, on a first line as long as the spec's decay rate says it
needs (`_start_length`), then starts at node spacing 0.2 and halves it;
each level keeps the nodes it already holds, evaluates the integrand only
at its new odd nodes, and the difference of two levels is the error check
(`_settled`, against the one tolerance `_REL_TOL`); past the one per-axis
node budget `_MAX_NODES` it raises ConvergenceError.  A univariate line is
one `LineEvaluator`: `fox_h` and `meijer_g` return its value at the
argument it converged at, and its frozen last level serves other
arguments.  For a real spec at a real argument the integrand is
conjugate-symmetric, Phi(c - iy) z^(c-iy) = conj[Phi(c + iy) z^(c+iy)],
so a univariate line holds only its nodes y >= 0 (a half line) and sums
them in real arithmetic: the y = 0 node once, every other node twice its
real part.
The refinement sums each level directly; the frozen line sums the same
terms in blocks (see `LineEvaluator`).  The symmetry it rests on is
checked once per line, on the mirrored nodes of the coarsest level, which
the line evaluates in the same call as its own (`_Line`, `_asymmetry`); an
asymmetric integrand raises ConvergenceError.  The convention is

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
arguments far from 1.  On the real axis log |Phi| is a sum of real log
gammas, so the scan reads each spec's `_log_abs_phi` (gammaln), not the
complex loggamma of the line.

The bivariate evaluator integrates over a product of two vertical lines.  Its
joint gamma factors depend on the contour point only through A1*t1 + A2*t2, so
the trapezoid nodes sit on a lattice with spacings h/A1 and h/A2: every node
then maps onto one line of joint values, and the double sum is a single
convolution of the two kernel lines weighted by that line (`_lattice_sum`),
taken by FFT, whose rounding bound joins the l1 the stop test reads.
Halving the spacing halves both axis spacings, so the lattice nests too.
Each of its two abscissas comes from the same rule, with the joint factors
in the magnitude and the strip clipped to positive joint arguments.  Both
kernels must decay along their own lines (BivariateFoxHSpec rejects any
other), so each axis's half-length comes from its kernel line alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, gammaincc, gammaln, loggamma
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
# nodes of the one before and evaluates only its new odd nodes.  A line
# starts at the half-length where its spec's decay bound falls below
# e^_LOG_START of its peak (`_start_length`), never below _HALF0; it ends
# past the last node within e^_LOG_TAIL of its peak (`_Line.span`).
_H0 = 0.2
_HALF0 = 8.0
_LOG_TAIL = np.log(1e-17)
_LOG_START = np.log(1e-19)
# nodes of a new line at spacing _H0 over half-length _HALF0
_START_NODES = 2 * int(np.ceil(_HALF0 / _H0 - 1e-9)) + 1


# The one per-axis node budget of every refinement loop (`_refine`, which
# looks it up at each call): past it the loop raises ConvergenceError, once
# it holds two estimates.  Every line starts at _START_NODES (81) nodes or
# more (`_start_length`); on a bivariate lattice with A1 != A2 the finer
# axis starts at about max(A1, A2)/min(A1, A2) times as many.
_MAX_NODES = 2 ** 16


def _start_length(rate, h=_H0):
    """The half-length a new line first covers, for a spec whose integrand
    decays as exp(-rate*pi/2*|y|): the least multiple of _H0 where that
    bound alone is below 1e-19 of its peak, two decades past the span
    rule's 1e-17 to leave room for the algebraic factors.  Never below
    _HALF0 (nor for rate <= 0 above it), and never past the half-length
    where a line of spacing h, the finest axis, would exceed _MAX_NODES."""
    if not rate > 0:
        return _HALF0
    decay = _H0 * np.ceil(-2.0 * _LOG_START / (np.pi * rate) / _H0 - 1e-9)
    return float(max(_HALF0, min(decay, h * ((_MAX_NODES - 1) // 2))))


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
    return bool((np.abs(value - prev) <= tol).all())


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
        return self._log(np.asarray(t, dtype=complex), loggamma)

    def _log_abs_phi(self, x):
        """log |Phi(x)| = Re log Phi(x) at real x, in real arithmetic."""
        return self._log(np.asarray(x, dtype=float), gammaln)

    def _log(self, t, lg):
        out = np.zeros_like(t)
        for b, B in self.lower[: self.m]:
            out += lg(b - B * t)
        for a, A in self.upper[: self.n]:
            out += lg(1.0 - a + A * t)
        for b, B in self.lower[self.m:]:
            out -= lg(1.0 - b + B * t)
        for a, A in self.upper[self.n:]:
            out -= lg(a - A * t)
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

    Each kernel must decay by itself (decay_rate() > 0), or the spec raises
    ParameterError: each axis's half-length then comes from its kernel line
    alone, since the joint factors peak at Y = 0 and that bound holds for
    every point of the other axis.  A kernel that decays only slowly still
    sets a long line, which may run past _MAX_NODES.
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
        for kernel in (self.kernel1, self.kernel2):
            if kernel.decay_rate() <= 0:
                raise ParameterError(
                    "each kernel must decay along its own line, got decay "
                    f"rate {kernel.decay_rate()}")

    def log_joint(self, t):
        """Log of the joint factors at t = A1*t1 + A2*t2."""
        return self._log_joint(np.asarray(t, dtype=complex), loggamma)

    def _log_abs_joint(self, x):
        """Log of the joint factors' magnitude at real x, in real
        arithmetic."""
        return self._log_joint(np.asarray(x, dtype=float), gammaln)

    def _log_joint(self, t, lg):
        out = np.zeros_like(t)
        for a, _, _ in self.joint:
            out += lg(1.0 - a + t)
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
    """log Phi at the nodes t = c + i*h*k of one vertical line: |k| <= K,
    or only k = 0...K on a half line.

    cover() sets K and halve() halves h; both evaluate log Phi only at the
    nodes the line does not hold yet, in one call.  A new line covers
    half-length `length` (`_start_length`).  A univariate line is a half
    line: for a real spec at a real argument, Phi(c - iy) = conj Phi(c + iy),
    so the k < 0 half repeats the other.  A half line also holds that
    half at its coarsest spacing, the mirror `_asymmetry` checks the
    symmetry on: mirror[j - 1] is log Phi at k = -j*2^level for
    j = 1...K/2^level, evaluated in the same call as the held nodes of the
    same extent, when the line is made and whenever cover() extends it.
    The bivariate axes and joint line hold both halves, which their
    convolution needs (`_lattice_sum`).
    """

    def __init__(self, log_phi, c, h, length, half=False):
        self.log_phi, self.c, self.h, self.half = log_phi, c, h, half
        self.level = 0
        self.K = K = int(np.ceil(length / h - 1e-9))
        vals = self._eval(np.arange(-K, K + 1))
        self.vals = vals[K:] if half else vals
        self.mirror = vals[:K][::-1] if half else vals[:0]

    def _eval(self, k):
        with np.errstate(all="ignore"):
            return self.log_phi(self.c + 1j * self.h * k)

    @property
    def k(self):
        return np.arange(0 if self.half else -self.K, self.K + 1)

    @property
    def nodes(self):
        """Nodes of the whole line, 2K + 1: a half line holds K + 1 of them
        and its sum stands for all, so the node budget means the same line
        on both kinds."""
        return 2 * self.K + 1

    @property
    def t(self):
        return self.c + 1j * self.h * self.k

    def cover(self, K):
        coarse = 2 ** self.level
        if K < self.K:
            self.vals = (self.vals[:K + 1] if self.half
                         else self.vals[self.K - K:self.K + K + 1])
            self.mirror = self.mirror[:K // coarse]
        elif K > self.K:
            k = np.arange(self.K + 1, K + 1)
            if self.half:
                back = coarse * np.arange(self.K // coarse + 1,
                                          K // coarse + 1)
                new = self._eval(np.concatenate([k, -back]))
                self.vals = np.concatenate([self.vals, new[:len(k)]])
                self.mirror = np.concatenate([self.mirror, new[len(k):]])
            else:
                new = self._eval(np.concatenate([-k[::-1], k]))
                self.vals = np.concatenate([new[:len(k)], self.vals,
                                            new[len(k):]])
        self.K = K

    def halve(self):
        self.h /= 2.0
        self.level += 1
        vals = np.empty(2 * len(self.vals) - 1, dtype=complex)
        vals[0::2] = self.vals
        vals[1::2] = self._eval(np.arange(1 if self.half else -2 * self.K + 1,
                                          2 * self.K, 2))
        self.vals, self.K = vals, 2 * self.K

    def span(self):
        """Half-length to the first node past the outermost one within
        1e-17 of the peak magnitude, or None while an end is above that."""
        mag = np.where(np.isfinite(self.vals), self.vals.real, -np.inf)
        k = self.k[mag >= mag.max() + _LOG_TAIL]
        if k[0] == -self.K or k[-1] == self.K:
            return None
        return self.h * (max(-k[0], k[-1]) + 1)


def _over_budget(axes, estimates):
    raise ConvergenceError(
        "Mellin-Barnes refinement exceeded the per-axis node budget "
        f"({_MAX_NODES}); last estimates {list(estimates)}",
        estimates=estimates,
        diagnostics={"half_lengths": tuple(ln.h * ln.K for ln in axes),
                     "nodes": tuple(ln.nodes for ln in axes)},
    )


def _refine(axes, total):
    """The Mellin-Barnes refinement loop of every evaluator.

    axes holds the new _Line of each contour axis, at its coarsest spacing,
    covering the half-length it was made with (`_start_length`); total()
    returns (integral, l1) of the trapezoid rule over the lines as they
    stand.  First every line doubles its extent until the ends of each are
    below 1e-17 of its peak (`_Line.span`); then one half-length, a
    multiple of _H0, is fixed for every axis: the widest axis's span.  The
    span depends only on the nodes covered when the doubling stops, so a
    start sized by the decay rate, which mostly makes the first cover the
    last, fixes the same line as a start at _HALF0 wherever no node
    between the two stopping half-lengths is within 1e-17 of the peak: so
    where |Phi| falls monotonically past _HALF0.  Then every spacing
    halves until two levels pass `_settled`.  Returns
    (estimates, error, l1), where
    estimates holds the last two values (the second is the result); raises
    ConvergenceError with the last two estimates, the half-lengths and the
    per-axis node counts once an unconverged line covers more than
    _MAX_NODES (`_Line.nodes`).
    """
    prev = None
    while True:
        spans = [ln.span() for ln in axes]
        if None not in spans:
            break
        value = total()[0]
        if prev is not None and max(ln.nodes for ln in axes) > _MAX_NODES:
            _over_budget(axes, (prev, value))
        prev = value
        for ln in axes:
            ln.cover(2 * ln.K)
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
        if max(ln.nodes for ln in axes) > _MAX_NODES:
            _over_budget(axes, (prev, value))
        prev = value


def _asymmetry(line, lz):
    """How far a half line's integrand is from conjugate symmetry at
    ln z = lz: (H/2pi) * sum_k |f(c - iHk) - conj f(c + iHk)| over the
    nodes k = 0...K_0 of the coarsest level, spacing H = h*2^level, with
    f = Phi(t)*z^t and the nodes of non-finite log Phi dropped.  The k < 0
    nodes are the line's mirror, evaluated with the coarse level; k = 0 is
    its own mirror, so it counts twice its imaginary part.  It measures
    what the half line's sum would miss; it is exactly 0.0 where every
    mirrored log Phi is the exact conjugate of the held one, as on every
    figure kernel, since loggamma(conj t) = conj loggamma(t) to the bit
    there."""
    step = 2 ** line.level
    held = line.vals[::step]
    mirror = np.concatenate([held[:1], line.mirror])
    t = line.c + 1j * line.h * np.arange(0, line.K + 1, step)
    with np.errstate(all="ignore"):
        f = np.where(np.isfinite(held), np.exp(held + t * lz), 0.0)
        g = np.where(np.isfinite(mirror), np.exp(mirror + np.conj(t) * lz),
                     0.0)
    return float(np.abs(g - np.conj(f)).sum() * line.h * step / (2.0 * np.pi))


def _half_terms(line):
    """(k, top, amp, phase) of the finite nodes k of a half line as it
    stands: top is the largest Re log Phi_k, amp_k = w_k e^(Re log Phi_k
    - top) with w_0 = 1 and w_k = 2, and phase_k = Im log Phi_k.  A node
    with non-finite log Phi is dropped."""
    keep = np.isfinite(line.vals)
    lg = line.vals[keep]
    k = np.arange(line.K + 1)[keep]
    top = lg.real.max(initial=-np.inf)
    return k, top, np.where(k == 0, 1.0, 2.0) * np.exp(lg.real - top), lg.imag


def _half_sum(line, lz):
    """(value, l1) of the trapezoid rule over the half line as it stands,
    at ln z = lz, in real arithmetic over its terms (`_half_terms`):

        (h/2pi) * e^(top + c lz) * sum_k amp_k cos(phase_k + h k lz),

    and l1 the same with cos replaced by 1."""
    k, top, amp, phase = _half_terms(line)
    scale = line.h / (2.0 * np.pi) * np.exp(top + line.c * lz)
    return (scale * (amp * np.cos(phase + line.h * k * lz)).sum(),
            scale * amp.sum())


class LineEvaluator:
    """The converged Mellin-Barnes line of one G/H spec.

    The constructor checks z_ref, picks the abscissa and refines one half
    line at z_ref (`_refine`, each level summed by `_half_sum`).  The last
    level is then frozen, once, and value is the frozen sum at z_ref, so
    value, fox_h and a call at z_ref agree to the bit; error is the
    refinement's bound (`_finalize`, whose 1e-14 l1 floor covers the
    frozen sum's rounding against `_half_sum`), after the
    conjugate-symmetry check (`_asymmetry`).  eval_many evaluates other
    arguments from the frozen level in one vectorised pass: that serves
    quadrature fallbacks and CDF grids where thousands of evaluations of
    the same kernel are needed.  Accuracy at arguments far from z_ref is
    that of the frozen grid, which covers |k| <= K at spacing h.

    The frozen sum is `_half_sum`'s, blocked.  With the coefficients
    c_k = amp_k e^(i phase_k) (`_half_terms`; 0 at a node whose log Phi
    is not finite), omega = e^(i h ln z), b = ceil(sqrt(K + 1)) and
    k = q b + r, it is

        (h/2pi) e^(top + c ln z) Re sum_q omega^(b q) sum_r c_(q b + r) omega^r:

    one complex matrix product and b + Q exponentials per argument,
    instead of K + 1 cosines.  The product is taken one argument at a
    time, so an argument's value does not depend on the others it comes
    with.

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
        lz = np.log(np.array([z_ref]))
        c = _abscissa(lambda cs: spec._log_abs_phi(cs) + cs * lz[0],
                      *spec.pole_interval())
        line = _Line(spec.log_phi, c, _H0, _start_length(spec.decay_rate()),
                     half=True)
        estimates, err, l1 = _refine([line], lambda: _half_sum(line, lz[0]))
        self._freeze(line)
        self.value, self.error = _finalize(
            (estimates[0], self._sum(lz)[0]), err, l1,
            _asymmetry(line, lz[0]))
        self.K = line.K

    def _freeze(self, line):
        """Hold the coefficients c_k of line as it stands, for `_sum`, as a
        Q x b matrix (zero past k = K)."""
        k, self._top, amp, phase = _half_terms(line)
        self.c, self.h = line.c, line.h
        b = int(np.ceil(np.sqrt(line.K + 1)))
        coef = np.zeros(b * -(-(line.K + 1) // b), dtype=complex)
        coef[k] = amp * np.exp(1j * phase)
        self._coef = coef.reshape(-1, b)

    def _sum(self, lz):
        """Value of the frozen half line at each ln z of the 1-D lz."""
        Q, b = self._coef.shape
        hl = self.h * lz[:, None]
        inner = (np.exp(1j * (hl * np.arange(b)))[:, None, :]
                 @ self._coef.T)[:, 0]
        outer = np.exp(1j * (b * hl * np.arange(Q)))
        scale = self.h / (2.0 * np.pi) * np.exp(self._top + self.c * lz)
        return scale * (outer * inner).sum(axis=1).real

    def eval_many(self, zs):
        zs = np.asarray(zs, dtype=float)
        if not np.all(np.isfinite(zs) & (zs > 0)):
            raise ParameterError("arguments must be finite positive reals")
        flat = zs.reshape(-1)
        out = np.empty(len(flat))
        # at most 2^20 complex entries in each of the two exponential blocks
        chunk = max(1, (1 << 20) // max(self._coef.shape))
        for i in range(0, len(flat), chunk):
            out[i:i + chunk] = self._sum(np.log(flat[i:i + chunk]))
        out = out.reshape(zs.shape)
        return out if out.ndim else float(out)

    def __call__(self, z):
        return float(self.eval_many(np.array([float(z)]))[0])


def _finalize(estimates, err, l1, residue):
    """(value, error) of a converged real-by-construction integral.  residue
    is what breaks its realness (an imaginary part, or an asymmetry), held
    against max(_REL_TOL*|value|, 1e-13*l1)."""
    value = estimates[-1]
    noise = 1e-14 * l1
    budget = max(_REL_TOL * abs(value.real), 10.0 * noise)
    if not residue <= budget:
        raise ConvergenceError(
            f"residue {residue:.3e} exceeds budget {budget:.3e} "
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
    are multiplied back.  Both convolutions, a * b and |a| * |b|, are
    taken by FFT at m, the power of two at or above len(J), whose rounding
    of the sum is at most about eps log2(m) |J|_2 |a|_2 |b|_2: that bound is
    added to the l1 returned, so the l1 floors of `_settled` and
    `_finalize` cover it.  Returns (integral, l1).
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
    m = 1 << (len(j) - 1).bit_length()
    conv, conv_abs = (np.fft.ifft(np.fft.fft(x, m) * np.fft.fft(y, m))[:len(j)]
                      for x, y in ((a, b), (np.abs(a), np.abs(b))))
    rounding = (np.finfo(float).eps * np.log2(m) * np.linalg.norm(j)
                * np.linalg.norm(a) * np.linalg.norm(b))
    scale = np.exp(log_scale) * line1.h * line2.h / (2.0 * np.pi) ** 2
    return (np.dot(j, conv) * scale,
            (np.dot(np.abs(j), conv_abs.real) + rounding) * scale)


def _bivar_abscissas(spec, z1, z2):
    """The product-contour abscissas (c1, c2), chosen as BivariateFoxHSpec
    describes."""
    A1, A2 = spec.joint[0][1:] if spec.joint else (1.0, 1.0)
    t_min = max((a - 1.0 for a, _, _ in spec.joint), default=-np.inf)

    def pick(kernel, z, A, rest):
        # rest: the other axis's share of A1*c1 + A2*c2
        lo, hi = kernel.pole_interval()
        return _abscissa(
            lambda cs: (kernel._log_abs_phi(cs) + cs * np.log(z)
                        + spec._log_abs_joint(A * cs + rest)),
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
    z1, z2 = float(z1), float(z2)
    if not np.isfinite(z1) or z1 <= 0 or not np.isfinite(z2) or z2 <= 0:
        raise ParameterError("both arguments must be positive reals")
    c1, c2 = _bivar_abscissas(spec, z1, z2)
    A1, A2 = spec.joint[0][1:] if spec.joint else (1.0, 1.0)
    h = _H0 * min(A1, A2)
    length = _start_length(min(spec.kernel1.decay_rate(),
                               spec.kernel2.decay_rate()), h / max(A1, A2))
    axes = [_Line(spec.kernel1.log_phi, c1, h / A1, length),
            _Line(spec.kernel2.log_phi, c2, h / A2, length)]
    joint = _Line(spec.log_joint, A1 * c1 + A2 * c2, h, length)
    estimates, err, l1 = _refine(
        axes, lambda: _lattice_sum(z1, z2, *axes, joint))
    return _finalize(estimates, err, l1, abs(estimates[-1].imag))[0]
