"""Special-function kernel: gamma family, Meijer G, Fox H, bivariate Fox H.

All G/H evaluations use the same method: a truncated Mellin-Barnes integral
along a vertical line, trapezoidal quadrature, refined by one loop
(`_refine`, shared by the univariate and the bivariate evaluator) that
doubles the node count or widens the half-length until the value is
stable.  The convention is

    H(z) = (1/2*pi*i) * int_L Phi(t) z^t dt,
    Phi(t) = prod_{j<=m} Gamma(b_j - B_j t) * prod_{j<=n} Gamma(1 - a_j + A_j t)
           / [ prod_{j>m} Gamma(1 - b_j + B_j t) * prod_{j>n} Gamma(a_j - A_j t) ]

with L separating the poles of the m-group (right of L) from the poles of the
n-group (left of L).  The abscissa is chosen automatically near the point that
minimises the integrand magnitude, which keeps cancellation under control for
arguments far from 1.

The bivariate evaluator integrates over a product of two vertical lines.  Its
joint gamma factors depend on the contour point only through A1*t1 + A2*t2, so
the trapezoid nodes sit on a lattice with spacings h/A1 and h/A2: every node
then maps onto one line of joint values, and the double sum is a single
convolution of the two kernel lines weighted by that line (`_bivar_grid`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, gammaincc, loggamma
from scipy.special import gamma as _scipy_gamma

from .errors import ContourError, ConvergenceError, ParameterError

__all__ = [
    "ContourPolicy",
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
# specs and policy
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ContourPolicy:
    """Numerical policy for Mellin-Barnes evaluation.

    half_length is the starting contour half-length of the univariate
    evaluator; the refinement loop grows it and the node count until the
    value is stable to rel_tol.  Node counts are per axis; max_nodes and
    bivariate_max_nodes are the budgets past which refinement raises
    ConvergenceError.
    """

    half_length: float = 32.0
    node_count: int = 2049
    rel_tol: float = 1e-8
    max_nodes: int = 2 ** 16
    bivariate_node_count: int = 513
    bivariate_max_nodes: int = 2 ** 12 + 1

    def __post_init__(self):
        if self.node_count < 64:
            raise ParameterError("node_count must be >= 64")
        if not (0.0 < self.rel_tol < 1.0):
            raise ParameterError("rel_tol must be in (0, 1)")
        if self.half_length <= 0:
            raise ParameterError("half_length must be positive")
        if self.max_nodes < self.node_count:
            raise ParameterError("max_nodes must be >= node_count")
        if self.bivariate_max_nodes < self.bivariate_node_count:
            raise ParameterError(
                "bivariate_max_nodes must be >= bivariate_node_count")


DEFAULT_POLICY = ContourPolicy()


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
    node onto one line of joint values (see `_bivar_grid`).
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


# --------------------------------------------------------------------------
# line integration engine
# --------------------------------------------------------------------------

def _pick_abscissa(spec, z):
    lo, hi = spec.pole_interval()
    if lo >= hi:
        raise ContourError(
            f"pole families straddle every vertical line (interval [{lo}, {hi}] empty); "
            "the Mellin-Barnes representation is not valid for these parameters"
        )

    def magnitude(cs):
        with np.errstate(all="ignore"):
            m = spec.log_phi(cs.astype(complex)).real + cs * np.log(z)
        return np.where(np.isfinite(m), m, np.inf)

    # extend unbounded sides geometrically while the magnitude keeps falling
    # (saddle chasing keeps cancellation under control for extreme arguments)
    clo = lo if np.isfinite(lo) else min(hi, 0.0) - 60.0
    chi = hi if np.isfinite(hi) else max(lo, 0.0) + 60.0
    for _ in range(6):
        grew = False
        if not np.isfinite(lo) and clo > -4000.0:
            probe = np.array([clo, clo + 1.0])
            m = magnitude(probe)
            if m[0] < m[1]:
                clo *= 2.0
                grew = True
        if not np.isfinite(hi) and chi < 4000.0:
            probe = np.array([chi - 1.0, chi])
            m = magnitude(probe)
            if m[1] < m[0]:
                chi *= 2.0
                grew = True
        if not grew:
            break
    pad = 1e-3 * (chi - clo) + 1e-9
    cands = np.linspace(clo + pad, chi - pad, 257)
    mag = magnitude(cands)
    return float(cands[int(np.argmin(mag))])


def _trapz_line(spec, z, c, half_length, nodes):
    y = np.linspace(-half_length, half_length, nodes)
    t = c + 1j * y
    with np.errstate(all="ignore"):
        vals = np.exp(spec.log_phi(t) + t * np.log(z))
    vals = np.nan_to_num(vals, nan=0.0, posinf=0.0, neginf=0.0)
    integral = np.trapezoid(vals, y) / (2.0 * np.pi)
    l1 = np.trapezoid(np.abs(vals), y) / (2.0 * np.pi)
    return integral, l1, (nodes,)


def _refine(grid, halves, nodes, grow, max_nodes, rounds, policy):
    """The Mellin-Barnes refinement loop of every evaluator.

    grid(halves, nodes) returns (integral, l1, used) of the trapezoid rule
    with the given per-axis half-lengths and node counts, where used holds
    the per-axis node counts it summed (the bivariate lattice can use more
    than asked on its finer axis).  Each round compares the current grid
    with a node-doubled one (2n-1 nodes) and a wider one (half-lengths
    times `grow`) and refines whichever error dominates.  Returns
    (estimates, error, l1, halves, nodes), where estimates holds the last
    two values (the second is the result) and halves/nodes is the
    converged grid; raises ConvergenceError once a used per-axis node
    count exceeds max_nodes or `rounds` rounds pass.
    """
    v_prev, l1, used = grid(halves, nodes)
    for _ in range(rounds):
        dense = tuple(2 * n - 1 for n in nodes)
        v_nodes, l1, used_dense = grid(halves, dense)
        err_nodes = abs(v_nodes - v_prev)
        wide = tuple(h * grow for h in halves)
        grown = tuple(int(n * grow) | 1 for n in dense)
        v_tail, _, used_wide = grid(wide, grown)
        err_tail = abs(v_tail - v_nodes)
        estimates = (v_nodes, v_tail)
        budget = max(policy.rel_tol * abs(v_tail), 1e-15 * l1)
        if err_nodes <= budget and err_tail <= budget:
            return estimates, err_nodes + err_tail, l1, wide, grown
        if err_tail > err_nodes:
            halves, nodes, used = wide, grown, used_wide
        else:
            nodes, used = dense, used_dense
        v_prev = v_tail
        if max(used) > max_nodes:
            raise ConvergenceError(
                "Mellin-Barnes refinement exceeded the per-axis node budget "
                f"({max_nodes}); last estimates {list(estimates)}",
                estimates=estimates,
                diagnostics={"half_lengths": halves, "nodes": used},
            )
    raise ConvergenceError(
        f"Mellin-Barnes refinement stalled; last estimates {list(estimates)}",
        estimates=estimates,
        diagnostics={"half_lengths": halves, "nodes": used},
    )


def _converge_line(spec, z, policy):
    """Adaptive vertical-line integral.

    Returns (estimates, error, l1, contour) with contour = (c, half, nodes)
    at convergence so callers can reuse the grid for nearby arguments.
    """
    if not np.isfinite(z) or z <= 0:
        raise ParameterError(f"argument must be a positive real, got {z}")
    c = _pick_abscissa(spec, z)
    rate = max(spec.decay_rate(), 1e-2)
    half = max(policy.half_length, 30.0 / rate)
    estimates, err, l1, (half,), (nodes,) = _refine(
        lambda halves, nodes: _trapz_line(spec, z, c, halves[0], nodes[0]),
        (half,), (policy.node_count,), 1.5, policy.max_nodes, 24, policy)
    return estimates, err, l1, (c, half, nodes)


def _eval_line(spec, z, policy):
    estimates, err, l1, _ = _converge_line(spec, z, policy)
    return _finalize(estimates, err, l1, policy)


class LineEvaluator:
    """Fixed-contour evaluator for many arguments of one G/H spec.

    The contour is converged once at a reference argument and then reused,
    which drops the per-argument cost to one vectorised pass.  Intended for
    quadrature fallbacks and CDF grids where thousands of evaluations of the
    same kernel are needed; accuracy at arguments far from the reference is
    that of the frozen grid.

    The frozen grid is trimmed to the contiguous nodes where
    Re log Phi(c+iy) >= peak + ln 1e-17.  Since |z^(c+iy)| = z^c along the
    whole line, the dropped nodes are below 1e-17 of the largest one at
    every argument, not only at z_ref; the trapezoid rule converges
    geometrically, so most of a converged grid lies there.
    """

    def __init__(self, spec, z_ref, policy=None):
        if isinstance(spec, MeijerGSpec):
            spec = spec.as_fox_h()
        self.spec = spec
        self.policy = policy or DEFAULT_POLICY
        _, _, _, (c, half, nodes) = _converge_line(spec, z_ref, self.policy)
        self.c = c
        y = np.linspace(-half, half, nodes)
        with np.errstate(all="ignore"):
            log_phi = spec.log_phi(c + 1j * y)
        mag = np.where(np.isfinite(log_phi), log_phi.real, -np.inf)
        keep = np.flatnonzero(mag >= mag.max() + np.log(1e-17))
        part = slice(keep[0], keep[-1] + 1)
        self.y = y[part]
        self.log_phi = log_phi[part]
        self.t = c + 1j * self.y

    def eval_many(self, zs):
        zs = np.asarray(zs, dtype=float)
        if np.any(zs <= 0):
            raise ParameterError("arguments must be positive reals")
        out = np.empty(zs.shape)
        flat = zs.reshape(-1)
        res = np.empty(len(flat))
        chunk = max(1, (1 << 21) // len(self.t))
        for i in range(0, len(flat), chunk):
            lz = np.log(flat[i:i + chunk])
            with np.errstate(all="ignore"):
                mat = np.exp(self.log_phi[None, :] + self.t[None, :] * lz[:, None])
            mat = np.nan_to_num(mat, nan=0.0, posinf=0.0, neginf=0.0)
            res[i:i + chunk] = np.trapezoid(mat, self.y, axis=1).real / (2 * np.pi)
        out.reshape(-1)[:] = res
        return out if out.ndim else float(out)

    def __call__(self, z):
        return float(self.eval_many(np.array([float(z)]))[0])


def _finalize(estimates, err, l1, policy):
    value = estimates[-1]
    noise = 1e-14 * l1
    im_budget = max(policy.rel_tol * abs(value.real), 10.0 * noise)
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

def meijer_g(spec, z, policy=DEFAULT_POLICY):
    """Evaluate a Meijer G function at positive real z."""
    if isinstance(spec, MeijerGSpec):
        spec = spec.as_fox_h()
    value, _ = _eval_line(spec, float(z), policy)
    return value


def fox_h(spec, z, policy=DEFAULT_POLICY):
    """Evaluate a univariate Fox H function at positive real z."""
    value, _ = _eval_line(spec, float(z), policy)
    return value


def _bivar_grid(spec, z1, z2, c1, c2, half1, half2, n1, n2):
    """Product-contour trapezoid on a lattice, summed as one convolution.

    On the product contour the joint factors depend on (y1, y2) only
    through Y = A1*y1 + A2*y2.  The axes take the spacings h1 = h/A1 and
    h2 = h/A2 with h = min(A1*2*half1/(n1-1), A2*2*half2/(n2-1)), so each
    axis is at least as fine as asked, and the symmetric lattices
    y1 = i*h1, y2 = j*h2 with |i| <= ceil(half1/h1), |j| <= ceil(half2/h2)
    cover the half-lengths.  Then Y = (i+j)*h and the double sum is
    sum_k J_k (a * b)_k, with a and b the kernel1 and kernel2 lines and J
    the joint line on the |k| <= ceil(half1/h1) + ceil(half2/h2) lattice
    points: the joint gammas cost one line instead of a grid.  An empty joint group is J = 1 with the
    spacings 2*half/(n-1) of each axis.  Each line is exponentiated after
    subtracting its largest real part and the scales are multiplied back.
    Returns (integral, l1, nodes) with nodes the per-axis counts summed.
    """
    h1 = 2.0 * half1 / (n1 - 1)
    h2 = 2.0 * half2 / (n2 - 1)
    h = 0.0
    if spec.joint:
        _, A1, A2 = spec.joint[0]
        h = min(A1 * h1, A2 * h2)
        h1, h2 = h / A1, h / A2
    # a half-length that is a whole number of steps must not gain a node
    # by rounding
    k1 = int(np.ceil(half1 / h1 - 1e-9))
    k2 = int(np.ceil(half2 / h2 - 1e-9))
    t1 = c1 + 1j * h1 * np.arange(-k1, k1 + 1)
    t2 = c2 + 1j * h2 * np.arange(-k2, k2 + 1)
    big_y = h * np.arange(-(k1 + k2), k1 + k2 + 1)
    with np.errstate(all="ignore"):
        log_joint = np.zeros(len(big_y), dtype=complex)
        for a, A1, A2 in spec.joint:
            log_joint += loggamma(1.0 - a + A1 * c1 + A2 * c2 + 1j * big_y)
        logs = [spec.kernel1.log_phi(t1) + t1 * np.log(z1),
                spec.kernel2.log_phi(t2) + t2 * np.log(z2),
                log_joint]
        lines, log_scale = [], 0.0
        for lg in logs:
            top = np.max(np.where(np.isfinite(lg), lg.real, -np.inf))
            lines.append(np.nan_to_num(np.exp(lg - top),
                                       nan=0.0, posinf=0.0, neginf=0.0))
            log_scale += top
    a, b, joint = lines
    a[[0, -1]] *= 0.5
    b[[0, -1]] *= 0.5
    scale = np.exp(log_scale) * h1 * h2 / (2.0 * np.pi) ** 2
    val = np.dot(joint, np.convolve(a, b)) * scale
    l1abs = np.dot(np.abs(joint), np.convolve(np.abs(a), np.abs(b))) * scale
    return val, l1abs, (2 * k1 + 1, 2 * k2 + 1)


def _bivar_abscissas(spec, z1, z2):
    """Pick the product-contour abscissas, keeping the integrand magnitude
    small along the real axis including the joint gamma factor (which blows
    up near its pole and must be kept at a distance)."""

    def joint_mag(c1, c2s):
        out = np.zeros_like(np.asarray(c2s, dtype=float))
        for a, A1, A2 in spec.joint:
            arg = 1.0 - a + A1 * c1 + A2 * np.asarray(c2s, dtype=float)
            with np.errstate(all="ignore"):
                out = out + np.where(arg > 0,
                                     loggamma(np.maximum(arg, 1e-12)).real,
                                     np.inf)
        return out

    lo2, hi2 = spec.kernel2.pole_interval()
    if lo2 >= hi2:
        raise ContourError("kernel2 pole families straddle every vertical line")
    lo2 = lo2 if np.isfinite(lo2) else min(hi2, 0.0) - 60.0
    hi2 = hi2 if np.isfinite(hi2) else max(lo2, 0.0) + 60.0
    pad2 = 1e-2 * (hi2 - lo2)
    c2s = np.linspace(lo2 + pad2, hi2 - pad2, 97)
    with np.errstate(all="ignore"):
        mag2 = spec.kernel2.log_phi(c2s.astype(complex)).real + c2s * np.log(z2)
    mag2 = np.where(np.isfinite(mag2), mag2, np.inf) + joint_mag(-0.5, c2s)
    c2 = float(c2s[int(np.argmin(mag2))])

    lo1, hi1 = spec.kernel1.pole_interval()
    for a, A1, A2 in spec.joint:
        if A1 > 0:
            lo1 = max(lo1, (a - 1.0 - A2 * c2) / A1)
    if lo1 >= hi1:
        raise ContourError(
            "no product contour clears the joint gamma poles for this spec")
    lo1 = lo1 if np.isfinite(lo1) else min(hi1, 0.0) - 60.0
    hi1 = hi1 if np.isfinite(hi1) else max(lo1, 0.0) + 60.0
    pad1 = 1e-2 * (hi1 - lo1)
    c1s = np.linspace(lo1 + pad1, hi1 - pad1, 97)
    with np.errstate(all="ignore"):
        mag1 = spec.kernel1.log_phi(c1s.astype(complex)).real + c1s * np.log(z1)
    mag1 = np.where(np.isfinite(mag1), mag1, np.inf)
    mag1 = mag1 + np.array([joint_mag(c, [c2])[0] for c in c1s])
    c1 = float(c1s[int(np.argmin(mag1))])
    return c1, c2


def fox_h_bivariate(spec, z1, z2, policy=DEFAULT_POLICY):
    """Evaluate the bivariate Fox H (EGBFHF) at positive real (z1, z2)."""
    z1 = float(z1)
    z2 = float(z2)
    if not np.isfinite(z1) or z1 <= 0 or not np.isfinite(z2) or z2 <= 0:
        raise ParameterError("both arguments must be positive reals")
    c1, c2 = _bivar_abscissas(spec, z1, z2)
    for a, A1, A2 in spec.joint:
        if 1.0 - a + A1 * c1 + A2 * c2 <= 0:
            raise ContourError(
                "no product contour clears the joint gamma poles for this spec"
            )
    rate1 = max(spec.kernel1.decay_rate() + sum(A1 for _, A1, _ in spec.joint), 1e-2)
    rate2 = max(spec.kernel2.decay_rate() + sum(A2 for _, _, A2 in spec.joint), 1e-2)
    half1 = max(24.0, 30.0 / rate1)
    half2 = max(24.0, 30.0 / rate2)
    n = policy.bivariate_node_count
    estimates, err, l1, _, _ = _refine(
        lambda halves, nodes: _bivar_grid(spec, z1, z2, c1, c2, *halves, *nodes),
        (half1, half2), (n, n), 1.4, policy.bivariate_max_nodes, 10, policy)
    return _finalize(estimates, err, l1, policy)[0]
