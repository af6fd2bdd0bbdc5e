import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.special import loggamma

from cunsec import specfun
from cunsec.channels import MalagaCdfEvaluator, _MalagaMixture, malaga_cdf
from cunsec.errors import ContourError, ConvergenceError, ParameterError
from cunsec.figures import FIGURES, figure_config
from cunsec.specfun import (
    BivariateFoxHSpec,
    FoxHSpec,
    LineEvaluator,
    MeijerGSpec,
    fox_h,
    fox_h_bivariate,
    gamma_fn,
    lower_incomplete_gamma,
    meijer_g,
    upper_incomplete_gamma,
    _H0,
    _HALF0,
    _Line,
    _asymmetry,
    _bivar_abscissas,
    _lattice_sum,
)

from conftest import paper_g_kernel


def _line_sum_ref(spec, z, c, h, K):
    """Trapezoid sum over y = h*k, |k| <= K, and its l1, evaluated directly."""
    t = c + 1j * h * np.arange(-K, K + 1)
    with np.errstate(all="ignore"):
        f = np.exp(spec.log_phi(t) + t * np.log(z))
    f = np.nan_to_num(f, nan=0.0, posinf=0.0, neginf=0.0)
    return f.sum() * h / (2 * np.pi), np.abs(f).sum() * h / (2 * np.pi)


class TestGammaFamily:
    def test_gamma_one(self):
        assert gamma_fn(1.0) == 1.0

    def test_gamma_half(self):
        assert_allclose(gamma_fn(0.5), math.sqrt(math.pi), rtol=1e-12)

    def test_gamma_generic_vs_highprec(self):
        # oracle: 30-digit evaluation
        with mp.workdps(30):
            ref = float(mp.gamma(4.2))
        assert_allclose(gamma_fn(4.2), ref, rtol=1e-12)

    def test_gamma_domain(self):
        with pytest.raises(ParameterError):
            gamma_fn(0.0)
        with pytest.raises(ParameterError):
            gamma_fn(-1.5)

    def test_lower_exponential_cdf(self):
        assert_allclose(lower_incomplete_gamma(1.0, 1.0), 1 - math.exp(-1),
                        rtol=1e-12)

    def test_lower_empty(self):
        assert lower_incomplete_gamma(2.0, 0.0) == 0.0

    def test_lower_vs_quadrature(self):
        a, x = 2.5, 1.3
        ref, _ = quad(lambda t: t ** (a - 1) * np.exp(-t), 0, x, epsabs=1e-14)
        assert_allclose(lower_incomplete_gamma(a, x), ref, rtol=1e-10)

    def test_upper_at_zero(self):
        assert_allclose(upper_incomplete_gamma(1.0, 0.0), 1.0, rtol=1e-12)

    def test_upper_vs_quadrature(self):
        a, x = 1.7, 2.4
        ref, _ = quad(lambda t: t ** (a - 1) * np.exp(-t), x, np.inf,
                      epsabs=1e-14)
        assert_allclose(upper_incomplete_gamma(a, x), ref, rtol=1e-10)

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            lower_incomplete_gamma(-1.0, 1.0)
        with pytest.raises(ParameterError):
            upper_incomplete_gamma(1.0, -0.1)

    @given(a=st.floats(0.05, 60.0), x=st.floats(0.0, 80.0))
    @settings(max_examples=200, deadline=None)
    def test_complementarity(self, a, x):
        total = lower_incomplete_gamma(a, x) + upper_incomplete_gamma(a, x)
        assert_allclose(total, gamma_fn(a), rtol=1e-12)


EXP_SPEC = MeijerGSpec(m=1, n=0, a=(), b=(0.0,))


class TestMeijerG:
    @pytest.mark.parametrize("x", [0.1, 1.0, 5.0, 20.0])
    def test_exponential_identity(self, x):
        assert_allclose(meijer_g(EXP_SPEC, x), math.exp(-x), rtol=1e-9)

    def test_incomplete_gamma_identity(self):
        spec = MeijerGSpec(m=1, n=1, a=(1.0,), b=(2.0, 0.0))
        assert_allclose(meijer_g(spec, 1.0), 1 - 2 * math.exp(-1), rtol=1e-10)

    def test_fso_cdf_kernel_vs_reference_contour(self, monkeypatch):
        # s=1, eps=1, alpha_o=2.296, m_o=1 mixture member of the optical CDF
        spec = MeijerGSpec(m=3, n=1, a=(1.0, 2.0), b=(1.0, 2.296, 1.0, 0.0))
        got = meijer_g(spec, 0.5)
        monkeypatch.setattr(specfun, "_REL_TOL", 1e-12)
        ref = meijer_g(spec, 0.5)
        assert_allclose(got, ref, rtol=1e-8)
        # and against an entirely independent implementation
        with mp.workdps(30):
            ext = float(mp.meijerg([[1.0], [2.0]], [[1.0, 2.296, 1.0], [0.0]],
                                   0.5))
        assert_allclose(got, ext, rtol=1e-9)

    def test_pdf_kernel_vs_mpmath(self):
        spec = MeijerGSpec(m=3, n=0, a=(2.0,), b=(1.0, 2.296, 2.0))
        for z in (0.1, 1.0, 4.0):
            with mp.workdps(30):
                ext = float(mp.meijerg([[], [2.0]], [[1.0, 2.296, 2.0], []], z))
            assert_allclose(meijer_g(spec, z), ext, rtol=1e-9)

    def test_contour_failure_is_loud(self):
        # n-pole family at t <= 1.5 overlaps m-pole family at t >= 0.5
        spec = MeijerGSpec(m=1, n=1, a=(2.5,), b=(0.5,))
        with pytest.raises(ContourError):
            meijer_g(spec, 1.0)

    def test_rejects_nonpositive_argument(self):
        with pytest.raises(ParameterError):
            meijer_g(EXP_SPEC, 0.0)
        with pytest.raises(ParameterError):
            meijer_g(EXP_SPEC, -2.0)

    def test_node_doubling_self_consistency(self, monkeypatch):
        spec = MeijerGSpec(m=3, n=1, a=(1.0, 2.0), b=(1.0, 2.296, 1.0, 0.0))
        rel_tol = specfun._REL_TOL
        v1 = meijer_g(spec, 2.0)
        monkeypatch.setattr(specfun, "_REL_TOL", 1e-12)
        v2 = meijer_g(spec, 2.0)
        assert abs(v1 - v2) <= rel_tol * abs(v1)

    def test_deterministic(self):
        spec = MeijerGSpec(m=3, n=1, a=(1.0, 2.0), b=(1.0, 2.296, 1.0, 0.0))
        assert meijer_g(spec, 3.7) == meijer_g(spec, 3.7)


class TestFoxH:
    def test_meijer_reduction_exponential(self):
        spec = FoxHSpec(m=1, n=0, upper=(), lower=((0.0, 1.0),))
        assert_allclose(fox_h(spec, 1.0), math.exp(-1), rtol=1e-10)

    def test_stretched_exponential(self):
        # H^{1,0}_{0,1}[z | (0, 1/2)] = 2 exp(-z^2)
        spec = FoxHSpec(m=1, n=0, upper=(), lower=((0.0, 0.5),))
        assert_allclose(fox_h(spec, 1.0), 2 * math.exp(-1), rtol=1e-9)
        # cross-check by quadrature of the Mellin pair: f has Mellin Gamma(s/2)
        ref, _ = quad(lambda t: 2 * np.exp(-t ** 2) * t ** (0.7 - 1), 0, np.inf)
        got, _ = quad(lambda t: fox_h(spec, t) * t ** (0.7 - 1), 0, 10.0)
        assert_allclose(got, ref, rtol=1e-6)

    def test_exp_pair_kernel_elementary_point(self):
        # H^{1,1}_{1,1} form of int x^(c-1) e^-Ax e^-x dx at A=1, c=1 -> 1/2
        spec = FoxHSpec(m=1, n=1, upper=((0.0, 1.0),), lower=((0.0, 1.0),))
        # Phi(t) = Gamma(-t) Gamma(1 + t); z = A/delta = 1 -> (1+z)^-1 = 0.5
        assert_allclose(fox_h(spec, 1.0), 0.5, rtol=1e-9)

    def test_unit_coefficients_match_meijer_g(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            m = 1 + int(rng.integers(0, 3))
            q_extra = int(rng.integers(0, 2))
            n = int(rng.integers(0, 2))
            p_extra = int(rng.integers(0, 2))
            b_main = np.round(rng.uniform(0.2, 3.0, size=m), 3)
            b_rest = np.round(rng.uniform(-1.0, 1.0, size=q_extra), 3)
            a_main = np.round(rng.uniform(b_main.min() + 1.2,
                                          b_main.min() + 3.0, size=n), 3)
            a_rest = np.round(rng.uniform(1.0, 4.0, size=p_extra), 3)
            if m + n <= (m + q_extra + n + p_extra) / 2:
                continue
            gspec = MeijerGSpec(m=m, n=n, a=tuple(a_main) + tuple(a_rest),
                                b=tuple(b_main) + tuple(b_rest))
            hspec = gspec.as_fox_h()
            z = float(rng.uniform(0.2, 3.0))
            try:
                g = meijer_g(gspec, z)
            except ContourError:
                continue
            h = fox_h(hspec, z)
            assert_allclose(h, g, rtol=1e-10, atol=1e-13)

    def test_coefficient_positivity_enforced(self):
        with pytest.raises(ParameterError):
            FoxHSpec(m=1, n=0, upper=(), lower=((0.0, -1.0),))


class TestBivariate:
    def test_separable_product(self):
        exp_kernel = FoxHSpec(m=1, n=0, upper=(), lower=((0.0, 1.0),))
        spec = BivariateFoxHSpec(joint=(), kernel1=exp_kernel,
                                 kernel2=exp_kernel)
        got = fox_h_bivariate(spec, 0.7, 1.9)
        assert_allclose(got, math.exp(-0.7) * math.exp(-1.9), rtol=1e-8)

    def test_r6_style_vs_quadrature(self):
        # int x^(m_r + th) e^(-a1 x) e^(-de x) G_cdf(c x) dx, s=1 kernel
        eps2, alpha_o, m_o = 44.89, 2.296, 1
        q1 = (eps2 + 1.0,)
        q2 = (eps2, alpha_o, float(m_o))
        kernel2 = FoxHSpec(m=3, n=1,
                           upper=((1.0, 1.0),) + tuple((a, 1.0) for a in q1),
                           lower=tuple((b, 1.0) for b in q2) + ((0.0, 1.0),))
        a1, de, pw = 0.8, 0.4, 1.0
        spec = BivariateFoxHSpec(
            joint=((1.0 - (pw + 1.0), 1.0, 1.0),),
            kernel1=FoxHSpec(m=1, n=0, upper=(), lower=((0.0, 1.0),)),
            kernel2=kernel2,
        )
        z1 = a1 / de
        c_arg = 0.3

        @mp.workdps(30)
        def f(x):
            g = float(mp.meijerg([[1.0], list(q1)], [list(q2), [0.0]],
                                 c_arg * x))
            return x ** pw * np.exp(-a1 * x - de * x) * g

        ref, _ = quad(f, 0, np.inf, limit=200)
        got = de ** (-(pw + 1.0)) * fox_h_bivariate(spec, z1, c_arg / de)
        assert_allclose(got, ref, rtol=1e-6)

    @pytest.mark.parametrize("z1, z2", [(0.7, 1.9), (3.0, 0.2)])
    def test_kernel_that_decays_only_with_the_joint(self, z1, z2):
        # Gamma(-t)/Gamma(c + t) does not decay along its line (decay rate
        # 0), so its half-length would depend on the joint factors and the
        # other axis; the spec rejects it before any argument is given, on
        # axis 1 for the first id and on axis 2 for the second
        s, c = 1.5, 2.3
        flat = FoxHSpec(m=1, n=0, upper=(), lower=((0.0, 1.0), (1.0 - c, 1.0)))
        assert flat.decay_rate() == 0.0
        exp_kernel = FoxHSpec(m=1, n=0, upper=(), lower=((0.0, 1.0),))
        k1, k2 = (flat, exp_kernel) if z1 < z2 else (exp_kernel, flat)
        with pytest.raises(ParameterError, match="decay"):
            BivariateFoxHSpec(joint=((1.0 - s, 1.0, 1.0),), kernel1=k1,
                              kernel2=k2)

    def test_rejects_bad_arguments(self):
        exp_kernel = FoxHSpec(m=1, n=0, upper=(), lower=((0.0, 1.0),))
        spec = BivariateFoxHSpec(joint=(), kernel1=exp_kernel,
                                 kernel2=exp_kernel)
        with pytest.raises(ParameterError):
            fox_h_bivariate(spec, -1.0, 1.0)

    @pytest.mark.parametrize("joint", [
        ((-1.0, 0.0, 1.0),),
        ((-1.0, 1.0, 0.0),),
        ((-1.0, 1.0, 1.0), (0.5, 1.0, 2.0)),
    ], ids=["A1=0", "A2=0", "two-slopes"])
    def test_rejects_joint_without_one_lattice(self, joint):
        # the lattice spacing divides by A1 and A2 and maps every joint
        # factor onto one line only when all share one (A1, A2)
        exp_kernel = FoxHSpec(m=1, n=0, upper=(), lower=((0.0, 1.0),))
        with pytest.raises(ParameterError):
            BivariateFoxHSpec(joint=joint, kernel1=exp_kernel,
                              kernel2=exp_kernel)

    @pytest.mark.parametrize("A1, A2, n1, n2", [
        (1.0, 1.0, 65, 65),
        (1.0, 1.0, 33, 65),
        (15.0 / 11.0, 10.0 / 11.0, 65, 65),
        (2.5, 1.0, 33, 49),
    ])
    def test_lattice_convolution_matches_double_sum(self, A1, A2, n1, n2):
        # the same lattice summed node by node on the 2-D grid
        q1, q2 = (45.89,), (44.89, 2.296, 1.0)
        kernel2 = FoxHSpec(m=3, n=1,
                           upper=((1.0, 1.0),) + tuple((a, 1.0) for a in q1),
                           lower=tuple((b, 1.0) for b in q2) + ((0.0, 1.0),))
        spec = BivariateFoxHSpec(
            joint=((-1.0, A1, A2), (-0.5, A1, A2)),
            kernel1=FoxHSpec(m=1, n=0, upper=(), lower=((0.0, 1.0),)),
            kernel2=kernel2,
        )
        z1, z2 = 2.0, 0.75
        c1, c2 = _bivar_abscissas(spec, z1, z2)
        half1, half2 = 4.0, 5.0
        h = min(A1 * 2 * half1 / (n1 - 1), A2 * 2 * half2 / (n2 - 1))
        k1 = math.ceil(half1 * A1 / h - 1e-9)
        k2 = math.ceil(half2 * A2 / h - 1e-9)
        assert max(2 * k1 + 1, 2 * k2 + 1) <= 129
        y1 = h / A1 * np.arange(-k1, k1 + 1)
        y2 = h / A2 * np.arange(-k2, k2 + 1)
        t1 = c1 + 1j * y1[:, None]
        t2 = c2 + 1j * y2[None, :]
        log_f = spec.kernel1.log_phi(t1) + spec.kernel2.log_phi(t2) + \
            t1 * np.log(z1) + t2 * np.log(z2)
        for a, B1, B2 in spec.joint:
            log_f = log_f + loggamma(1.0 - a + B1 * t1 + B2 * t2)
        f = np.exp(log_f) * (h / A1) * (h / A2) / (2 * np.pi) ** 2
        line1 = _Line(spec.kernel1.log_phi, c1, h / A1, _HALF0)
        line2 = _Line(spec.kernel2.log_phi, c2, h / A2, _HALF0)
        line1.cover(k1)
        line2.cover(k2)
        joint = _Line(spec.log_joint, A1 * c1 + A2 * c2, h, _HALF0)
        val, l1 = _lattice_sum(z1, z2, line1, line2, joint)
        assert (line1.nodes, line2.nodes) == (len(y1), len(y2))
        assert_allclose(val, f.sum(), rtol=1e-13)
        assert_allclose(l1, np.abs(f).sum(), rtol=1e-13)
        # a level down, the joint line keeps its nodes and gains the odd ones
        held = joint.vals.copy()
        line1.halve()
        line2.halve()
        _lattice_sum(z1, z2, line1, line2, joint)
        assert joint.nodes == line1.nodes + line2.nodes - 1
        assert np.array_equal(joint.vals[0::2], held)

    def test_fft_rounding_is_in_l1(self):
        # at 4097 and 2049 nodes per axis the FFT lattice sum and its l1
        # are within the 1e-15 l1 floor of `_settled` of the direct
        # convolution
        exp_kernel = FoxHSpec(m=1, n=0, upper=(), lower=((0.0, 1.0),))
        spec = BivariateFoxHSpec(joint=((-1.0, 1.0, 1.0),),
                                 kernel1=exp_kernel, kernel2=exp_kernel)
        z1, z2, h = 0.7, 1.9, 0.01
        c1, c2 = _bivar_abscissas(spec, z1, z2)
        line1 = _Line(exp_kernel.log_phi, c1, h, _HALF0)
        line2 = _Line(exp_kernel.log_phi, c2, h, _HALF0)
        line1.cover(2048)
        line2.cover(1024)
        joint = _Line(spec.log_joint, c1 + c2, h, _HALF0)
        val, l1 = _lattice_sum(z1, z2, line1, line2, joint)
        a = np.exp(line1.vals + line1.t * np.log(z1))
        b = np.exp(line2.vals + line2.t * np.log(z2))
        j = np.exp(joint.vals)
        scale = h * h / (2.0 * np.pi) ** 2
        direct = np.dot(j, np.convolve(a, b)) * scale
        direct_l1 = np.dot(np.abs(j), np.convolve(np.abs(a), np.abs(b))) * scale
        assert abs(val - direct) <= 1e-15 * l1
        assert abs(l1 - direct_l1) <= 1e-15 * l1

    def test_empty_joint_is_the_product_of_two_lines(self):
        exp_kernel = FoxHSpec(m=1, n=0, upper=(), lower=((0.0, 1.0),))
        spec = BivariateFoxHSpec(joint=(), kernel1=exp_kernel,
                                 kernel2=exp_kernel)
        c, z1, z2 = -0.5, 0.7, 1.9
        line1 = _Line(exp_kernel.log_phi, c, 0.25, _HALF0)
        line2 = _Line(exp_kernel.log_phi, c, 0.25, _HALF0)
        line1.cover(16)
        line2.cover(32)
        val, l1 = _lattice_sum(z1, z2, line1, line2,
                               _Line(spec.log_joint, 2 * c, 0.25, _HALF0))
        v1, a1 = _line_sum_ref(exp_kernel, z1, c, 0.25, 16)
        v2, a2 = _line_sum_ref(exp_kernel, z2, c, 0.25, 32)
        assert_allclose(val, v1 * v2, rtol=1e-13)
        assert_allclose(l1, a1 * a2, rtol=1e-13)


def _figure_lines():
    """(spec, z_ref) of the Malaga CDF line of every figure point's metric
    evaluator, at the point's sigma and at sigma = 1: 24 lines."""
    lines = []
    for name in FIGURES:
        cfg = figure_config(name)
        fso = cfg.fso
        for sigma in (cfg.sigma, 1.0):
            z_ref = max(fso.V * sigma * cfg.rf_se.avg_snr / fso.mu_s, 1e-6)
            lines.append((fso.cdf_mixture_spec(), z_ref))
    return lines


def _complex_scan(spec, z):
    """The abscissa of the scan through the complex log Phi."""
    return specfun._abscissa(
        lambda cs: spec.log_phi(cs).real + cs * np.log(z),
        *spec.pole_interval())


class TestRealScan:
    """The abscissa scan reads log |Phi| in real arithmetic (gammaln), the
    real part of the complex log Phi the lines are built from."""

    @staticmethod
    def _close(real, cplx):
        with np.errstate(all="ignore"):
            want = np.asarray(cplx).real
            fin = np.isfinite(want)
            assert np.array_equal(fin, np.isfinite(real))
            assert np.all(np.abs(real[fin] - want[fin])
                          <= 1e-13 * (1.0 + np.abs(want[fin])))

    def test_fox_h_spec(self):
        # m- and n-group factors, and both kinds of denominator factor,
        # whose arguments run negative across the scanned range
        specs = [
            MeijerGSpec(m=3, n=1, a=(1.0, 2.0),
                        b=(1.0, 2.296, 1.0, 0.0)).as_fox_h(),
            FoxHSpec(m=2, n=1, upper=((0.5, 0.5), (1.7, 1.3)),
                     lower=((1.0, 1.0), (0.25, 0.75), (0.4, 2.0))),
            EXP_SPEC.as_fox_h(),
        ]
        x = np.linspace(-7.3, 7.1, 301)
        for spec in specs:
            with np.errstate(all="ignore"):
                self._close(spec._log_abs_phi(x), spec.log_phi(x))

    @pytest.mark.parametrize("s", [1, 2])
    @pytest.mark.parametrize("beta_o", [1, 3])
    @pytest.mark.parametrize("gammas", [(), ((0.4, 1.5),), ((2.0, 0.5),
                                                           (0.3, 1.0))])
    def test_malaga_mixture(self, s, beta_o, gammas):
        fso = replace(figure_config("fig4").fso, s=s, beta_o=beta_o)
        for spec in (fso.cdf_mixture_spec(), fso.pdf_mixture_spec(),
                     fso.cdf_kernel_spec(beta_o)):
            spec = replace(spec, gammas=gammas)
            lo, hi = spec.pole_interval()
            x = np.concatenate([np.linspace(max(lo, -60.0), hi, 97),
                                np.linspace(-40.0, 40.0, 81)])
            with np.errstate(all="ignore"):
                self._close(spec._log_abs_phi(x), spec.log_phi(x))

    def test_log_joint(self):
        spec = BivariateFoxHSpec(
            joint=((-1.0, 2.0, 1.0), (0.5, 2.0, 1.0), (3.2, 2.0, 1.0)),
            kernel1=EXP_SPEC.as_fox_h(), kernel2=EXP_SPEC.as_fox_h())
        x = np.linspace(-6.1, 9.7, 203)
        with np.errstate(all="ignore"):
            self._close(spec._log_abs_joint(x), spec.log_joint(x))

    def test_same_abscissa_on_the_figure_lines(self):
        for spec, z_ref in _figure_lines():
            assert LineEvaluator(spec, z_ref).c == _complex_scan(spec, z_ref)


class TestAbscissaRule:
    """Every contour takes its abscissa from one rule, `_abscissa`."""

    def test_one_scan_per_axis(self, monkeypatch):
        calls = [0]
        rule = specfun._abscissa

        def counting(*args):
            calls[0] += 1
            return rule(*args)

        monkeypatch.setattr(specfun, "_abscissa", counting)
        LineEvaluator(MeijerGSpec(m=3, n=1, a=(1.0, 2.0),
                                  b=(1.0, 2.296, 1.0, 0.0)), 0.5)
        assert calls[0] == 1
        fox_h(EXP_SPEC, 2.0)
        assert calls[0] == 2
        exp_kernel = FoxHSpec(m=1, n=0, upper=(), lower=((0.0, 1.0),))
        for joint in ((), ((-1.0, 1.0, 1.0),)):
            calls[0] = 0
            spec = BivariateFoxHSpec(joint=joint, kernel1=exp_kernel,
                                     kernel2=exp_kernel)
            fox_h_bivariate(spec, 0.7, 1.9)
            assert calls[0] == 2

    def test_joint_poles_leave_no_product_contour(self):
        # Gamma(-9 + t1 + t2) needs t1 + t2 > 9, while both exp kernels
        # need t < 0
        exp_kernel = FoxHSpec(m=1, n=0, upper=(), lower=((0.0, 1.0),))
        spec = BivariateFoxHSpec(joint=((10.0, 1.0, 1.0),),
                                 kernel1=exp_kernel, kernel2=exp_kernel)
        with pytest.raises(ContourError):
            fox_h_bivariate(spec, 0.7, 1.9)

    def test_abscissa_clears_the_joint_poles(self):
        # Gamma(-1 + t1 + t2) Gamma(-t1) Gamma(3 - t2): each strip is
        # clipped to t1 + t2 > 1, and the residue sum is the multinomial
        # z2^3 Gamma(2) (1 + z1 + z2)^-2
        exp_kernel = FoxHSpec(m=1, n=0, upper=(), lower=((0.0, 1.0),))
        kernel2 = FoxHSpec(m=1, n=0, upper=(), lower=((3.0, 1.0),))
        spec = BivariateFoxHSpec(joint=((2.0, 1.0, 1.0),),
                                 kernel1=exp_kernel, kernel2=kernel2)
        z1, z2 = 0.7, 1.9
        c1, c2 = _bivar_abscissas(spec, z1, z2)
        assert c1 < 0.0 and c2 < 3.0
        assert c1 + c2 > 1.0
        assert_allclose(fox_h_bivariate(spec, z1, z2),
                        z2 ** 3 / (1.0 + z1 + z2) ** 2, rtol=1e-8)

    def test_held_c1_leaves_room_for_c2(self):
        # Gamma(-3 + t1 + t2) Gamma(5 - t1) Gamma(-t2): t2 < 0 needs
        # t1 > 3, so c1 cannot be held at -0.5 while c2 is picked; the
        # residue sum is z1^5 Gamma(2) (1 + z1 + z2)^-2
        exp_kernel = FoxHSpec(m=1, n=0, upper=(), lower=((0.0, 1.0),))
        kernel1 = FoxHSpec(m=1, n=0, upper=(), lower=((5.0, 1.0),))
        spec = BivariateFoxHSpec(joint=((4.0, 1.0, 1.0),),
                                 kernel1=kernel1, kernel2=exp_kernel)
        z1, z2 = 0.7, 1.9
        c1, c2 = _bivar_abscissas(spec, z1, z2)
        assert c1 < 5.0 and c2 < 0.0
        assert c1 + c2 > 3.0
        assert_allclose(fox_h_bivariate(spec, z1, z2),
                        z1 ** 5 / (1.0 + z1 + z2) ** 2, rtol=1e-8)


class TestRefinementBudget:
    """Both evaluators share one refinement loop; once it runs out of nodes
    it raises with the last two estimates and the grid it reached."""

    def _check(self, info, budget):
        exc = info.value
        assert "node budget" in str(exc)
        assert len(exc.estimates) == 2
        assert set(exc.diagnostics) == {"half_lengths", "nodes"}
        assert max(exc.diagnostics["nodes"]) > budget

    def test_univariate(self, monkeypatch):
        spec = MeijerGSpec(m=3, n=1, a=(1.0, 2.0), b=(1.0, 2.296, 1.0, 0.0))
        monkeypatch.setattr(specfun, "_MAX_NODES", 81)
        monkeypatch.setattr(specfun, "_REL_TOL", 1e-15)
        with pytest.raises(ConvergenceError) as info:
            meijer_g(spec, 0.5)
        self._check(info, 81)
        assert len(info.value.diagnostics["nodes"]) == 1

    def test_bivariate(self, monkeypatch):
        exp_kernel = FoxHSpec(m=1, n=0, upper=(), lower=((0.0, 1.0),))
        spec = BivariateFoxHSpec(joint=(), kernel1=exp_kernel,
                                 kernel2=exp_kernel)
        monkeypatch.setattr(specfun, "_MAX_NODES", 81)
        monkeypatch.setattr(specfun, "_REL_TOL", 1e-15)
        with pytest.raises(ConvergenceError) as info:
            fox_h_bivariate(spec, 0.7, 1.9)
        self._check(info, 81)
        assert len(info.value.diagnostics["half_lengths"]) == 2
        # with A1 = 4 A2 the lattice makes axis 1 four times finer than
        # axis 2 on one half-length: the budget and the diagnostics count
        # the nodes summed, so refinement stops while axis 2 is in budget
        spec = BivariateFoxHSpec(joint=((-5.0, 4.0, 1.0),),
                                 kernel1=exp_kernel, kernel2=exp_kernel)
        monkeypatch.setattr(specfun, "_MAX_NODES", 200)
        with pytest.raises(ConvergenceError) as info:
            fox_h_bivariate(spec, 0.7, 1.9)
        self._check(info, 200)
        n1, n2 = info.value.diagnostics["nodes"]
        assert n2 <= 200 < n1
        assert n1 == 4 * (n2 - 1) + 1

    def test_budgets_cover_a_starting_line(self):
        # a new line holds 81 nodes (half-length 8 at spacing 0.2)
        assert specfun._START_NODES == 81
        assert specfun._MAX_NODES >= specfun._START_NODES


class TestStartLength:
    """A line starts where its spec's decay bound alone is below 1e-19 of
    its peak, not at _HALF0; the span rule still fixes where it ends."""

    def test_start_lengths(self, monkeypatch):
        assert specfun._start_length(2.0) == pytest.approx(14.0)
        assert specfun._start_length(1.0) == pytest.approx(28.0)
        # never below _HALF0, and _HALF0 for a spec that does not decay
        assert specfun._start_length(4.0) == specfun._HALF0
        assert specfun._start_length(0.0) == specfun._HALF0
        # never past the budget on the finest axis
        assert 2 * specfun._start_length(1e-4) / _H0 + 1 <= specfun._MAX_NODES
        monkeypatch.setattr(specfun, "_MAX_NODES", 201)
        assert specfun._start_length(1.0) == pytest.approx(20.0)
        assert specfun._start_length(1.0, _H0 / 4) == specfun._HALF0

    def test_same_line_as_from_half0(self, monkeypatch):
        # bit for bit: the same abscissa, spacing, length, frozen
        # coefficients, value and error as a line started at _HALF0
        lines = _figure_lines()
        new = [LineEvaluator(spec, z) for spec, z in lines]
        assert any(specfun._start_length(spec.decay_rate()) > specfun._HALF0
                   for spec, _ in lines)
        monkeypatch.setattr(specfun, "_start_length",
                            lambda rate, h=_H0: specfun._HALF0)
        for ev, (spec, z) in zip(new, lines):
            old = LineEvaluator(spec, z)
            assert (ev.c, ev.h, ev.K, ev._top) == (old.c, old.h, old.K,
                                                   old._top)
            assert np.array_equal(ev._coef, old._coef)
            assert (ev.value, ev.error) == (old.value, old.error)

    def test_same_bivariate_value_as_from_half0(self, monkeypatch):
        exp_kernel = FoxHSpec(m=1, n=0, upper=(), lower=((0.0, 1.0),))
        spec = BivariateFoxHSpec(joint=((-1.0, 2.0, 1.0),),
                                 kernel1=exp_kernel, kernel2=exp_kernel)
        new = fox_h_bivariate(spec, 0.7, 1.9)
        monkeypatch.setattr(specfun, "_start_length",
                            lambda rate, h=_H0: specfun._HALF0)
        assert fox_h_bivariate(spec, 0.7, 1.9) == new


class TestLineEvaluator:
    def test_matches_pointwise_eval(self):
        spec = MeijerGSpec(m=3, n=1, a=(1.0, 2.0), b=(1.0, 2.296, 1.0, 0.0))
        ev = LineEvaluator(spec, z_ref=1.0)
        zs = np.array([0.05, 0.3, 1.0, 4.0, 20.0])
        got = ev.eval_many(zs)
        want = np.array([meijer_g(spec, z) for z in zs])
        assert_allclose(got, want, rtol=1e-7, atol=1e-10)

    @staticmethod
    def _malaga_kernels():
        """(spec, z_ref) of every figure's Malaga CDF kernels, at the
        reference argument of their metric evaluator."""
        seen = []
        for name in FIGURES:
            cfg = figure_config(name)
            fso = cfg.fso
            z_ref = max(fso.V * cfg.sigma * cfg.rf_se.avg_snr / fso.mu_s, 1e-6)
            for m_o in range(1, fso.beta_o + 1):
                gspec = paper_g_kernel(fso, m_o)
                if (gspec, z_ref) not in seen:
                    seen.append((gspec, z_ref))
        return seen

    def test_trimmed_contour_matches_full_contour(self):
        # eight decades around z_ref: the frozen line, which covers
        # |k| <= ev.K, against the same spacing over twice its half-length
        for gspec, z_ref in self._malaga_kernels():
            spec = gspec.as_fox_h()
            ev = LineEvaluator(spec, z_ref)
            zs = z_ref * np.logspace(-4, 4, 17)
            full = [_line_sum_ref(spec, z, ev.c, ev.h, 2 * ev.K)[0].real
                    for z in zs]
            assert_allclose(ev.eval_many(zs), full, rtol=0, atol=1e-13)

    def test_half_line_sum_matches_full_complex_line(self):
        # the real half-line sum against the complex trapezoid over
        # |k| <= K at the same c and h, for s = 1 and s = 2 kernels
        for gspec, z_ref in self._malaga_kernels():
            spec = gspec.as_fox_h()
            ev = LineEvaluator(spec, z_ref)
            zs = z_ref * np.logspace(-4, 4, 17)
            ref = [_line_sum_ref(spec, z, ev.c, ev.h, ev.K) for z in zs]
            val = np.array([v for v, _ in ref])
            l1 = np.array([a for _, a in ref])
            assert np.all(np.abs(ev.eval_many(zs) - val.real) <= 1e-15 * l1)
            assert np.all(np.abs(val.imag) <= 1e-15 * l1)

    @staticmethod
    def _cosine_sum(line, lzs):
        """The frozen half line's value and l1 at each ln z of lzs, one
        cosine per node and argument: the sum the blocked one replaced."""
        keep = np.isfinite(line.vals)
        lg = line.vals[keep]
        k = np.arange(line.K + 1)[keep]
        top = lg.real.max()
        amp = np.where(k == 0, 1.0, 2.0) * np.exp(lg.real - top)
        scale = line.h / (2.0 * np.pi) * np.exp(top + line.c * lzs)
        cos = np.cos(lg.imag + line.h * k * lzs[:, None])
        return scale * (amp * cos).sum(axis=1), scale * amp.sum()

    @pytest.mark.parametrize("malaga", [(1, 1), (1, 3), (2, 1), (2, 3), None])
    def test_blocked_sum_matches_cosine_sum(self, malaga):
        # twelve decades around z_ref, on the Malaga mixture line of
        # (s, beta_o), and (None) on a Fox H line with non-unit coefficients
        if malaga is None:
            spec = FoxHSpec(m=2, n=1, upper=((0.5, 0.5),),
                            lower=((1.0, 1.0), (0.25, 0.75)))
            z_ref = 0.7
        else:
            s, beta_o = malaga
            fso = replace(figure_config("fig4").fso, s=s, beta_o=beta_o)
            spec, z_ref = fso.cdf_mixture_spec(), fso.V
        ev = LineEvaluator(spec, z_ref)
        line = _Line(spec.log_phi, ev.c, ev.h, _HALF0, half=True)
        line.cover(ev.K)
        zs = z_ref * np.logspace(-6, 6, 49)
        want, l1 = self._cosine_sum(line, np.log(zs))
        assert np.all(np.abs(ev.eval_many(zs) - want) <= 2e-15 * l1)
        # one argument alone gives the value it has in the batch
        assert ev(zs[7]) == ev.eval_many(zs)[7]
        assert ev.value == ev(z_ref)

    def test_non_finite_node_contributes_zero(self):
        # log Phi is nan on one band of the line and +inf on another: those
        # nodes add nothing, as in the full line with non-finite terms zeroed
        class Holed(FoxHSpec):
            def log_phi(self, t):
                t = np.asarray(t, dtype=complex)
                y = np.abs(t.imag)
                out = super().log_phi(t)
                out = np.where((y > 0.3) & (y < 0.5), np.nan, out)
                return np.where((y > 0.9) & (y < 1.1), np.inf, out)

        base = MeijerGSpec(m=3, n=1, a=(1.0, 2.0),
                           b=(1.0, 2.296, 1.0, 0.0)).as_fox_h()
        spec = Holed(base.m, base.n, base.upper, base.lower)
        z_ref = 0.5
        # the holes would stall the refinement, so the evaluator's frozen
        # line is swapped for the holed spec's line at the same c, h and K
        ev = LineEvaluator(base, z_ref)
        zs = z_ref * np.logspace(-2, 2, 9)
        intact = ev.eval_many(zs)
        line = _Line(spec.log_phi, ev.c, ev.h, _HALF0, half=True)
        line.cover(ev.K)
        assert np.isnan(line.vals).any() and np.isinf(line.vals).any()
        ev._freeze(line)
        ref = [_line_sum_ref(spec, z, ev.c, ev.h, ev.K) for z in zs]
        val = np.array([v for v, _ in ref])
        l1 = np.array([a for _, a in ref])
        got = ev.eval_many(zs)
        assert np.all(np.abs(got - val.real) <= 1e-15 * l1)
        # the holes are real: the intact line differs by far more
        assert np.all(np.abs(got - intact) > 1e-6)

    def test_conjugate_asymmetry_raises(self):
        # a real term odd in Im t breaks Phi(c - iy) = conj Phi(c + iy);
        # the half line would silently sum only one side of it
        class Skewed(FoxHSpec):
            def log_phi(self, t):
                t = np.asarray(t, dtype=complex)
                return super().log_phi(t) + 1e-3 * t.imag

        base = MeijerGSpec(m=3, n=1, a=(1.0, 2.0),
                           b=(1.0, 2.296, 1.0, 0.0)).as_fox_h()
        spec = Skewed(base.m, base.n, base.upper, base.lower)
        for z in (0.05, 0.5, 5.0):
            with pytest.raises(ConvergenceError, match="residue"):
                LineEvaluator(spec, z)
            with pytest.raises(ConvergenceError, match="residue"):
                fox_h(spec, z)
            assert fox_h(base, z) > 0

    @staticmethod
    def _full_asymmetry(line, lz):
        """The asymmetry measure with the mirrored nodes evaluated afresh."""
        step = 2 ** line.level
        k = np.arange(0, line.K + 1, step)
        t = line.c + 1j * line.h * k
        held = line.vals[::step]
        mirror = np.concatenate([held[:1], line._eval(-k[1:])])
        with np.errstate(all="ignore"):
            f = np.where(np.isfinite(held), np.exp(held + t * lz), 0.0)
            g = np.where(np.isfinite(mirror),
                         np.exp(mirror + np.conj(t) * lz), 0.0)
        return float(np.abs(g - np.conj(f)).sum() * line.h * step
                     / (2.0 * np.pi))

    def test_mirror_is_the_coarse_level(self):
        # after extending, trimming and halving, at any level, the mirror
        # holds log Phi at the coarsest spacing's nodes k < 0, to the bit
        spec = MeijerGSpec(m=3, n=1, a=(1.0, 2.0),
                           b=(1.0, 2.296, 1.0, 0.0)).as_fox_h()
        line = _Line(spec.log_phi, -0.3, _H0, _HALF0, half=True)
        for step in (lambda: line.cover(57), lambda: line.cover(23),
                     line.halve, lambda: line.cover(77), line.halve,
                     lambda: line.cover(130), lambda: line.cover(101)):
            step()
            coarse = 2 ** line.level
            k = coarse * np.arange(1, line.K // coarse + 1)
            assert np.array_equal(line.mirror, line._eval(-k))

    def test_measure_reads_the_mirror(self):
        # the measure from the stored mirror is the one from the mirrored
        # nodes evaluated afresh: 0.0 on the figure lines, where every
        # mirrored value is the exact conjugate, and > 0 on a skewed spec
        for spec, z_ref in _figure_lines():
            ev = LineEvaluator(spec, z_ref)
            line = _Line(spec.log_phi, ev.c, _H0, _HALF0, half=True)
            line.cover(int(round(ev.h * ev.K / _H0)))
            while line.h > ev.h:
                line.halve()
            assert line.K == ev.K
            assert _asymmetry(line, np.log(z_ref)) == 0.0
            assert self._full_asymmetry(line, np.log(z_ref)) == 0.0

        class Skewed(FoxHSpec):
            def log_phi(self, t):
                t = np.asarray(t, dtype=complex)
                return super().log_phi(t) + 1e-3 * t.imag

        base = MeijerGSpec(m=3, n=1, a=(1.0, 2.0),
                           b=(1.0, 2.296, 1.0, 0.0)).as_fox_h()
        spec = Skewed(base.m, base.n, base.upper, base.lower)
        line = _Line(spec.log_phi, -0.4, _H0, _HALF0, half=True)
        line.halve()
        got = _asymmetry(line, np.log(0.5))
        assert got > 0.0
        assert got == self._full_asymmetry(line, np.log(0.5))

    def test_figure_kernels_are_conjugate_symmetric(self):
        # the check passes on every figure kernel; at every node of the
        # frozen line, not only the coarsest level's, the mirrored node is
        # the exact conjugate of the held one
        for gspec, z_ref in self._malaga_kernels():
            ev = LineEvaluator(gspec, z_ref)
            line = _Line(gspec.as_fox_h().log_phi, ev.c, ev.h, _HALF0,
                         half=True)
            line.cover(ev.K)
            assert _asymmetry(line, np.log(z_ref)) == 0.0

    def test_value_is_fox_h(self, monkeypatch):
        # fox_h is the value of one converged line, and malaga_cdf that of
        # its evaluator converged at the same snr: one refinement per kernel
        # and one per CDF, whose line holds the whole beta_o-term mixture
        refines = [0]
        refine = specfun._refine

        def counting(*args):
            refines[0] += 1
            return refine(*args)

        monkeypatch.setattr(specfun, "_refine", counting)
        for gspec, z in self._malaga_kernels():
            ev = LineEvaluator(gspec, z)
            refines[0] = 0
            assert ev.value == fox_h(gspec, z) == ev(z)
            assert refines[0] == 1
            assert ev.error > 0
        for name in FIGURES:
            fso = figure_config(name).fso
            for x in (0.3 * fso.mu_s, fso.mu_s):
                refines[0] = 0
                got = malaga_cdf(fso, x)
                assert refines[0] == 1
                assert got == MalagaCdfEvaluator(fso, x)(x)

    def test_eval_many_rejects_non_finite(self):
        ev = LineEvaluator(EXP_SPEC, 1.0)
        for bad in (np.nan, np.inf, 0.0, -1.0):
            with pytest.raises(ParameterError):
                ev.eval_many(np.array([1.0, bad]))
            with pytest.raises(ParameterError):
                fox_h(EXP_SPEC, bad)

    def test_frozen_line_vs_mpmath(self):
        for gspec, z_ref in self._malaga_kernels():
            zs = z_ref * np.logspace(-4, 4, 17)
            got = LineEvaluator(gspec, z_ref).eval_many(zs)
            a, b = gspec.a, gspec.b
            with mp.workdps(30):
                want = np.array([float(mp.meijerg(
                    [a[:gspec.n], a[gspec.n:]], [b[:gspec.m], b[gspec.m:]],
                    z)) for z in zs])
            big = np.abs(want) > 1e-6
            assert_allclose(got[big], want[big], rtol=1e-9)
            assert_allclose(got[~big], want[~big], rtol=0, atol=1e-12)


class TestNodeCounts:
    """Each contour node is evaluated once: the counts of log Phi arguments
    of one metric building block and of one frozen line, on the Fox H
    kernels and the Malaga integrand."""

    @pytest.fixture
    def counted(self, monkeypatch):
        n = [0]
        for cls in (FoxHSpec, _MalagaMixture):
            def wrapped(self, t, log_phi=cls.log_phi):
                n[0] += np.size(t)
                return log_phi(self, t)

            monkeypatch.setattr(cls, "log_phi", wrapped)
        return n

    def test_g_exp_moment(self, counted):
        from cunsec.secrecy import g_exp_moment
        cfg = figure_config("fig4")
        g_exp_moment(cfg, 1, cfg.rf_se.theta)
        assert 0 < counted[0] <= 2000

    @pytest.fixture
    def complex_calls(self, monkeypatch):
        """[calls, arguments] of the complex log Phi, and [calls,
        arguments] of the real-axis log |Phi|."""
        n = [[0, 0], [0, 0]]
        for cls in (FoxHSpec, _MalagaMixture):
            for i, name in enumerate(("log_phi", "_log_abs_phi")):
                def wrapped(self, t, real=getattr(cls, name), i=i):
                    n[i][0] += 1
                    n[i][1] += np.size(t)
                    return real(self, t)

                monkeypatch.setattr(cls, name, wrapped)
        return n

    def test_malaga_cdf_line(self, complex_calls):
        # one line per metric evaluator: the half line with its mirror,
        # then one call per halving; the scan is one real call
        for name in FIGURES:
            cfg = figure_config(name)
            complex_calls[0][:] = complex_calls[1][:] = [0, 0]
            MalagaCdfEvaluator(cfg.fso, cfg.sigma * cfg.rf_se.avg_snr,
                               blocked=True)(cfg.rf_se.avg_snr)
            assert 0 < complex_calls[0][0] <= 4
            assert complex_calls[0][1] <= 600
            assert complex_calls[1] == [1, specfun._SCAN]

    def test_line_evaluator_init(self, counted):
        cfg = figure_config("fig4")
        fso = cfg.fso
        z_ref = fso.V * cfg.sigma * cfg.rf_se.avg_snr / fso.mu_s
        ev = LineEvaluator(fso.cdf_kernel_spec(1), z_ref)
        assert 0 < counted[0] <= 2000
        assert ev.h < _H0
