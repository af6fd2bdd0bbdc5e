import numpy as np
import pytest

from cunsec import simulate_metrics
from cunsec.figures import figure_config
from cunsec.specfun import MeijerGSpec


@pytest.fixture(scope="session")
def mc_cache():
    """Session-wide cache of Monte-Carlo runs keyed by (figure, n, seed)."""
    cache = {}

    def run(name, n, seed, eavesdropper="independent"):
        key = (name, n, seed, eavesdropper)
        if key not in cache:
            cache[key] = simulate_metrics(figure_config(name), n, seed,
                                          eavesdropper=eavesdropper)
        return cache[key]

    return run


def null_se(p_null, n):
    """Binomial standard error under the analytic null (guards p near 0/1)."""
    p = min(max(p_null, 0.0), 1.0)
    return max(np.sqrt(p * (1.0 - p) / n), 1.0 / n)


def paper_g_kernel(fso, m_o, cdf=True):
    """The paper's Meijer G kernel of the optical link, the tests' reference
    for the package's one Malaga integrand: G_{m_o} of the CDF,
    G^{3s,1}_{s+1,3s+1}[1, (e2+k)/s (k = 1..s); (e2+k)/s, (alpha_o+k)/s,
    (m_o+k)/s (k < s), 0], or with cdf=False that of the PDF,
    G^{3,0}_{1,3}[e2 + 1; e2, alpha_o, m_o]."""
    e2, s = fso.epsilon ** 2, fso.s if cdf else 1
    a = [(e2 + k) / s for k in range(1, s + 1)]
    b = [(x + k) / s for x in (e2, fso.alpha_o, m_o) for k in range(s)]
    if cdf:
        return MeijerGSpec(m=3 * s, n=1, a=[1.0] + a, b=b + [0.0])
    return MeijerGSpec(m=3, n=0, a=a, b=b)
