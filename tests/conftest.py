import numpy as np
import pytest

from cunsec import simulate_metrics
from cunsec.figures import figure_config


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
