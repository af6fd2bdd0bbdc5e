"""Physical-layer secrecy metrics of an underlay cognitive hybrid RF/FSO
link, with closed forms cross-validated against Monte-Carlo simulation."""

__version__ = "0.1.0"

from .channels import (
    FsoLinkParams,
    RfChannelParams,
    alpha_mu_cdf,
    alpha_mu_pdf,
    electrical_snr,
    fso_blocked_cdf,
    malaga_cdf,
    malaga_pdf,
)
from .config import config_from_dict, load_config
from .cun_cdf import (
    PowerConstraints,
    cdf_hybrid_scenario1,
    cdf_hybrid_scenario2,
    cdf_rf_scenario1,
    cdf_rf_scenario2,
    lambda1,
    lambda2,
)
from .errors import (
    ConfigError,
    ContourError,
    ConvergenceError,
    CunsecError,
    NumericalIntegrityError,
    ParameterError,
    UnsupportedParametersError,
)
from .figures import FIGURES, figure_config
from .mc import McEstimate, sample_alpha_mu, sample_malaga_snr, simulate_metrics
from .secrecy import (
    SecrecyConfig,
    SecrecyResult,
    est,
    sop_lower,
    sop_lower_scenario1,
    sop_lower_scenario2,
    spsc,
)
from .specfun import (
    BivariateFoxHSpec,
    FoxHSpec,
    MeijerGSpec,
    fox_h,
    fox_h_bivariate,
    gamma_fn,
    lower_incomplete_gamma,
    meijer_g,
    upper_incomplete_gamma,
)
