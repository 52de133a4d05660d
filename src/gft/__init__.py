"""gft: special functions, conformal moduli, quasiconformal distortion,
explicit growth/Holder bounds, and a numerical inequality-verification
engine with a matching command-line interface.
"""
__version__ = "0.1.0"  # before the imports: verify reports carry it

from .special import (
    APERY_A,
    EULER_GAMMA,
    LANDAU_C,
    ZETA3,
    DomainError,
    agm,
    digamma,
    elliptic_e,
    elliptic_k,
    elliptic_ka,
    gauss_2f1_sym,
    landau_constant,
    ramanujan_R,
)
from .modulus import (
    Lemma2Constants,
    fn_A,
    fn_B,
    grotzsch_u,
    grotzsch_u_inv,
    grotzsch_ua,
    grotzsch_ua_inv,
    landen_next,
    lemma2_constants,
    product_P,
)
from .distortion import (
    PhiResult,
    lemma3_fk,
    phi_k,
    phi_k_product,
    phi_ka,
    phi_partial_k,
    phi_partial_r,
)
from .bounds import (
    BLOCH_B1,
    LATTICE_GAP_D,
    eta_k,
    f_growth_bound,
    mori_holder_bound,
    mori_sin_bound,
    qc_schwarz_bounds,
    rho_lower,
    schottky_F,
    schottky_classical,
    schottky_f0_window,
    schottky_sf,
    sigma_metric,
    theorem3_sfk,
    triple_angle,
    zeta_map,
)
from .verify import (
    SUITES,
    InequalityReport,
    SweepSpec,
    Target,
    UsageError,
    margin_at,
    mori_radial_experiment,
    registry,
    run_suite,
    suite_failed,
    sweep,
    target_info,
)

__all__ = [
    "APERY_A", "EULER_GAMMA", "LANDAU_C", "ZETA3",
    "DomainError", "agm", "digamma", "elliptic_e", "elliptic_k",
    "elliptic_ka", "gauss_2f1_sym", "landau_constant", "ramanujan_R",
    "Lemma2Constants", "fn_A", "fn_B", "grotzsch_u", "grotzsch_u_inv",
    "grotzsch_ua", "grotzsch_ua_inv", "landen_next",
    "lemma2_constants", "product_P",
    "PhiResult", "lemma3_fk", "phi_k", "phi_k_product", "phi_ka",
    "phi_partial_k", "phi_partial_r",
    "BLOCH_B1", "LATTICE_GAP_D", "eta_k", "f_growth_bound",
    "mori_holder_bound", "mori_sin_bound", "qc_schwarz_bounds", "rho_lower",
    "schottky_F", "schottky_classical", "schottky_f0_window", "schottky_sf",
    "sigma_metric", "theorem3_sfk", "triple_angle", "zeta_map",
    "SUITES", "InequalityReport", "SweepSpec", "Target", "UsageError",
    "margin_at", "mori_radial_experiment", "registry", "run_suite",
    "suite_failed", "sweep", "target_info",
]
