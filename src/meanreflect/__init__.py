"""Monte Carlo engine for SDEs with jumps reflected through the mean of their law.

The state is pushed by the minimal nondecreasing deterministic process
keeping ``mean h(X_t) >= 0``; the law is approximated by an interacting
particle system advanced with a left-point Euler scheme, and the push is
the running supremum of the empirical minimal shift. Closed-form reference
solutions, an error/convergence harness, and a deterministic CLI sit on
top.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DegenerateAbscissae,
    DerivativesMissing,
    MeanReflectError,
    NoConvergence,
    NoiseMismatch,
    NonFiniteBracket,
    NonFiniteState,
    ParseError,
    RootBracketFailure,
    SizeMismatch,
    ValidationError,
)
from .harness import (
    ExperimentConfig,
    RegressionResult,
    ResultRow,
    ResultTable,
    SkorokhodReport,
    build_model,
    convergence_sweep,
    l2_error,
    loglog_fit,
    skorokhod_report,
)
from .model import (
    Constraint,
    ModelSpec,
    ValidationReport,
    affine_model,
    linear_constraint,
    make_case_i,
    make_case_ii,
    make_case_iii,
    sine_constraint,
    sine_constraint_root,
    validate,
)
from .oracle import (
    OraclePath,
    density_k,
    density_series,
    exact_case_i,
    exact_case_ii,
    exact_case_iii_K,
    exact_k_path,
    mean_y,
)
from .reflection import (
    MeanEvaluator,
    ReflectionTracker,
    bar_g0,
    g0,
    h_mean,
    wasserstein1,
)
from .scheme import (
    GridSpec,
    ParticleSystem,
    TrajectoryRecord,
    simulate,
)
from .stochastics import (
    Channel,
    CustomSampler,
    DiracPoint,
    LogNormal,
    NoiseRecord,
    derive_seed,
    expect,
    gaussians,
    jump_sizes,
    poisson_counts,
    uniforms,
)

__all__ = [name for name in dir() if not name.startswith("_")]
