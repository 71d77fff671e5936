"""Differentiable three-ray underwater acoustic source localization.

A forward model (analytic or learned path lengths feeding a differentiable
waveform synthesizer), end-to-end training on synthetic recordings,
gradient-based localization with optional test-time weight adaptation,
Cramer-Rao reference bounds, Monte-Carlo sweep harness, and numerical
verification of the adaptation robustness bound.
"""

from .autodiff import (
    GradReport,
    Layout,
    NumericOverflowError,
    fd_check,
    superpose,
    value_and_grad,
)
from .environment import (
    BOTTOM,
    DEFAULT_ENVIRONMENT,
    DEFAULT_REGION,
    DEFAULT_SOURCE,
    DIRECT,
    Dataset,
    Environment,
    ObservationWindowError,
    PathSpec,
    Region,
    SURFACE,
    SourceLocation,
    THREE_PATHS,
    UnsupportedPathError,
    arrival_params,
    gen_dataset,
    load_dataset,
    path_geometry,
    reflection_coeff,
    save_dataset,
    stratified_locations,
    synthesize_received,
)
from .forward import (
    Checkpoint,
    CheckpointError,
    MatchedModel,
    ModelParams,
    NetworkModel,
    PLN_ERROR_TARGET,
    TrainConfig,
    load_checkpoint,
    pretrain,
    save_checkpoint,
    train_loss,
)
from .harness import (
    CSV_HEADER,
    ConfigError,
    ExperimentConfig,
    SweepRow,
    config_from_dict,
    run_and_write,
    run_cell,
    run_sweep,
    write_csv,
)
from .localize import (
    CrlbResult,
    GblConfig,
    LocalizeResult,
    SingularFisherError,
    ToaEstimate,
    ToaInitError,
    crlb,
    da_gbl,
    gbl,
    toa_init,
)
from .pln import (
    DEFAULT_HIDDEN,
    InputNormalization,
    PlnArchitecture,
    PlnParams,
    REDUCED_HIDDEN,
    pln_error_grid,
    pln_init,
    pln_lengths,
)
from .signals import (
    AnalyticPulse,
    NoiseSpec,
    SampledSignal,
    TimeGrid,
    add_awgn,
    analytic_envelope,
    energy,
    eval_pulse,
    eval_pulse_dt,
    gaussian_kernel,
    make_pulse,
    snr_to_n0,
)
from .theory import (
    TheoremConfig,
    TheoremReport,
    estimate_lambda,
    estimate_lipschitz,
    estimate_xi,
    fd_hessian,
    make_grad_fn,
    verify_theorem,
)

__version__ = "0.1.0"
