"""Numerical verification of the adaptation robustness bound.

All machinery here works on the joint vector v = [w; p] of model weights and
source position, in normalized coordinates: position entries are rescaled so
the data-term curvature per coordinate is order one at the fitted point,
putting both blocks on the footing the bound's inequalities assume. The
strong-convexity, environment-Lipschitz, and ray-curvature constants are
sample-based estimates (lower or upper bounds on what was probed), never
certificates, and the report says which claims held.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .autodiff import NumericOverflowError, value_and_grad
from .environment import Environment, SourceLocation, path_geometry, synthesize_received
from .localize import GblConfig, _WaveformFit, da_gbl, require_gamma, toa_init
from .signals import SampledSignal, TimeGrid, at_least, require_finite, whole_number


# Probe budgets of the verification run: points on the xi ray, the
# finite-difference step relative to the cube radius, Hessian points in the
# cube, depth offsets (m, each probed with both signs) and points of the
# Lipschitz probe, and Newton polishing iterations.
KAPPA_POINTS = 33
FD_REL = 1e-2
CUBE_SAMPLES = 8
LIPSCHITZ_DEPTHS = (0.5, 1.0, 2.0, 4.0)
LIPSCHITZ_POINTS = 3
NEWTON_ITERS = 8

# The probe cube. CUBE_SIGMA is its radius in normalized coordinates, capped
# so that no probe point shifts any modeled path length by more than
# PATH_SHIFT_BUDGET_M: every probe then stays inside the carrier-aligned
# basin, where the estimated constants describe the loss the descent actually
# sees. CURVATURE_TARGET is the data-term curvature per normalized position
# coordinate at the fitted point.
CUBE_SIGMA = 0.1
PATH_SHIFT_BUDGET_M = 0.25
CURVATURE_TARGET = 1.5


@dataclass(frozen=True)
class TheoremConfig:
    """The verification run's anchor weight `gamma` (finite, >= 0) and the
    `seed` of its probe sampling (a whole number >= 0)."""

    gamma: float = 10.0
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "gamma", require_gamma(self.gamma))
        object.__setattr__(self, "seed", at_least("seed", self.seed, whole_number, 0))


# ---------------------------------------------------------------------------
# Gradient of the adaptation objective
# ---------------------------------------------------------------------------


def make_grad_fn(adapter, received: SampledSignal, gamma: float):
    """Return v_raw -> gradient of the adaptation objective at v = [w; p]."""
    objective = _WaveformFit(adapter, received, gamma, True)

    def grad_fn(v: np.ndarray) -> np.ndarray:
        _, g = value_and_grad(objective, np.asarray(v, dtype=np.float64))
        return g

    return grad_fn


# ---------------------------------------------------------------------------
# Constant estimation (generic over a gradient oracle)
# ---------------------------------------------------------------------------


def fd_hessian(grad_fn, v: np.ndarray, h: float):
    """Dense symmetric-difference Hessian and its pre-symmetrization skew."""
    n = v.size
    cols = np.empty((n, n))
    for j in range(n):
        hi = v.copy()
        lo = v.copy()
        hi[j] += h
        lo[j] -= h
        cols[:, j] = (grad_fn(hi) - grad_fn(lo)) / (2.0 * h)
    scale = float(np.max(np.abs(cols)))
    asym = float(np.max(np.abs(cols - cols.T))) / scale if scale > 0.0 else 0.0
    return 0.5 * (cols + cols.T), asym


@dataclass
class LambdaEstimate:
    """Smallest Hessian eigenvalue seen over the sampled cube."""

    lambda_hat: float
    asym_max: float
    hessian_center: np.ndarray


def estimate_lambda(
    grad_fn,
    v0: np.ndarray,
    sigma: float,
    h: float,
    n_samples: int,
    rng: np.random.Generator,
) -> LambdaEstimate:
    """Min eigenvalue of the FD Hessian over v0 plus cube-sampled points.

    A non-positive result is a valid report: it means strong convexity failed
    somewhere in the cube, not that the estimate itself broke.
    """
    points = [v0]
    for _ in range(n_samples - 1):
        points.append(v0 + sigma * rng.uniform(-1.0, 1.0, v0.size))
    mins = np.empty(len(points))
    asym_max = 0.0
    hessian_center = None
    for i, pt in enumerate(points):
        hess, asym = fd_hessian(grad_fn, pt, h)
        asym_max = max(asym_max, asym)
        mins[i] = float(np.linalg.eigvalsh(hess)[0])
        if i == 0:
            hessian_center = hess
    return LambdaEstimate(float(mins.min()), asym_max, hessian_center)


@dataclass
class LipschitzEstimate:
    """Largest gradient-change-to-perturbation ratio seen across probes."""

    l_hat: float
    rows: list


def estimate_lipschitz(grad_fn_for_depth, v_samples, depth_steps) -> LipschitzEstimate:
    """Max over probes of ||G(v, depth+d) - G(v, depth)|| / |d|.

    `grad_fn_for_depth(d)` must return a gradient oracle for the environment
    whose depth is offset by d; d = 0 is the reference. Zero steps are
    rejected rather than skipped so a bad caller fails loudly.
    """
    base = grad_fn_for_depth(0.0)
    base_grads = [base(v) for v in v_samples]
    rows = []
    for d in depth_steps:
        if d == 0.0:
            raise ValueError("depth steps must be nonzero")
        probe = grad_fn_for_depth(float(d))
        for i, v in enumerate(v_samples):
            rows.append((float(d), i, float(np.linalg.norm(probe(v) - base_grads[i])) / abs(d)))
    return LipschitzEstimate(max([0.0] + [ratio for _, _, ratio in rows]), rows)


@dataclass
class XiEstimate:
    """Curvature of the gradient along the ray v0 + kappa * H^-1 1."""

    xi_hat: float
    g0_norm: float
    gprime_max_err: float
    kappas: np.ndarray
    g_values: np.ndarray = field(repr=False)


def estimate_xi(grad_fn, v0: np.ndarray, direction: np.ndarray, sigma: float, n_points: int) -> XiEstimate:
    """Probe g(kappa) = G(v0 + kappa * direction) on [0, sigma].

    Per-coordinate second derivatives come from central differences on the
    grid; the extra point at -h makes the first derivative at 0 central too.
    For `direction` = H(v0)^-1 1 at a stationary v0, g(0) vanishes and
    g'(0) is the all-ones vector up to discretization error.
    """
    kappas = np.linspace(0.0, sigma, n_points)
    h = kappas[1] - kappas[0]
    g_values = np.stack([grad_fn(v0 + k * direction) for k in kappas])
    g_minus = grad_fn(v0 - h * direction)
    second = (g_values[2:] - 2.0 * g_values[1:-1] + g_values[:-2]) / (h * h)
    gprime0 = (g_values[1] - g_minus) / (2.0 * h)
    return XiEstimate(
        xi_hat=float(np.max(np.abs(second))),
        g0_norm=float(np.linalg.norm(g_values[0])),
        gprime_max_err=float(np.max(np.abs(gprime0 - 1.0))),
        kappas=kappas,
        g_values=g_values,
    )


# ---------------------------------------------------------------------------
# End-to-end verification
# ---------------------------------------------------------------------------


@dataclass
class TheoremReport:
    """Everything the robustness check measured, plus per-claim flags.

    All vector quantities (cube radius, theta, rho, bound, displacement) are
    in normalized coordinates; `p_scales` maps them back to meters. The fields
    after `convexity_ok` are measured only where strong convexity holds: a
    not-applicable report keeps their defaults, NaN and False.
    """

    n_w: int
    n_p: int
    gamma: float
    eps_depth_m: float
    p_scales: tuple[float, float]
    sigma_used: float
    lambda_hat: float
    lambda_center: float
    hessian_asym: float
    l_hat: float
    gbl_grad_norm: float
    polish_grad_norm: float
    seed: int
    verdict: str
    convexity_ok: bool
    xi_hat: float = math.nan
    theta: float = math.nan
    rho_cube: float = math.nan
    epsilon_budget: float = math.nan
    bound: float = math.nan
    displacement: float = math.nan
    displacement_p_m: tuple[float, float] = (math.nan, math.nan)
    g0_norm: float = math.nan
    gprime_max_err: float = math.nan
    sign_pos_min: float = math.nan
    sign_neg_max: float = math.nan
    rho_ok: bool = False
    gprime_ok: bool = False
    budget_ok: bool = False
    displacement_ok: bool = False
    signs_ok: bool = False
    passed: bool = False

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(asdict(self), indent=2, sort_keys=True) + "\n")
        return path


def _newton_polish(grad_fn, v: np.ndarray, h: float, iters: int, max_step: float):
    """Drive the gradient to roundoff with damped FD-Hessian Newton steps."""
    best_v = v.copy()
    best_norm = float(np.linalg.norm(grad_fn(v)))
    for _ in range(iters):
        hess, _ = fd_hessian(grad_fn, best_v, h)
        g = grad_fn(best_v)
        try:
            step = np.linalg.solve(hess, -g)
        except np.linalg.LinAlgError:
            break
        step_inf = float(np.max(np.abs(step)))
        if step_inf > max_step:
            step *= max_step / step_inf
        cand = best_v + step
        cand_norm = float(np.linalg.norm(grad_fn(cand)))
        if cand_norm >= best_norm:
            break
        best_v, best_norm = cand, cand_norm
        if step_inf < 1e-14:
            break
    return best_v, best_norm


def verify_theorem(
    signal_model,
    env_train: Environment,
    source: SourceLocation,
    eps_depth_m: float,
    cfg: TheoremConfig = TheoremConfig(),
    grid: TimeGrid | None = None,
) -> TheoremReport:
    """Measure the robustness bound's constants and check its claims.

    Fits the adaptation objective on noiseless data from the training
    environment, estimates the constants around the fitted point, forms the
    trust radius theta, the cube radius rho, the perturbation budget, and the
    displacement bound, then refits under the perturbed environment and checks
    the observed displacement and the sign witnesses. Assumption failures
    yield a not-applicable verdict rather than an exception, as does an xi
    probe that leaves the region where the loss is finite.

    `signal_model`, trained in `env_train`, is any model the fits can adapt
    (`pulse`, `w_train`, `signal_t`). The perturbation is a water-depth offset
    of `eps_depth_m` meters, as the Lipschitz probe that sets its budget varies
    depth only; a value that is not a finite number (a bool included) or that
    leaves the receiver outside the water raises ValueError before any fit.
    """
    require_finite("verify_theorem", eps_depth_m=eps_depth_m)
    grid = grid or TimeGrid()
    nw = signal_model.n_weights
    gbl_cfg = GblConfig(max_iter=800, step_tol_m=1e-7)

    def received(d: float) -> SampledSignal:
        """The noiseless recording at the training depth plus d."""
        env_d = replace(env_train, depth=env_train.depth + d)
        return synthesize_received(env_d, source, signal_model.pulse, grid)

    try:
        r_test = received(eps_depth_m)
    except ValueError as exc:
        raise ValueError(f"eps_depth_m {eps_depth_m!r}: {exc}") from None

    def fit(r: SampledSignal):
        """DA-GBL on `r` from the shared seed p0: ([w; p], its gradient norm)."""
        result = da_gbl(r, signal_model, p0, cfg.gamma, gbl_cfg)
        return np.concatenate([result.w_hat, result.p_hat]), result.grad_norm

    def normalized_grad(r: SampledSignal):
        """vt -> the adaptation objective's gradient on `r`, in normalized coordinates."""
        raw_grad = make_grad_fn(signal_model, r, cfg.gamma)
        return lambda vt: scales * raw_grad(vt * scales)

    def polish(grad_fn, v_raw: np.ndarray):
        """Newton-polish a raw fit in normalized coordinates: (vt, gradient norm)."""
        return _newton_polish(grad_fn, v_raw / scales, h_fd, NEWTON_ITERS, max_step=0.5 * sigma_used)

    r_train = received(0.0)
    p0 = toa_init(r_train, signal_model.pulse, env_train).p0
    v0_raw, gbl_grad_norm = fit(r_train)

    # Normalized coordinates: unit weight scale, position scales chosen so the
    # data-term curvature per position coordinate, 2 dt |df/dp_j|^2 in the
    # Gauss-Newton model, equals CURVATURE_TARGET.
    data_term = _WaveformFit(signal_model, r_train, 0.0, True)
    curv = data_term.linearize(data_term.evaluate(v0_raw))["curv_p"]
    u_p = np.sqrt(CURVATURE_TARGET / np.maximum(curv, 1e-300))
    scales = np.ones(nw + 2)
    scales[nw:] = u_p

    # Cap the cube so no probe shifts any path length out of the aligned basin:
    # |d path length / d position| per coordinate, maximized over paths.
    _, jacobian = path_geometry(env_train, v0_raw[nw], v0_raw[nw + 1])
    slopes = np.max(np.abs(jacobian()), axis=0)
    sigma_used = min(CUBE_SIGMA, PATH_SHIFT_BUDGET_M / float(slopes @ u_p))
    h_fd = FD_REL * sigma_used

    grad_train = normalized_grad(r_train)
    vt0, polish_grad_norm = polish(grad_train, v0_raw)

    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 7]))
    lam = estimate_lambda(grad_train, vt0, sigma_used, h_fd, CUBE_SAMPLES, rng)
    lambda_center = float(np.linalg.eigvalsh(lam.hessian_center)[0])

    v_samples = [vt0] + [
        vt0 + sigma_used * rng.uniform(-1.0, 1.0, vt0.size)
        for _ in range(LIPSCHITZ_POINTS - 1)
    ]
    depth_steps = [s * d for d in LIPSCHITZ_DEPTHS for s in (1.0, -1.0)]
    lip = estimate_lipschitz(lambda d: normalized_grad(received(d)), v_samples, depth_steps)

    convexity_ok = lam.lambda_hat > 0.0 and lambda_center > 0.0
    measured = dict(
        n_w=nw,
        n_p=2,
        gamma=cfg.gamma,
        eps_depth_m=eps_depth_m,
        p_scales=(float(u_p[0]), float(u_p[1])),
        sigma_used=sigma_used,
        lambda_hat=lam.lambda_hat,
        lambda_center=lambda_center,
        hessian_asym=lam.asym_max,
        l_hat=lip.l_hat,
        gbl_grad_norm=gbl_grad_norm,
        polish_grad_norm=polish_grad_norm,
        convexity_ok=convexity_ok,
        seed=cfg.seed,
    )
    if not convexity_ok:
        return TheoremReport(
            **measured,
            verdict="not-applicable: strong convexity does not hold on the sampled cube",
        )

    direction = np.linalg.solve(lam.hessian_center, np.ones(nw + 2))
    try:
        xi = estimate_xi(grad_train, vt0, direction, sigma_used, KAPPA_POINTS)
    except NumericOverflowError:
        # the probe reaches as far as H^-1 1 is long, which grows as 1 / lambda
        return TheoremReport(**measured, verdict="not-applicable: the xi probe along H^-1 1 "
                                                 "leaves the region where the loss is finite")

    theta = min(sigma_used, 1.0 / xi.xi_hat) if xi.xi_hat > 0.0 else sigma_used
    rho_cube = theta * float(np.max(np.abs(direction)))
    epsilon_budget = theta / (2.0 * lip.l_hat) if lip.l_hat > 0.0 else math.inf
    bound = theta * math.sqrt((nw + 2) / lam.lambda_hat)

    rho_ok = rho_cube <= theta / math.sqrt(lam.lambda_hat) * 1.01
    gprime_ok = xi.gprime_max_err <= 1e-2
    budget_ok = abs(eps_depth_m) <= epsilon_budget

    # Refit under the perturbed environment from the same initialization.
    grad_test = normalized_grad(r_test)
    vt_eps, _ = polish(grad_test, fit(r_test)[0])
    displacement = float(np.linalg.norm(vt0 - vt_eps))
    dp_m = np.abs(vt0[nw:] * u_p - vt_eps[nw:] * u_p)
    displacement_ok = budget_ok and bool(displacement <= bound)

    sign_pos_min = float(grad_test(vt0 + theta * direction).min())
    sign_neg_max = float(grad_test(vt0 - theta * direction).max())
    signs_ok = sign_pos_min > 0.0 and sign_neg_max < 0.0

    passed = rho_ok and gprime_ok and displacement_ok and signs_ok
    return TheoremReport(
        **measured,
        xi_hat=xi.xi_hat,
        theta=theta,
        rho_cube=rho_cube,
        epsilon_budget=epsilon_budget,
        bound=bound,
        displacement=displacement,
        displacement_p_m=(float(dp_m[0]), float(dp_m[1])),
        g0_norm=xi.g0_norm,
        gprime_max_err=xi.gprime_max_err,
        sign_pos_min=sign_pos_min,
        sign_neg_max=sign_neg_max,
        rho_ok=rho_ok,
        gprime_ok=gprime_ok,
        budget_ok=budget_ok,
        displacement_ok=displacement_ok,
        signs_ok=signs_ok,
        passed=passed,
        verdict="pass" if passed else "claim-failed" if budget_ok else "budget-exceeded",
    )
