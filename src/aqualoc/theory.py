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
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import value_and_grad
from .environment import Environment, SourceLocation, path_geometry, synthesize_received
from .forward import ModelParams, NetworkModel
from .localize import GblConfig, _WaveformFit, da_gbl, require_gamma, toa_init
from .signals import SampledSignal, TimeGrid, at_least, require_finite, whole_number


@dataclass(frozen=True)
class EnvPerturbation:
    """Offset applied to the assumed environment: depth (m), sound speed (m/s)."""

    depth_m: float = 0.0
    sound_speed_ms: float = 0.0

    def __post_init__(self) -> None:
        require_finite("perturbation", depth_m=self.depth_m, sound_speed_ms=self.sound_speed_ms)

    @property
    def norm(self) -> float:
        return math.hypot(self.depth_m, self.sound_speed_ms)

    def applied_to(self, env: Environment) -> Environment:
        return Environment(
            depth=env.depth + self.depth_m,
            sound_speed=env.sound_speed + self.sound_speed_ms,
            receiver_depth=env.receiver_depth,
        )


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
    per_point: np.ndarray
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
    return LambdaEstimate(float(mins.min()), mins, asym_max, hessian_center)


@dataclass
class LipschitzEstimate:
    """Largest gradient-change-to-perturbation ratio seen across probes."""

    l_hat: float
    rows: list
    argmax: tuple


def estimate_lipschitz(grad_fn_for_depth, v_samples, depth_steps) -> LipschitzEstimate:
    """Max over probes of ||G(v, depth+d) - G(v, depth)|| / |d|.

    `grad_fn_for_depth(d)` must return a gradient oracle for the environment
    whose depth is offset by d; d = 0 is the reference. Zero steps are
    rejected rather than skipped so a bad caller fails loudly.
    """
    base = grad_fn_for_depth(0.0)
    base_grads = [base(v) for v in v_samples]
    rows = []
    best = (0.0, None)
    for d in depth_steps:
        if d == 0.0:
            raise ValueError("depth steps must be nonzero")
        probe = grad_fn_for_depth(float(d))
        for i, v in enumerate(v_samples):
            ratio = float(np.linalg.norm(probe(v) - base_grads[i])) / abs(d)
            rows.append((float(d), i, ratio))
            if ratio > best[0]:
                best = (ratio, (float(d), i))
    return LipschitzEstimate(best[0], rows, best[1])


@dataclass
class XiEstimate:
    """Curvature of the gradient along the ray v0 + kappa * H^-1 1."""

    xi_hat: float
    xi_per_coord: np.ndarray
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
    xi_per_coord = np.max(np.abs(second), axis=0)
    gprime0 = (g_values[1] - g_minus) / (2.0 * h)
    return XiEstimate(
        xi_hat=float(xi_per_coord.max()),
        xi_per_coord=xi_per_coord,
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
    in normalized coordinates; `p_scales` maps them back to meters.
    """

    n_w: int
    n_p: int
    gamma: float
    eps_depth_m: float
    eps_sound_speed_ms: float
    eps_norm: float
    p_scales: tuple[float, float]
    sigma_used: float
    lambda_hat: float
    lambda_center: float
    hessian_asym: float
    l_hat: float
    xi_hat: float
    theta: float
    rho_cube: float
    epsilon_budget: float
    bound: float
    displacement: float
    displacement_p_m: tuple[float, float]
    g0_norm: float
    gprime_max_err: float
    sign_pos_min: float
    sign_neg_max: float
    gbl_grad_norm: float
    polish_grad_norm: float
    convexity_ok: bool
    rho_ok: bool
    gprime_ok: bool
    budget_ok: bool
    displacement_ok: bool
    signs_ok: bool
    passed: bool
    verdict: str
    seed: int

    def to_dict(self) -> dict:
        doc = asdict(self)
        doc["p_scales"] = list(self.p_scales)
        doc["displacement_p_m"] = list(self.displacement_p_m)
        return doc

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")
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


def _fit(adapter, received, p0, gamma, gbl_cfg) -> np.ndarray:
    result = da_gbl(received, adapter, p0, gamma, gbl_cfg)
    return np.concatenate([result.w_hat, result.p_hat]), result.grad_norm


def verify_theorem(
    model: ModelParams,
    env_train: Environment,
    source: SourceLocation,
    eps: EnvPerturbation,
    cfg: TheoremConfig = TheoremConfig(),
    grid: TimeGrid | None = None,
) -> TheoremReport:
    """Measure the robustness bound's constants and check its claims.

    Fits the adaptation objective on noiseless data from the training
    environment, estimates the constants around the fitted point, forms the
    trust radius theta, the cube radius rho, the perturbation budget, and the
    displacement bound, then refits under the perturbed environment and checks
    the observed displacement and the sign witnesses. Assumption failures
    yield a not-applicable verdict rather than an exception.
    """
    grid = grid or TimeGrid()
    pulse = model.pulse
    r_train = synthesize_received(env_train, source, pulse, grid)
    adapter = NetworkModel(model)
    nw = adapter.n_weights

    p0 = toa_init(r_train, pulse, env_train).p0

    gbl_cfg = GblConfig(max_iter=800, step_tol_m=1e-7)
    v0_raw, gbl_grad_norm = _fit(adapter, r_train, p0, cfg.gamma, gbl_cfg)

    # Normalized coordinates: unit weight scale, position scales chosen so the
    # data-term curvature per position coordinate, 2 dt |df/dp_j|^2 in the
    # Gauss-Newton model, equals CURVATURE_TARGET.
    fit = _WaveformFit(adapter, r_train, 0.0, True)
    curv = fit.linearize(fit.evaluate(v0_raw))["curv_p"]
    curv = np.maximum(curv, 1e-300)
    u_p = np.sqrt(CURVATURE_TARGET / curv)
    scales = np.ones(nw + 2)
    scales[nw:] = u_p

    def to_raw(vt: np.ndarray) -> np.ndarray:
        return vt * scales

    def normalized_grad(received: SampledSignal):
        """vt -> the adaptation objective's gradient on `received`, in normalized coordinates."""
        raw_grad = make_grad_fn(adapter, received, cfg.gamma)
        return lambda vt: scales * raw_grad(to_raw(vt))

    grad_norm_fn = normalized_grad(r_train)

    # Cap the cube so no probe shifts any path length out of the aligned basin:
    # |d path length / d position| per coordinate, maximized over paths.
    lengths, s_dz = path_geometry(env_train, v0_raw[nw], v0_raw[nw + 1])
    slopes = np.max(np.abs([v0_raw[nw] / lengths, s_dz / lengths]), axis=1)
    shift_per_sigma = float(slopes @ u_p)
    sigma_used = min(CUBE_SIGMA, PATH_SHIFT_BUDGET_M / shift_per_sigma)
    h_fd = FD_REL * sigma_used

    vt0 = v0_raw / scales
    vt0, polish_grad_norm = _newton_polish(
        grad_norm_fn, vt0, h_fd, NEWTON_ITERS, max_step=0.5 * sigma_used
    )
    v0_raw = to_raw(vt0)

    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 7]))
    lam = estimate_lambda(grad_norm_fn, vt0, sigma_used, h_fd, CUBE_SAMPLES, rng)
    lambda_center = float(np.linalg.eigvalsh(lam.hessian_center)[0])

    def grad_fn_for_depth(d: float):
        if d == 0.0:
            return grad_norm_fn
        env_d = EnvPerturbation(depth_m=d).applied_to(env_train)
        return normalized_grad(synthesize_received(env_d, source, pulse, grid))

    v_samples = [vt0] + [
        vt0 + sigma_used * rng.uniform(-1.0, 1.0, vt0.size)
        for _ in range(LIPSCHITZ_POINTS - 1)
    ]
    depth_steps = [s * d for d in LIPSCHITZ_DEPTHS for s in (1.0, -1.0)]
    lip = estimate_lipschitz(grad_fn_for_depth, v_samples, depth_steps)

    convexity_ok = lam.lambda_hat > 0.0 and lambda_center > 0.0
    n_total = nw + 2
    measured = dict(
        n_w=nw,
        n_p=2,
        gamma=cfg.gamma,
        eps_depth_m=eps.depth_m,
        eps_sound_speed_ms=eps.sound_speed_ms,
        eps_norm=eps.norm,
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
        nan = math.nan
        return TheoremReport(
            **measured,
            xi_hat=nan, theta=nan, rho_cube=nan, epsilon_budget=nan, bound=nan,
            displacement=nan, displacement_p_m=(nan, nan), g0_norm=nan, gprime_max_err=nan,
            sign_pos_min=nan, sign_neg_max=nan,
            rho_ok=False, gprime_ok=False, budget_ok=False, displacement_ok=False,
            signs_ok=False, passed=False,
            verdict="not-applicable: strong convexity does not hold on the sampled cube",
        )

    direction = np.linalg.solve(lam.hessian_center, np.ones(n_total))
    xi = estimate_xi(grad_norm_fn, vt0, direction, sigma_used, KAPPA_POINTS)

    theta = min(sigma_used, 1.0 / xi.xi_hat) if xi.xi_hat > 0.0 else sigma_used
    rho_cube = theta * float(np.max(np.abs(direction)))
    epsilon_budget = theta / (2.0 * lip.l_hat) if lip.l_hat > 0.0 else math.inf
    bound = theta * math.sqrt(n_total / lam.lambda_hat)

    rho_ok = rho_cube <= theta / math.sqrt(lam.lambda_hat) * 1.01
    gprime_ok = xi.gprime_max_err <= 1e-2
    budget_ok = eps.norm <= epsilon_budget

    # Refit under the perturbed environment from the same initialization.
    env_test = eps.applied_to(env_train)
    r_test = synthesize_received(env_test, source, pulse, grid)
    v_eps_raw, _ = _fit(adapter, r_test, p0, cfg.gamma, gbl_cfg)
    grad_norm_eps = normalized_grad(r_test)
    vt_eps, _ = _newton_polish(
        grad_norm_eps, v_eps_raw / scales, h_fd, NEWTON_ITERS, max_step=0.5 * sigma_used
    )
    displacement = float(np.linalg.norm(vt0 - vt_eps))
    dp_m = np.abs(to_raw(vt0)[nw:] - to_raw(vt_eps)[nw:])
    displacement_ok = bool(displacement <= bound) if budget_ok else False

    v_plus = vt0 + theta * direction
    v_minus = vt0 - theta * direction
    g_plus = grad_norm_eps(v_plus)
    g_minus = grad_norm_eps(v_minus)
    sign_pos_min = float(g_plus.min())
    sign_neg_max = float(g_minus.max())
    signs_ok = sign_pos_min > 0.0 and sign_neg_max < 0.0

    if not budget_ok:
        verdict = "budget-exceeded"
        passed = False
    else:
        passed = bool(rho_ok and gprime_ok and displacement_ok and signs_ok)
        verdict = "pass" if passed else "claim-failed"

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
        verdict=verdict,
    )

