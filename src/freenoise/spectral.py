"""Spectral densities, the square-root multiplier, and covariance kernels.

A density m >= 0 on the line defines a Fourier multiplier with symbol
sqrt(m).  Applied to the n-th Hermite function and evaluated at time t
this gives the derivative coefficient functions; integrating from 0 to
t gives the coefficient functions themselves, and the same density
yields the stationary-increment covariance kernel

    K(t, s) = r(t) + r(s) - r(t - s),
    r(t) = (1/pi) * integral_0^inf (1 - cos(ut)) m(u) / u^2 du,

which for m = 1 is min(t, s) on the positive half-line and for the
power preset scales exactly like |t|^{2H}.

Because sqrt(m) is even for every supported density, the multiplier
applied to a real Hermite function is real, and the Fourier phase
(-i)^{n-1} collapses to a four-periodic sign pattern over half-line
cosine and sine integrals.  All coefficient vectors at one time point
come from a single composite Gauss-Legendre pass whose integrands
factor into Hermite rows times four scalar factors, so the pass is one
matrix product of the weighted factors against the Hermite matrix.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DivergenceError, ValidationError
from .hermite import hermite_fn_matrix, hermite_vanishes
from .quadrature import gl_integrate, quad_cos_range, quad_scalar
from .words import WeightSequence

__all__ = [
    "SpectralDensity",
    "DensitySpec",
    "parse_density_config",
    "tm_values",
    "alpha_vector",
    "tm_sup_over_t",
    "r_function",
    "kernel",
    "dual_route_kernel",
    "frequency_cutoff",
    "PowerFit",
    "fit_power_law",
    "fit_sqrt_exponential",
    "TailReport",
    "certify_tail",
]

_INV_ROOT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
# prefactor of the folded half-line integrals
_HALF_LINE_PREF = 2.0 * _INV_ROOT_2PI

_KINDS = ("lebesgue", "fbm", "exponential", "custom")


@dataclass(frozen=True)
class SpectralDensity:
    """Even weight u |-> m(u) with its origin and growth classification.

    Every kind is one law, m(u) = scale |u|^power (1 + u^2)^bracket
    e^{rate |u|} times the cutoff window, with (power, bracket) fixed at
    construction: (1 - 2H, 0) for fbm, (-b, N + b / 2) for custom and
    (0, 0) otherwise; only the exponential kind has a rate.
    origin_exponent is the power b with m(u) ~ scale * |u|^-b near 0
    (b < 2 required); class_index is the integer N with polynomial
    growth at most |u|^{2N}.  For fbm both follow from H at
    construction: b = max(0, 2H - 1), and N = 0 for H >= 1/2, else 1.
    """

    kind: str
    hurst: float | None = None
    scale: float = 1.0
    rate: float = 0.0
    origin_exponent: float = 0.0
    class_index: int = 0
    cutoff_low: float = 0.0
    cutoff_high: float = math.inf
    _power: float = field(init=False, repr=False, compare=False)
    _bracket: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValidationError(f"unknown density kind {self.kind!r}")
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValidationError("density scale must be positive and finite")
        if self.kind == "fbm":
            if self.hurst is None or not 0.0 < self.hurst < 1.0:
                raise ValidationError("fbm preset needs 0 < H < 1")
            # the classification follows H, whatever the caller passed
            object.__setattr__(self, "origin_exponent",
                               max(0.0, 2.0 * self.hurst - 1.0))
            object.__setattr__(self, "class_index", 0 if self.hurst >= 0.5 else 1)
        if not self.origin_exponent < 2:
            raise ValidationError(
                f"origin singularity exponent {self.origin_exponent} too strong, need < 2")
        if self.kind == "exponential":
            if not (math.isfinite(self.rate) and self.rate > 0):
                raise ValidationError("exponential density needs a finite rate > 0")
        elif self.rate != 0.0:
            raise ValidationError(f"a {self.kind} density has no rate")
        if self.class_index < 0:
            raise ValidationError("growth class index must be >= 0")
        if not 0.0 <= self.cutoff_low < self.cutoff_high:
            raise ValidationError("cutoffs must satisfy 0 <= low < high")
        power, bracket = 0.0, 0.0
        if self.kind == "fbm":
            power = 1.0 - 2.0 * self.hurst
        elif self.kind == "custom":
            power = -self.origin_exponent
            bracket = self.class_index + 0.5 * self.origin_exponent
        object.__setattr__(self, "_power", power)
        object.__setattr__(self, "_bracket", bracket)

    @classmethod
    def lebesgue(cls, scale: float = 1.0) -> "SpectralDensity":
        return cls(kind="lebesgue", scale=scale)

    @classmethod
    def fbm(cls, hurst: float, scale: float = 1.0) -> "SpectralDensity":
        return cls(kind="fbm", hurst=float(hurst), scale=scale)

    @classmethod
    def exponential(cls, rate: float = 1.0, scale: float = 1.0) -> "SpectralDensity":
        return cls(kind="exponential", rate=float(rate), scale=scale)

    @classmethod
    def custom(cls, origin_exponent: float = 0.0, class_index: int = 0,
               scale: float = 1.0, cutoff_low: float = 0.0,
               cutoff_high: float = math.inf) -> "SpectralDensity":
        return cls(kind="custom", scale=scale,
                   origin_exponent=float(origin_exponent),
                   class_index=int(class_index),
                   cutoff_low=cutoff_low, cutoff_high=cutoff_high)

    @property
    def growth(self) -> str:
        return "exponential" if self.kind == "exponential" else "polynomial"

    @property
    def tail_exponent(self) -> float:
        """Power of the large-u growth; -inf when a high cutoff truncates."""
        if self.cutoff_high < math.inf:
            return -math.inf
        if self.kind == "exponential":
            return math.inf
        # 2N exactly, where power + 2 bracket could round away from it
        return 2.0 * self.class_index if self.kind == "custom" else self._power

    def label(self) -> str:
        if self.kind == "fbm":
            return f"fbm(H={self.hurst:g})"
        if self.kind == "exponential":
            return f"exponential(rate={self.rate:g})"
        return self.kind

    def __call__(self, u):
        return self._evaluate(u, root=False)

    def root(self, u):
        """sqrt(m(u)) on an array; the exponential factor is halved,
        e^{rate |u| / 2}, so it stays finite twice as far out as m."""
        return self._evaluate(u, root=True)

    def _evaluate(self, u, root):
        u = np.abs(np.asarray(u, dtype=float))
        with np.errstate(divide="ignore", over="ignore"):
            out = self.scale * np.power(u, self._power) \
                * np.power(1.0 + u * u, self._bracket)
            if root:
                out = np.sqrt(out)
            # a zero rate has no factor, not even exp(0 * inf) = nan at |u| = inf
            if self.rate:
                out = out * np.exp((0.5 * self.rate if root else self.rate) * u)
        if self.cutoff_low > 0.0 or self.cutoff_high < math.inf:
            out = np.where((u >= self.cutoff_low) & (u <= self.cutoff_high),
                           out, 0.0)
        return out

    def at(self, u: float) -> float:
        """m(u) at one float, with math in place of numpy.

        This is the evaluator for the QUADPACK callbacks, which call it
        once per node.  It has the zeros, infinities and cutoff edges of
        __call__; values agree except where libm pow rounds differently
        from numpy's in the last bit.
        """
        u = abs(u)
        if not self.cutoff_low <= u <= self.cutoff_high:
            return 0.0
        if u == 0.0 and self._power < 0:
            return math.inf
        try:
            m = self.scale * u ** self._power * (1.0 + u * u) ** self._bracket
            return m * math.exp(self.rate * u) if self.rate else m
        except OverflowError:
            return math.inf


# config key -> (DensitySpec field, conversion)
_CONFIG_KEYS = {"kind": ("kind", str.lower), "H": ("H", float), "C1": ("scale", float),
                "C2": ("rate", float), "b": ("origin_exponent", float),
                "N": ("class_index", int), "cutoff_low": ("cutoff_low", float),
                "cutoff_high": ("cutoff_high", float)}


@dataclass(frozen=True)
class DensitySpec:
    """The parameters that select a density, from CLI flags or a config file.

    build() is the only map from a spec to a density; a kind ignores the
    parameters it has no use for.
    """

    kind: str
    H: float | None = None
    scale: float = 1.0
    rate: float = 1.0
    origin_exponent: float = 0.0
    class_index: int = 0
    cutoff_low: float = 0.0
    cutoff_high: float = math.inf

    @classmethod
    def from_config(cls, text: str) -> "DensitySpec":
        """Read the ``key = value`` lines of parse_density_config."""
        values: dict[str, str] = {}
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValidationError(f"expected 'key = value', got {line!r}")
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
        if "kind" not in values:
            raise ValidationError("density config needs a 'kind' line")
        if "cutoffs" in values:
            parts = values.pop("cutoffs").split(",")
            if len(parts) != 2:
                raise ValidationError("cutoffs takes two comma-separated numbers")
            # cutoff_low / cutoff_high lines override the pair
            values = {"cutoff_low": parts[0], "cutoff_high": parts[1], **values}
        unknown = sorted(set(values) - set(_CONFIG_KEYS))
        if unknown:
            raise ValidationError(f"unknown config keys: {unknown}")
        fields = {}
        for key, val in values.items():
            name, convert = _CONFIG_KEYS[key]
            try:
                fields[name] = convert(val)
            except ValueError as exc:
                raise ValidationError(f"bad value for {key}: {val!r}") from exc
        return cls(**fields)

    def build(self) -> SpectralDensity:
        if self.kind == "lebesgue":
            dens = SpectralDensity.lebesgue(self.scale)
        elif self.kind == "fbm":
            if self.H is None:
                raise ValidationError("--density fbm needs --H")
            dens = SpectralDensity.fbm(self.H, self.scale)
        elif self.kind in ("exp", "exponential"):
            dens = SpectralDensity.exponential(self.rate, self.scale)
        elif self.kind == "custom":
            dens = SpectralDensity.custom(self.origin_exponent, self.class_index,
                                          self.scale)
        else:
            raise ValidationError(f"unknown density kind {self.kind!r}")
        return dataclasses.replace(dens, cutoff_low=self.cutoff_low,
                                   cutoff_high=self.cutoff_high)


def parse_density_config(text: str) -> SpectralDensity:
    """Build a density from ``key = value`` lines.

    Keys: kind (lebesgue | fbm | exp | exponential | custom), H, b, N
    (an integer), C1 (overall scale), C2 (exponential rate), cutoffs
    (low,high) or cutoff_low / cutoff_high.  '#' starts a comment.
    """
    return DensitySpec.from_config(text).build()


def _osc_scale(n_max: int, t: float) -> float:
    return 2.0 * math.sqrt(max(n_max, 1)) + abs(t) + 1.0


def _tail_stop(n_max: int) -> float:
    return max(30.0, math.sqrt(2.0 * n_max + 1.0) + 12.0)


@lru_cache(maxsize=512)
def _tm_and_alpha(dens: SpectralDensity, t: float, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Multiplier values and their time integrals for indices 1..n_max.

    One composite pass contracts the Hermite rows against the four
    factors sqrt(m) * {cos, sin, sin / u, 2 sin^2(u t / 2) / u}; the
    four-periodic phase pattern then selects the cosine or sine
    integral per index.
    """
    if not math.isfinite(t):
        raise ValidationError(f"time must be finite, got {t}")

    def integrand(nodes):
        st = np.sin(t * nodes)
        half = np.sin(0.5 * t * nodes)
        factors = np.stack([np.cos(t * nodes), st, st / nodes, 2.0 * half * half / nodes])
        rows = None if hermite_vanishes(nodes) else hermite_fn_matrix(n_max, nodes)
        return rows, factors * dens.root(nodes)

    ints = gl_integrate(integrand, _osc_scale(n_max, t), _tail_stop(n_max))
    cos_i, sin_i, s_i, k_i = (_HALF_LINE_PREF * ints[j] for j in range(4))
    phase = np.arange(n_max) % 4
    tm = np.select([phase == 0, phase == 1, phase == 2, phase == 3],
                   [cos_i, sin_i, -cos_i, -sin_i])
    al = np.select([phase == 0, phase == 1, phase == 2, phase == 3],
                   [s_i, k_i, -s_i, -k_i])
    tm.setflags(write=False)
    al.setflags(write=False)
    return tm, al


def tm_values(dens: SpectralDensity, t: float, n_max: int) -> np.ndarray:
    """Multiplier applied to Hermite functions 1..n_max, evaluated at t."""
    if n_max < 1:
        raise ValidationError("n_max must be >= 1")
    return _tm_and_alpha(dens, float(t), int(n_max))[0]


def alpha_vector(dens: SpectralDensity, t: float, n_max: int) -> np.ndarray:
    """Coefficient functions alpha_n(t) for n = 1..n_max.

    alpha_n is the integral of the multiplier value from 0 to t, done
    analytically in the frequency domain so a single quadrature pass
    serves the whole vector; alpha_n(0) = 0.
    """
    if n_max < 1:
        raise ValidationError("n_max must be >= 1")
    if t == 0.0:
        return np.zeros(n_max)
    return _tm_and_alpha(dens, float(t), int(n_max))[1]


def tm_sup_over_t(dens: SpectralDensity, n_max: int, t_grid) -> np.ndarray:
    """max over the grid of |multiplier value|, per index 1..n_max."""
    sup = np.zeros(n_max)
    for t in t_grid:
        sup = np.maximum(sup, np.abs(tm_values(dens, float(t), n_max)))
    return sup


def _require_kernel_integrable(dens: SpectralDensity) -> None:
    if dens.origin_exponent >= 1.0 and dens.cutoff_low == 0.0:
        raise DivergenceError(
            f"covariance integral diverges at the origin for b = {dens.origin_exponent}")
    if dens.tail_exponent >= 1.0:
        raise DivergenceError(
            f"covariance integral diverges at infinity for {dens.label()}")


@lru_cache(maxsize=4096)
def _r_cached(dens: SpectralDensity, t: float, abs_tol: float) -> float:
    if t == 0.0:
        return 0.0
    m = dens.at

    def head(u):
        half = math.sin(0.5 * t * u)
        return 2.0 * half * half * m(u) / (u * u)

    value = quad_scalar(head, 0.0, 1.0, abs_tol, abs_tol)
    hi = dens.cutoff_high
    if hi > 1.0:
        value += _r_tail_mass(dens, abs_tol)
        value -= quad_cos_range(_tail_amp(dens), t, 1.0, hi, abs_tol)
    return value / math.pi


def _tail_amp(dens: SpectralDensity):
    """The scalar integrand u |-> m(u) / u^2 of r's tail."""
    m = dens.at
    return lambda u: m(u) / (u * u)


@lru_cache(maxsize=64)
def _r_tail_mass(dens: SpectralDensity, abs_tol: float) -> float:
    """The t-independent part of r's tail: integral over (1, hi) of m(u) / u^2."""
    return quad_scalar(_tail_amp(dens), 1.0, dens.cutoff_high, abs_tol, abs_tol)


def r_function(dens: SpectralDensity, t: float, abs_tol: float = 1e-9) -> float:
    """Variance-increment function; even, zero at zero.

    The kernel identity K(t,s) = r(t) + r(s) - r(t-s) holds exactly at
    the integrand level with the normalization shared by both routes.
    """
    if not math.isfinite(t):
        raise ValidationError(f"time must be finite, got {t}")
    _require_kernel_integrable(dens)
    # r is even: one cache entry, and one QUADPACK run, per |t|
    return _r_cached(dens, abs(float(t)), abs_tol)


def kernel(dens: SpectralDensity, t: float, s: float,
           abs_tol: float = 1e-9) -> float:
    """Stationary-increment covariance kernel at (t, s)."""
    return (r_function(dens, t, abs_tol) + r_function(dens, s, abs_tol)
            - r_function(dens, t - s, abs_tol))


def dual_route_kernel(dens: SpectralDensity, t: float, s: float,
                      n_max: int) -> float:
    """Kernel through the Hermite coefficient route, truncated at n_max."""
    return float(alpha_vector(dens, t, n_max) @ alpha_vector(dens, s, n_max))


def frequency_cutoff(dens: SpectralDensity, tol: float = 1e-10) -> float:
    """Frequency U beyond which the kernel integrand tail is below tol.

    Uses the bound |e^{iut} - 1|^2/u^2 <= 4/u^2 and the density's tail
    power, so the reported cutoff is conservative.
    """
    _require_kernel_integrable(dens)
    if dens.cutoff_high < math.inf:
        return dens.cutoff_high
    a = dens.tail_exponent
    amp = 4.0 * dens.scale
    # integral_U^inf amp * u^(a-2) du = amp * U^(a-1) / (1-a)
    return (tol * (1.0 - a) / amp) ** (1.0 / (a - 1.0))


class PowerFit(NamedTuple):
    exponent: float
    log_scale: float
    r_squared: float


def _fit_line(x: np.ndarray, y: np.ndarray) -> PowerFit:
    if len(x) < 3:
        raise ValidationError("need at least 3 points for a growth fit")
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    total = y - np.mean(y)
    denom = float(total @ total)
    r2 = 1.0 - float(resid @ resid) / denom if denom > 0 else 1.0
    return PowerFit(float(slope), float(intercept), r2)


def fit_power_law(n_values, y_values) -> PowerFit:
    """Least-squares fit of log|y| against log n; exponent is the slope."""
    n = np.asarray(n_values, dtype=float)
    y = np.abs(np.asarray(y_values, dtype=float))
    keep = y > 0
    return _fit_line(np.log(n[keep]), np.log(y[keep]))


def fit_sqrt_exponential(n_values, y_values) -> PowerFit:
    """Fit of log|y| against sqrt(n); exponent is the sqrt-rate."""
    n = np.asarray(n_values, dtype=float)
    y = np.abs(np.asarray(y_values, dtype=float))
    keep = y > 0
    return _fit_line(np.sqrt(n[keep]), np.log(y[keep]))


@dataclass(frozen=True)
class TailReport:
    """Outcome of the weighted-tail certification for a coefficient vector.

    status is "certified" when the fitted majorant gives a finite tail
    bound under a level meeting the regularity threshold, "uncertified"
    when the level is too low or the weights too weak, and "failed"
    when the empirical growth exceeds what the density's class admits.
    """
    status: str
    level: int
    class_index: int
    n_max: int
    weighted_partial: float
    partial_checkpoints: tuple[tuple[int, float], ...]
    tail_bound: float
    fit_kind: str
    fit_scale: float
    fit_exponent: float
    r_squared: float
    detail: str

    @property
    def certified(self) -> bool:
        return self.status == "certified"


def _weight_factors(seq: WeightSequence, p: int, n_max: int) -> np.ndarray:
    ns = np.arange(1, n_max + 1, dtype=float)
    if seq.kind == "linear":
        return (2.0 * ns) ** (-float(p))
    return np.exp2(-float(p) * ns)


def certify_tail(dens: SpectralDensity, p: int, t: float, n_max: int = 240,
                 seq: WeightSequence | None = None) -> TailReport:
    """Certify convergence of the level -p weighted coefficient sum.

    The partial sum runs over computed indices; beyond them the fitted
    majorant of the derivative coefficients is extrapolated and summed
    in closed form.  A polynomial-class density needs p at least the
    class index plus 3; exponential growth against polynomial-type
    weights can never be summed and fails outright.
    """
    if seq is None:
        seq = WeightSequence.linear()
    if seq.kind == "custom":
        raise ValidationError("tail certification needs an unbounded weight sequence")
    p = int(p)
    if p < 0:
        raise ValidationError("weight level must be >= 0")
    n_max = int(n_max)
    if n_max < 16:
        raise ValidationError("need n_max >= 16 to fit a tail majorant")

    coeffs = np.abs(tm_values(dens, t, n_max))
    factors = _weight_factors(seq, p, n_max)
    terms = coeffs * coeffs * factors
    cumulative = np.cumsum(terms)
    checkpoints = tuple((k, float(cumulative[k - 1]))
                        for k in (n_max // 4, n_max // 2, 3 * n_max // 4, n_max))
    partial = float(cumulative[-1])
    ns = np.arange(1, n_max + 1)
    upper = ns > n_max // 2

    def report(status, tail_bound, fit, fit_kind, detail):
        return TailReport(status=status, level=p, class_index=dens.class_index,
                          n_max=n_max, weighted_partial=partial,
                          partial_checkpoints=checkpoints,
                          tail_bound=tail_bound, fit_kind=fit_kind,
                          fit_scale=math.exp(fit.log_scale) if fit else math.nan,
                          fit_exponent=fit.exponent if fit else math.nan,
                          r_squared=fit.r_squared if fit else math.nan,
                          detail=detail)

    if seq.kind == "linear":
        if dens.growth == "exponential":
            fit = fit_sqrt_exponential(ns[upper], coeffs[upper])
            return report("failed", math.inf, fit, "sqrt-exponential",
                          "exponentially growing coefficients defeat every "
                          "polynomial-type weight level")
        fit = fit_power_law(ns[upper], coeffs[upper])
        template = 0.5 * (dens.class_index + 1)
        if fit.exponent > template + 0.3:
            return report("failed", math.inf, fit, "power",
                          f"fitted growth {fit.exponent:.3f} exceeds the "
                          f"class template {template:.3f}")
        if p < dens.class_index + 3:
            return report("uncertified", math.inf, fit, "power",
                          f"level {p} below the regularity threshold "
                          f"{dens.class_index + 3}")
        beta = p - 2.0 * fit.exponent
        if beta <= 1.0:
            return report("uncertified", math.inf, fit, "power",
                          "weights too weak for the fitted growth")
        # majorant constant taken over the asymptotic fit region only
        keep = upper & (coeffs > 0)
        majorant = float(np.max(coeffs[keep] / ns[keep] ** fit.exponent))
        tail = (majorant ** 2) * 2.0 ** (-p) \
            * n_max ** (1.0 - beta) / (beta - 1.0)
        return report("certified", tail, fit, "power",
                      f"tail beyond n = {n_max} bounded by {tail:.3e}")

    fit = fit_sqrt_exponential(ns[upper], coeffs[upper])
    rate = max(fit.exponent, 0.0)
    ratio = math.exp(rate / math.sqrt(n_max)) * 2.0 ** (-p)
    if ratio >= 1.0:
        return report("uncertified", math.inf, fit, "sqrt-exponential",
                      "geometric weights do not dominate the fitted growth")
    keep = upper & (coeffs > 0)
    majorant = float(np.max(coeffs[keep] * np.exp(-fit.exponent * np.sqrt(ns[keep]))))
    first = (majorant ** 2) * math.exp(2.0 * fit.exponent * math.sqrt(n_max + 1.0)) \
        * 2.0 ** (-p * (n_max + 1.0))
    tail = first / (1.0 - ratio)
    return report("certified", tail, fit, "sqrt-exponential",
                  f"geometric domination with ratio {ratio:.3e}")
