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
The pass runs on r's rule family (quadrature.gl_rule), with the power
of sqrt(m) at 0 taken by substitution, over the density's cutoff window,
where sqrt(m) jumps, up to hermite.ZERO_PAST, from which on every
Hermite row is +0.0 (a pass whose integrand matters past
hermite.EXACT_TO is refused); it depends on t only through
B(t) = max(1, 2^ceil(log2 |t|)) >= |t|: the times of one bucket share
their nodes.  One record, keyed by the density, n_max and the rule,
keeps the nodes, the root of the density and, when
they fit in 4 MiB (n_max up to ~145 at B = 1), the Hermite rows; rows
that do not fit are built and contracted 64 at a time.
A pass's size is known before it is built, and one above 256 MiB is
rejected.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DivergenceError, QuadratureError, ValidationError
from .hermite import (EXACT_TO, ZERO_PAST, check_index_bound, hermite_fn_blocks,
                      hermite_fn_matrix)
from .quadrature import (MEMORY_BOUND, bucket, gl_integrate, gl_rule, quad_cos_range, quad_scalar,
                         rule_nodes)
from .words import WeightSequence

__all__ = [
    "SpectralDensity",
    "DENSITY_SETTINGS",
    "density_settings",
    "build_density",
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
    "sup_growth_fit",
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
    (0, 0) otherwise.  A kind rejects the parameters it does not use,
    as the kinds column of DENSITY_SETTINGS lists them: H belongs to
    fbm, the rate to exponential, b and N to custom.  origin_exponent
    is the power b with m(u) ~ scale * |u|^-b near 0 (b < 2 required);
    class_index is the integer N with polynomial growth at most |u|^{2N}.
    For fbm both follow from H at construction: b = max(0, 2H - 1), and
    N = 0 for H >= 1/2, else 1.
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
        if self.kind == "exponential" and not (math.isfinite(self.rate) and self.rate > 0):
            raise ValidationError("exponential density needs a finite rate > 0")
        # a kind rejects the parameters its law does not use; fbm derives
        # its classification from H above, whatever was passed in
        for row in DENSITY_SETTINGS.values():
            derived = self.kind == "fbm" and row.field in ("origin_exponent", "class_index")
            if not derived and self.kind not in row.kinds \
                    and getattr(self, row.field) not in (None, 0):
                raise ValidationError(f"a density of kind {self.kind!r} has no {row.field}")
        if not (float(self.class_index).is_integer() and self.class_index >= 0):
            raise ValidationError(
                f"growth class index must be an integer >= 0, got {self.class_index!r}")
        object.__setattr__(self, "class_index", int(self.class_index))
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
        """sqrt(m(u)) on an array, as the law with halved exponents: finite
        wherever m / u^2 is, and the exponential factor twice as far as m."""
        return self._evaluate(u, root=True)

    def _evaluate(self, u, root):
        u = np.abs(np.asarray(u, dtype=float))
        half = 0.5 if root else 1.0
        with np.errstate(divide="ignore", over="ignore"):
            out = (math.sqrt(self.scale) if root else self.scale) \
                * np.power(u, half * self._power) * np.power(1.0 + u * u, half * self._bracket)
            # a zero rate has no factor, not even exp(0 * inf) = nan at |u| = inf
            if self.rate:
                out = out * np.exp(half * self.rate * u)
        if self.cutoff_low > 0.0 or self.cutoff_high < math.inf:
            out = np.where((u >= self.cutoff_low) & (u <= self.cutoff_high),
                           out, 0.0)
        return out

    def over_square(self, u):
        """m(u) / u^2 by the law alone, scale u^(power - 2) (1 + u^2)^bracket
        e^{rate u}, at u with Re u > 0, where it is analytic; 1 + u^2 enters
        as (u - i)(u + i), which keeps the principal branch from overflow."""
        u = np.asarray(u, dtype=complex)
        log = (self._power - 2.0) * np.log(u) + self.rate * u
        if self._bracket:
            log += self._bracket * (np.log(u - 1j) + np.log(u + 1j))
        return self.scale * np.exp(log)


DensitySetting = namedtuple("DensitySetting", "key field default convert kinds help",
                            defaults=(None,))
# CLI dest -> its config key, SpectralDensity field, default, conversion,
# the kinds that take it and its flag's help, in the order of the flags
DENSITY_SETTINGS = {name: DensitySetting(*row) for name, row in {
    "density": ("kind", "kind", "lebesgue", str.lower, _KINDS),
    "H": ("H", "hurst", None, float, ("fbm",), "Hurst index for --density fbm"),
    "scale": ("C1", "scale", 1.0, float, _KINDS),
    "rate": ("C2", "rate", 1.0, float, ("exponential",), "decay rate for --density exp"),
    "origin_exponent": ("b", "origin_exponent", 0.0, float, ("custom",),
                        "config key b, for --density custom"),
    "class_index": ("N", "class_index", 0, int, ("custom",),
                    "config key N, for --density custom"),
    "cutoff_low": ("cutoff_low", "cutoff_low", 0.0, float, _KINDS),
    "cutoff_high": ("cutoff_high", "cutoff_high", math.inf, float, _KINDS)}.items()}


def density_settings(text: str) -> dict:
    """The settings that the ``key = value`` lines of a config file give."""
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
    names = {row.key: name for name, row in DENSITY_SETTINGS.items()}
    unknown = sorted(set(values) - set(names))
    if unknown:
        raise ValidationError(f"unknown config keys: {unknown}")
    settings = {}
    for key, val in values.items():
        try:
            settings[names[key]] = DENSITY_SETTINGS[names[key]].convert(val)
        except ValueError as exc:
            raise ValidationError(f"bad value for {key}: {val!r}") from exc
    return settings


def build_density(**settings) -> SpectralDensity:
    """The density that the settings of DENSITY_SETTINGS select.

    This is the only map from settings to a density.  A setting passed
    as None is not given; one the kind takes and not given takes its
    default, and one given to a kind that does not take it is refused.
    Text is converted by the setting's conversion; any other value
    reaches SpectralDensity as given, which refuses, say, a class index
    that is not an integer.
    """
    unknown = sorted(set(settings) - set(DENSITY_SETTINGS))
    if unknown:
        raise ValidationError(f"unknown density settings: {unknown}")
    given = {name: DENSITY_SETTINGS[name].convert(value) if isinstance(value, str) else value
             for name, value in settings.items() if value is not None}
    kind = given.get("density", DENSITY_SETTINGS["density"].default)
    kind = "exponential" if kind == "exp" else kind
    if kind not in _KINDS:
        raise ValidationError(f"unknown density kind {kind!r}")
    if kind == "fbm" and "H" not in given:
        raise ValidationError("--density fbm needs --H")
    fields = {}
    for name, row in DENSITY_SETTINGS.items():
        if kind in row.kinds:
            fields[row.field] = given.get(name, row.default)
        elif name in given:
            raise ValidationError(f"a density of kind {kind!r} takes no --"
                                  f"{name.replace('_', '-')} (config key {row.key})")
    return SpectralDensity(**{**fields, "kind": kind})


def _osc_scale(n_max: int, t: float) -> float:
    """2 sqrt(n_max) + B(t) + 1, with B(t) = max(1, 2^ceil(log2 |t|)),
    infinite when 2^ceil(log2 |t|) is above the float range."""
    return 2.0 * math.sqrt(max(n_max, 1)) + max(1.0, bucket(abs(t))) + 1.0


# Rows above _KEEP_BYTES are not kept but built _BLOCK_ROWS at a time: a
# fixed count, so that the bits of a pass do not depend on its node count
_KEEP_BYTES = 4 << 20
_BLOCK_ROWS = 64


# The multiplier pass's one record, {(dens, n_max, rule): its arrays}
_RECORD: dict = {}


def _layout_arrays(dens: SpectralDensity, n_max: int, rule: tuple):
    """The pass's record of its latest key, read-only: gl_rule(*rule), and
    dens.root and hermite_fn_matrix(n_max) on its nodes, the rows None above
    _KEEP_BYTES.  Another key's record goes before this one is built."""
    key = (dens, n_max, rule)
    if key not in _RECORD:
        _RECORD.clear()
        nodes, weights = gl_rule(*rule)
        rows = None
        if n_max * nodes.size * 8 <= _KEEP_BYTES:
            rows, = hermite_fn_blocks(n_max, nodes, n_max)
        _RECORD[key] = nodes, weights, dens.root(nodes), rows
        for array in (a for a in _RECORD[key] if a is not None):
            array.setflags(write=False)
    return _RECORD[key]


# A multiplier pass counts against MEMORY_BOUND its nodes times 8 bytes
# for each of the n_max Hermite rows, as if all were held, and for each of
# 14 node-length arrays (the layout, the factors and their temporaries, of
# which 7.4 to 9.1 are traced at n_max 4 to 512).  A pass whose rows are
# not kept holds _BLOCK_ROWS of them and two carry rows at most, so above
# n_max 64 the bound counts more than a pass holds
_PASS_ARRAYS = 14


@lru_cache(maxsize=64)
def _require_resolved_edge(dens: SpectralDensity, n_max: int) -> None:
    """QuadratureError unless the envelope max_n |hfn_n| sqrt(m) at EXACT_TO,
    past which the rows lose bits and then vanish, is at most 1e-11 of its
    peak; falling log-concavely past the peak, it then leaves out ~1.5e-11.
    A window that starts at or past EXACT_TO, where the envelope is zero
    on [0, EXACT_TO], is refused.  An overflowing root compares inf > inf
    and is left to gl_integrate."""
    if dens.cutoff_low >= EXACT_TO:
        raise QuadratureError(f"the window [{dens.cutoff_low:g}, {dens.cutoff_high:g}] "
                              f"of {dens.label()} starts at or past u = {EXACT_TO}, "
                              "past which the Hermite rows lose bits")
    u = np.linspace(EXACT_TO / 400, EXACT_TO, 400)
    with np.errstate(over="ignore"):
        env = np.abs(hermite_fn_matrix(n_max, u)).max(axis=0) * dens.root(u)
    if env[-1] > 1e-11 * env.max():
        raise QuadratureError(f"the integrand of {dens.label()} at n_max {n_max} is "
                              f"{env[-1] / env.max():.2g} of its peak at u = {EXACT_TO}, "
                              "past which the Hermite rows lose bits")


@lru_cache(maxsize=8)
def _phase_picks(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns that read tm off the signed integrals: of the rows
    cos, sin, s, k and their negatives, index n takes the row of its
    phase n % 4, cos, sin, -cos, -sin, and alpha the row two on."""
    pick = np.array([0, 1, 4, 5])[np.arange(n_max) % 4]
    cols = np.arange(n_max)
    pick.setflags(write=False)
    cols.setflags(write=False)
    return pick, cols


@lru_cache(maxsize=512)
def _tm_and_alpha(dens: SpectralDensity, t: float, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Multiplier values and their time integrals for indices 1..n_max.

    One composite pass contracts the Hermite rows against the four
    factors sqrt(m) * {cos, sin, sin / u, 2 sin^2(u t / 2) / u}; the
    four-periodic phase pattern then picks the signed cosine or sine
    integral per index.  The rule spans the density's window up to
    ZERO_PAST, past which every Hermite row is +0.0, so that no panel
    straddles a cutoff, where sqrt(m) jumps, and takes the power of sqrt(m)
    at 0 by substitution.  After the edge check, a pass that would hold
    more than MEMORY_BOUND is rejected before any node is built.
    """
    if not math.isfinite(t):
        raise ValidationError(f"time must be finite, got {t}")
    check_index_bound(n_max)
    _require_resolved_edge(dens, n_max)
    rule = (dens.cutoff_low, min(ZERO_PAST, dens.cutoff_high), _osc_scale(n_max, t),
            0.5 * dens._power)
    need = rule_nodes(*rule) * (n_max + _PASS_ARRAYS) * 8
    if need > MEMORY_BOUND:
        raise ValidationError(
            f"the multiplier layout at t = {t:g}, n_max {n_max} needs "
            f"{need / 2 ** 20:.3g} MiB, above the bound of {MEMORY_BOUND >> 20} MiB")
    nodes, weights, root, rows = _layout_arrays(dens, n_max, rule)

    def integrand(nodes):
        # the factors in place, each with the operations of its formula
        tn = t * nodes
        factors = np.empty((4, nodes.size))
        np.cos(tn, out=factors[0])
        np.sin(tn, out=factors[1])
        np.divide(factors[1], nodes, out=factors[2])
        half = np.sin(0.5 * t * nodes)
        np.multiply(2.0, half, out=factors[3])
        factors[3] *= half
        factors[3] /= nodes
        factors *= root
        blocks = hermite_fn_blocks(n_max, nodes, _BLOCK_ROWS) if rows is None else (rows,)
        return blocks, factors

    ints = _HALF_LINE_PREF * gl_integrate(integrand, nodes, weights)
    signed = np.concatenate([ints, -ints])
    pick, cols = _phase_picks(n_max)
    tm, al = signed[pick, cols], signed[pick + 2, cols]
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
    """pi r(t): the integral of 2 sin^2(t u / 2) m(u) / u^2 over a bounded
    window, or over an unbounded one below u = 1, with m ~ u^power at 0;
    an unbounded window adds, over its part above u = 1, the mass minus
    the wave, the integrals of m(u) / u^2 and of cos(t u) m(u) / u^2."""
    if t == 0.0:
        return 0.0
    lo, hi = dens.cutoff_low, dens.cutoff_high
    top, value = (hi if hi < math.inf else 1.0), 0.0
    if lo < top:
        # e^{rate u} is resolved like an oscillation at that frequency
        value = quad_scalar(lambda u: 2.0 * (np.sin(0.5 * t * u) / u) ** 2 * dens(u), lo, top,
                            abs_tol, osc=t + dens.rate, power=dens._power if lo == 0.0 else 0.0)
    if hi == math.inf:
        mass = _r_tail_mass(dens, abs_tol)
        wave = quad_cos_range(dens.over_square, t, max(1.0, lo), hi, abs_tol)
        value += mass - wave
        # the two cancel as t -> 0, and their rounding must pass the gate too
        lost = 8.0 * sys.float_info.epsilon * (abs(mass) + abs(wave))
        if lost > 50.0 * max(abs_tol, abs_tol * abs(value)):
            raise QuadratureError(f"r at t = {t:g} cancels below the rounding of its tail")
    return value / math.pi


@lru_cache(maxsize=64)
def _r_tail_mass(dens: SpectralDensity, abs_tol: float) -> float:
    """The integral of m(u) / u^2 above u = 1 in v = 1 / u: that of m(1 / v),
    ~ v^-a at 0 for the tail exponent a."""
    return quad_scalar(lambda v: dens(1.0 / v), 0.0, 1.0 / max(1.0, dens.cutoff_low),
                       abs_tol, power=-dens.tail_exponent)


def r_function(dens: SpectralDensity, t: float, abs_tol: float = 1e-9) -> float:
    """Variance-increment function; even, zero at zero.

    The kernel identity K(t,s) = r(t) + r(s) - r(t-s) holds exactly at
    the integrand level with the normalization shared by both routes.
    """
    if not math.isfinite(t):
        raise ValidationError(f"time must be finite, got {t}")
    if not (math.isfinite(abs_tol) and abs_tol > 0):
        raise ValidationError(f"tolerance must be finite and positive, got {abs_tol}")
    _require_kernel_integrable(dens)
    # r is even: one cache entry, and one set of integrals, per |t|
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


def sup_growth_fit(dens: SpectralDensity, n_top: int, t_grid,
                   fit_from: int) -> tuple[np.ndarray, PowerFit]:
    """sup over the grid of |tm_n|, n = 1..n_top, and its growth fit over
    n >= fit_from: a power law for a polynomial-class density, a
    sqrt-exponential law for an exponential one."""
    sups = tm_sup_over_t(dens, n_top, t_grid)
    ns = np.arange(1, n_top + 1)
    keep = ns >= fit_from
    fit = fit_power_law if dens.growth == "polynomial" else fit_sqrt_exponential
    return sups, fit(ns[keep], sups[keep])


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
    tail_bound: float
    fit_kind: str
    fit_exponent: float
    r_squared: float
    detail: str

    @property
    def certified(self) -> bool:
        return self.status == "certified"


def certify_tail(dens: SpectralDensity, p: int, t: float, n_max: int = 240,
                 seq: WeightSequence | None = None) -> TailReport:
    """Certify convergence of the level -p weighted coefficient sum.

    The computed indices make a finite sum; beyond them the fitted
    majorant of the derivative coefficients is extrapolated and summed
    in closed form.  A polynomial-class density needs p at least the
    class index plus 3; exponential growth against polynomial-type
    weights can never be summed and fails outright.
    """
    if seq is None:
        seq = WeightSequence.linear()
    p = int(p)
    if p < 0:
        raise ValidationError("weight level must be >= 0")
    n_max = int(n_max)
    if n_max < 16:
        raise ValidationError("need n_max >= 16 to fit a tail majorant")

    coeffs = np.abs(tm_values(dens, t, n_max))
    ns = np.arange(1, n_max + 1)
    upper = ns > n_max // 2

    def report(status, tail_bound, fit, fit_kind, detail):
        return TailReport(status=status, level=p, tail_bound=tail_bound,
                          fit_kind=fit_kind, fit_exponent=fit.exponent,
                          r_squared=fit.r_squared, detail=detail)

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
