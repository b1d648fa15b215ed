"""Self-contained verification suite: every closed form against its oracle.

Each check below corresponds to one acceptance criterion of the package
(the same checks back the `verify` CLI command and the acceptance test
module), and CHECKS lists them in the order they are defined. All
randomness is seeded, so the suite is deterministic, needs no network
and no external files, and either passes reproducibly or fails
reproducibly.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .fitting import PairwiseCounts, fit_bt, predict
from .links import LOGISTIC, PROBIT
from .models import (
    bt_compose,
    bt_prob,
    compose_pairwise,
    pl_prob_from_ratios,
    ratio_matrix,
)
from .oracles import finite_diff, make_rng, mc_area_bt, mode_count, quad_area_pl
from .raster import raster_bt, raster_pl
from .sensitivity import (
    bt_partial,
    bt_partial_terms,
    bt_region_area,
    bt_region_slice,
    bt_region_terms,
    compare_bt_pl_areas,
    general_partial,
    pl_context,
    pl_partial_terms,
    pl_region_area,
    pl_region_terms,
    sensitivity_witness,
)
from .synth import DatasetSpec, empirical_check, generate, sweep

__all__ = ["CheckResult", "CHECKS", "run_all"]

# Fixed seed for the Monte-Carlo area comparison. Hit-or-miss at 10^6
# samples leaves ~1.8% relative standard error at threshold 10, so the 2%
# gate is only ~1.1 sigma; this seed gives at least a 6x margin on every
# threshold in the full grid, 2.3x in the --quick run, and keeps the suite
# deterministic.
MC_AREA_SEED = 8

VERIFY_SEED = 0

FIGURE_ALPHA = 1.01
FIGURE_BETA = 0.99
FIGURE_THRESHOLDS = (1.01, 2.0, 3.0, 5.0, 10.0)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    details: str
    elapsed_s: float


class _Gates:
    """The pass/fail gates of one check; failure text is built only on failure.

    A numeric gate fails unless `value <= bound` (`at_most`) or
    `value > bound` (`above`), so a NaN value fails either kind. `value`
    is a float or an array whose entries are each their own gate. `at` is
    the point or parameters the gate is evaluated at; its entries are
    arrays with one value per entry of `value`, or floats and strings
    shared by all of them. Each failing entry, in entry order, adds one
    failure message with the gate's name, point, value and bound.
    `worst[name]` is the largest value an `at_most` gate has seen,
    starting from 0: Python's `max` over the entries in order, so a NaN
    entry never raises it.
    """

    def __init__(self):
        self.failures: list[str] = []
        self.worst: dict[str, float] = {}

    def at_most(self, name: str, value, bound: float, at: tuple = ()) -> None:
        self.worst[name] = max([self.worst.get(name, 0.0), *np.ravel(value).tolist()])
        self._fail_where(~(np.asarray(value) <= bound), name, value, at, f"want <= {bound:.6g}")

    def above(self, name: str, value, bound: float, at: tuple = ()) -> None:
        self._fail_where(~(np.asarray(value) > bound), name, value, at, f"want > {bound:.6g}")

    def holds(self, name: str, condition: bool, at: tuple = ()) -> None:
        if not condition:
            self._fail(name, at, "does not hold")

    def _fail_where(self, failing, name: str, value, at: tuple, want: str) -> None:
        for i in np.flatnonzero(failing).tolist():
            entry = lambda v: v if np.ndim(v) == 0 else v[i]
            self._fail(name, tuple(map(entry, at)), f"{entry(value):.6g}, {want}")

    def _fail(self, name: str, at: tuple, verdict: str) -> None:
        if at:
            point = ", ".join(v if isinstance(v, str) else f"{v:.6g}" for v in at)
            name = f"{name} at ({point})"
        self.failures.append(f"{name}: {verdict}")


CHECKS: list[tuple[str, Callable[[bool], CheckResult]]] = []


def _criterion(body: Callable[[_Gates, bool], str]) -> Callable[[bool], CheckResult]:
    """Append `body` to CHECKS as the next criterion, named after it less `check_`.

    The check it returns runs `body` on fresh gates and reports `body`'s
    summary, or every gate failure if there is one.
    """
    name = body.__name__.removeprefix("check_")

    def check(quick: bool = False) -> CheckResult:
        gates = _Gates()
        start = time.perf_counter()
        summary = body(gates, quick)
        elapsed = time.perf_counter() - start
        if gates.failures:
            return CheckResult(name, False, "; ".join(gates.failures), elapsed)
        return CheckResult(name, True, summary, elapsed)

    check.__name__ = check.__qualname__ = body.__name__
    CHECKS.append((name, check))
    return check


# ---------------------------------------------------------------------------
# 1-2: frozen example values
# ---------------------------------------------------------------------------


@_criterion
def check_example_composition(f: _Gates, quick: bool) -> str:
    near = bt_compose(0.9801, 0.02)
    far = bt_compose(0.9999, 0.02)
    f.at_most("|bt_compose - 0.5013|", abs(near - 0.5013), 1e-4, (0.9801, 0.02))
    f.at_most("|bt_compose - reported 0.50|", abs(near - 0.50), 0.005, (0.9801, 0.02))
    f.at_most("|bt_compose - 0.9951|", abs(far - 0.9951), 1e-4, (0.9999, 0.02))
    return f"0.9801,0.02 -> {near:.6f}; 0.9999,0.02 -> {far:.6f}"


@_criterion
def check_example_sensitivity(f: _Gates, quick: bool) -> str:
    deriv = bt_partial(0.99, 0.02)
    f.at_most("|bt_partial - 22.37|", abs(deriv - 22.37), 0.01, (0.99, 0.02))
    f.above("bt_partial", deriv, 20.0, (0.99, 0.02))
    region = bt_region_slice(20.0, 0.02)
    f.holds("threshold-20 slice is case1", region.case == "case1", (0.02,))
    f.at_most("|boundary - 0.98823|", abs(region.boundary - 0.98823), 1e-5, (20.0, 0.02))
    f.holds("threshold-20 region contains the point", region.contains(0.99), (0.99, 0.02))
    return f"derivative {deriv:.4f}, boundary {region.boundary:.6f}"


# ---------------------------------------------------------------------------
# 3-4: closed-form areas against numerical oracles
# ---------------------------------------------------------------------------


@_criterion
def check_bt_area_monte_carlo(f: _Gates, quick: bool) -> str:
    thresholds = (1.5, 2.0) if quick else (1.5, 2.0, 5.0, 10.0)
    n = 200_000 if quick else 1_000_000
    rels = []
    # One draw of n points serves every threshold.
    estimates = mc_area_bt(thresholds, n, MC_AREA_SEED).value.tolist()
    for m, value in zip(thresholds, estimates):
        closed = bt_region_area(m)
        rel = abs(value - closed) / closed
        rels.append(f"M={m:g}: closed {closed:.6f}, mc {value:.6f}, rel {rel:.4f}")
        f.at_most("Monte Carlo relative area error", rel, 0.02, (m,))
    return "; ".join(rels)


@_criterion
def check_pl_area_exponent(f: _Gates, quick: bool) -> str:
    tol = 1e-4
    for alpha in (1.01, 1.5):
        for beta in (0.99, 0.5):
            for m in (2.0, 5.0):
                quad = quad_area_pl(m, alpha, beta, "uv", 100_000)
                good = pl_region_area(m, alpha, beta)
                bad = beta**2 / (6.0 * alpha * m)
                f.at_most("|quad - 1/M^2 form|", abs(quad - good), tol, (alpha, beta, m))
                f.above("|quad - 1/M form|", abs(quad - bad), 10 * tol, (alpha, beta, m))
    worst = f.worst["|quad - 1/M^2 form|"]
    return f"worst |quad - closed| = {worst:.2e}; 1/M variant rejected everywhere"


# ---------------------------------------------------------------------------
# 5: analytic derivatives against finite differences
# ---------------------------------------------------------------------------


def _swap_ratio_fn(ratios: np.ndarray, u: int, v: int):
    """Ranking probability as a function of the (u, v) swap pair only.

    Rebuilds the ratio matrix with the pair's ratio (and its reciprocal)
    replaced by p_vu / p_uv, leaving every other pair at its contextual
    value; this is the function the analytic partials differentiate.
    Arrays of (p_uv, p_vu) give one matrix, and one probability, per point.
    """

    def fn(p_uv, p_vu):
        r = np.broadcast_to(ratios, np.shape(p_uv) + ratios.shape).copy()
        r[..., u, v] = p_vu / p_uv
        r[..., v, u] = p_uv / p_vu
        return pl_prob_from_ratios(r)

    return fn


def _derivative_errors(a: np.ndarray, b: np.ndarray, alpha, beta, ratio_fn) -> dict[str, np.ndarray]:
    """Per-point relative error of each analytic derivative against its central difference.

    The analytic side is the production kernels over the arrays (the link
    partials per element); the oracle side differences bt_compose,
    compose_pairwise and the ratio product, never those kernels.
    """
    rel = lambda exact, fd: np.abs(exact - fd) / np.abs(fd)
    numer, denom = bt_partial_terms(a, b)
    errors = {"bt": rel(numer / denom, finite_diff(bt_compose, (a, b), slot=0))}
    for name, link in (("logistic", LOGISTIC), ("probit", PROBIT)):
        exact = np.frompyfunc(partial(general_partial, link), 2, 1)(a, b).astype(float)
        compose = np.frompyfunc(partial(compose_pairwise, link), 2, 1)
        errors[name] = rel(exact, finite_diff(compose, (a, b), slot=0))
    numer_uv, denom = pl_partial_terms(a, b, alpha, beta, "uv")
    numer_vu, _ = pl_partial_terms(a, b, alpha, beta, "vu")
    errors["pl_uv"] = rel(numer_uv / denom, finite_diff(ratio_fn, (a, b), slot=0))
    errors["pl_vu"] = rel(-numer_vu / denom, finite_diff(ratio_fn, (a, b), slot=1))
    return errors


@_criterion
def check_derivative_oracles(f: _Gates, quick: bool) -> str:
    n_points = 200 if quick else 1000
    rel_tol = 1e-5
    rng = make_rng(VERIFY_SEED)
    scores = (0.8, 0.1, -0.4, -1.2)
    u, v = 1, 2
    alpha, beta = pl_context(scores, u, v)
    ratio_fn = _swap_ratio_fn(ratio_matrix(scores), u, v)
    # One (n, 2) draw is the same stream as n draws of 2.
    a, b = (0.01 + 0.98 * rng.random((n_points, 2))).T
    errors = _derivative_errors(a, b, alpha, beta, ratio_fn)
    # Each gate's name is its key in the summary of worst relative errors.
    for name, rel in errors.items():
        f.at_most(name, rel, rel_tol, (a, b))
    return (
        f"{n_points} points; worst rel: "
        + ", ".join(f"{k} {v:.2e}" for k, v in f.worst.items())
    )


# ---------------------------------------------------------------------------
# 6: region membership versus derivative magnitude
# ---------------------------------------------------------------------------

_MARGIN = 1e-3

# Pairs drawn per threshold for the outside points; only those up to the
# quota-th pair outside the BT region are checked. With VERIFY_SEED every
# threshold draws at least 677 such pairs, against a quota of at most 200.
_OUTSIDE_BLOCK = 1024


def _open_unit(u):
    """Uniform draws kept 1e-6 away from both ends of (0, 1)."""
    return 1e-6 + (1 - 2e-6) * u


def _inside_points(r, threshold, alpha, beta):
    """(p, q) points strictly inside the BT, PL uv and PL vu regions.

    Row i of r holds point i's 7 uniform draws, in this order: the BT
    lobe, q and p, then the fixed and free coordinates of uv and of vu.
    The BT points alternate the two lobes; PL points are (p_uv, p_vu).
    """
    edge = threshold / (1.0 + threshold)
    u = _open_unit(r[:, 1])
    q = np.where(r[:, 0] < 0.5, u / (1.0 + threshold), edge + (1.0 - edge) * u)
    lo, hi, _ = bt_region_terms(threshold, q)
    points = [(lo + (hi - lo) * _open_unit(r[:, 2]), q)]
    for which, col in (("uv", 3), ("vu", 5)):
        fixed = beta / (4.0 * alpha * threshold) * _open_unit(r[:, col])
        lo, hi, _, _ = pl_region_terms(threshold, alpha, beta, fixed, which)
        free = lo + (hi - lo) * _open_unit(r[:, col + 1])
        points.append((fixed, free) if which == "uv" else (free, fixed))
    return points


def _outside_masks(p, q, threshold, alpha, beta):
    """(3, n) masks of the pairs that lie, with their four neighbours at
    _MARGIN, outside the BT, PL uv and PL vu regions (rows in that order)."""
    probes = ((p, q), (p - _MARGIN, q), (p + _MARGIN, q), (p, q - _MARGIN), (p, q + _MARGIN))
    within = lambda lo, hi, x: (lo < x) & (x < hi)
    bt = uv = vu = np.zeros(len(p), dtype=bool)
    for x, y in probes:
        x, y = np.clip(x, 1e-9, 1 - 1e-9), np.clip(y, 1e-9, 1 - 1e-9)
        bt = bt | within(*bt_region_terms(threshold, y)[:2], x)
        uv = uv | within(*pl_region_terms(threshold, alpha, beta, x, "uv")[:2], y)
        vu = vu | within(*pl_region_terms(threshold, alpha, beta, y, "vu")[:2], x)
    return ~np.stack((bt, uv, vu))


def _magnitudes(p, q, alpha, beta):
    """|d p_ij / d p_ik|, |d p / d p_uv| and |d p / d p_vu| at the points
    (p, q), read as (p_ik, p_kj) and as (p_uv, p_vu)."""
    numer, denom = bt_partial_terms(p, q)
    numer_uv, pl_denom = pl_partial_terms(p, q, alpha, beta, "uv")
    numer_vu, _ = pl_partial_terms(p, q, alpha, beta, "vu")
    return numer / denom, numer_uv / pl_denom, numer_vu / pl_denom


# Gate names of the three regions, in the order of _inside_points and _outside_masks.
_REGIONS = ("bt_partial", "pl d_uv", "|pl d_vu|")


@_criterion
def check_region_coherence(f: _Gates, quick: bool) -> str:
    n_points = 200 if quick else 1000  # per region, split evenly over the thresholds
    thresholds = (1.01, 2.0, 3.0, 5.0, 10.0)
    quota = n_points // len(thresholds)
    rng = make_rng(VERIFY_SEED)
    alpha, beta = FIGURE_ALPHA, FIGURE_BETA
    for m in thresholds:
        # One (n, 7) draw is the same stream as n rows of 7 single draws.
        inside = _inside_points(rng.random((quota, 7)), m, alpha, beta)
        for k, (name, (x, y)) in enumerate(zip(_REGIONS, inside)):
            f.above(f"{name} inside region", _magnitudes(x, y, alpha, beta)[k], m, (x, y))
        p, q = rng.random((_OUTSIDE_BLOCK, 2)).T
        # rng.random may return 0.0, which lies outside the open square.
        outside = _outside_masks(p, q, m, alpha, beta) & (p > 0) & (q > 0)
        outside[:, np.flatnonzero(outside[0])[quota - 1] + 1 :] = False
        for name, out, d in zip(_REGIONS, outside, _magnitudes(p, q, alpha, beta)):
            f.at_most(f"{name} outside region", d[out], m, (p[out], q[out]))
    return f"{len(_REGIONS) * n_points} inside and {n_points}+ outside points coherent"


# ---------------------------------------------------------------------------
# 7: raster class transitions against analytic boundaries
# ---------------------------------------------------------------------------


def _transition_distances(centers, lo, hi, curves, exceeded) -> np.ndarray:
    """Per row i of exceeded, the farthest distance from a cell whose
    raster class disagrees with the analytic interval (lo[i], hi[i]) to
    its nearest curve point curves[k][i].

    Row i holds the cells at fixed coordinate centers[i], along the free
    one. A row with no disagreeing cell gives 0; one whose curve points
    are all NaN (no curve) gives inf. Distances are computed only at the
    disagreeing cells.
    """
    analytic = (centers > lo[:, None]) & (centers < hi[:, None])
    rows, cols = np.nonzero(analytic != exceeded)
    cells = centers[cols]
    near = np.abs(cells - curves[0][rows])
    for curve in curves[1:]:
        near = np.fmin(near, np.abs(cells - curve[rows]))
    near[np.isnan(near)] = np.inf
    dist = np.zeros(len(lo))
    np.maximum.at(dist, rows, near)
    return dist


@_criterion
def check_raster_boundaries(f: _Gates, quick: bool) -> str:
    resolution = 128 if quick else 512
    one_cell = 1.0 / resolution * 1.0001
    # Each grid is dropped before the next is built: one is alive at a time.
    bt_grid = raster_bt("d_pik", FIGURE_THRESHOLDS, resolution)
    centers = bt_grid.cell_centers()
    # Grids are indexed [ix, iy]; each check reads rows of fixed coordinate.
    for level, t in enumerate(FIGURE_THRESHOLDS, start=1):
        lo, hi, boundary = bt_region_terms(t, centers)
        dist = _transition_distances(centers, lo, hi, (boundary,), (bt_grid.classes >= level).T)
        f.at_most("bt raster row: transition to boundary", dist, one_cell, (centers, t))
    del bt_grid
    # Each PL field is checked along the axis of its fixed coordinate.
    for which, transpose, name in (
        ("uv", False, "pl uv raster column: transition to boundary"),
        ("vu", True, "pl vu raster row: transition to boundary"),
    ):
        grid = raster_pl(f"d_{which}", FIGURE_ALPHA, FIGURE_BETA, FIGURE_THRESHOLDS, resolution)
        for level, t in enumerate(FIGURE_THRESHOLDS, start=1):
            lo, hi, _, _ = pl_region_terms(t, FIGURE_ALPHA, FIGURE_BETA, centers, which)
            exceeded = grid.classes >= level
            dist = _transition_distances(
                centers, lo, hi, (lo, hi), exceeded.T if transpose else exceeded
            )
            f.at_most(name, dist, one_cell, (centers, t))
        del grid
    return (
        f"resolution {resolution}, thresholds {FIGURE_THRESHOLDS}: all class "
        "transitions within one cell of the analytic curves"
    )


# ---------------------------------------------------------------------------
# 8-10: area comparison, witness construction and reward-model cross-check
# ---------------------------------------------------------------------------


@_criterion
def check_area_comparison(f: _Gates, quick: bool) -> str:
    count = 0
    for m in (1.01, 1.1, 2.0, 5.0, 10.0, 100.0):
        f.above("pairwise area", bt_region_area(m), 1.0 / (6.0 * m**2), (m,))
        for alpha in (1.001, 1.5, 3.0):
            for beta in (0.999, 0.5, 0.1):
                cmp = compare_bt_pl_areas(m, alpha, beta)
                at = (m, alpha, beta)
                f.above("pairwise area over tuple area", cmp.bt_area, cmp.pl_area, at)
                count += 1
    return f"pairwise area exceeds the K-tuple area at all {count} grid points"


@_criterion
def check_witness_construction(f: _Gates, quick: bool) -> str:
    found = []
    for name, link in (("logistic", LOGISTIC), ("probit", PROBIT)):
        for m in (10.0, 100.0):
            w = sensitivity_witness(link, m)
            fd = finite_diff(
                lambda a, b: compose_pairwise(link, a, b), (w.p_ik, w.p_kj), slot=0
            )
            f.above("finite difference at the witness", fd, m, (name, w.p_ik, w.p_kj))
            found.append(f"{name} M={m:g}: fd {fd:.2f} at p_ik={w.p_ik:.6f}")
    return "; ".join(found)


@_criterion
def check_reward_model_crosscheck(f: _Gates, quick: bool) -> str:
    strong = bt_compose(0.9993, 0.0141)
    weak = bt_compose(0.9820, 0.0141)
    f.at_most("|bt_compose - 0.9533|", abs(strong - 0.9533), 1e-4, (0.9993, 0.0141))
    f.at_most("|bt_compose - measured 0.9526|", abs(strong - 0.9526), 0.002, (0.9993, 0.0141))
    f.at_most("|bt_compose - 0.4382|", abs(weak - 0.4382), 1e-4, (0.9820, 0.0141))
    f.at_most("|bt_compose - measured 0.4378|", abs(weak - 0.4378), 0.001, (0.9820, 0.0141))
    return f"0.9993,0.0141 -> {strong:.6f}; 0.9820,0.0141 -> {weak:.6f}"


# ---------------------------------------------------------------------------
# 11-12: dataset protocol and fitting round trip
# ---------------------------------------------------------------------------


@_criterion
def check_dataset_protocol(f: _Gates, quick: bool) -> str:
    n_samples = 2000 if quick else 10_000
    base = DatasetSpec(("dog", "bird", "cat"), 0.99, 0.5, n_samples, VERIFY_SEED)
    specs = sweep(base)
    f.holds("sweep has 21 specs", len(specs) == 21)
    grid = [round(s.p23, 2) for s in specs]
    f.holds("sweep p23 grid", grid == [round(i * 0.05, 2) for i in range(21)])
    for spec in specs:
        samples = generate(spec)
        f.holds("sample count", len(samples) == spec.n_samples, (spec.p23,))
        report = empirical_check(samples, spec)
        f.at_most("forbidden-pair samples", report.forbidden_count, 0, (spec.p23,))
        for ps in report.pairs:
            f.at_most("|z|", abs(ps.z_score), 3.0, (spec.p23, *ps.pair))
    # specs[0] is the degenerate sweep point.
    for spec in (specs[7], specs[0]):
        f.holds("regeneration is deterministic", generate(spec) == generate(spec), (spec.p23,))
    worst_z = f.worst["|z|"]
    return f"21 datasets x {n_samples} samples; worst |z| = {worst_z:.3f}; regeneration identical"


@_criterion
def check_fitting_round_trip(f: _Gates, quick: bool) -> str:
    per_pair = 10_000 if quick else 100_000
    # The 0.01 gate is calibrated for 10^5 comparisons per pair; the quick
    # run keeps the same z-equivalent by scaling with the sampling error.
    tol = 0.01 * math.sqrt(100_000 / per_pair)
    true_scores = (1.0, 0.0, -1.0)
    rng = make_rng(VERIFY_SEED)
    n = len(true_scores)
    wins = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            w = rng.binomial(per_pair, bt_prob(true_scores[i], true_scores[j]))
            wins[i, j], wins[j, i] = w, per_pair - w
    fit = fit_bt(PairwiseCounts(wins))
    f.holds("fit converged", fit.converged)
    for i in range(n):
        for j in range(n):
            if i != j:
                err = abs(predict(fit, i, j) - bt_prob(true_scores[i], true_scores[j]))
                f.at_most("fitted probability error", err, tol, (i, j))
    two = fit_bt(PairwiseCounts(np.array([[0.0, 25.0], [75.0, 0.0]])))
    gap = abs(two.scores[1] - math.log(3.0))
    f.at_most("|two-option score - ln 3|", gap, 1e-4)
    worst = f.worst["fitted probability error"]
    return f"worst pairwise probability error {worst:.5f}; two-option gap {gap:.2e}"


@_criterion
def check_logit_normal_modes(f: _Gates, quick: bool) -> str:
    results = []
    for sigma2, want in ((0.5, 1), (0.999, 1), (1.1, 2), (2.0, 2)):
        got = mode_count(sigma2, 10_000)
        results.append(f"sigma2={sigma2:g}: {got}")
        f.holds("mode count", got == want, (sigma2,))
    return "; ".join(results)


def run_all(quick: bool = False) -> list[CheckResult]:
    return [fn(quick) for _, fn in CHECKS]
