"""Scenario preparation from raw nodal price history.

The pipeline turns a long-format price CSV (timestamp, node, price) into the
inputs the allocation models need:

1. ingest_lmp_csv: one streaming pass pivoting the file into a wide
   (observations x nodes) matrix plus the system price series, with hard
   errors on malformed rows, duplicate cells and missing observations.
2. kmeans_reduce: deterministic k-means (greedy farthest-point seeding from
   a fixed seed, lowest-index tie-breaks) whose clusters become scenarios;
   the representative of a cluster is the member closest to its centroid
   and the scenario probability is cluster_size / n.
3. knee_point: picks k on an inertia curve by the largest perpendicular
   distance to the chord between the curve's endpoints.
4. estimate_q: sample covariance (divisor n-1) of nodal deviations from the
   system price, factored as sigma = Q Q^T with Q lower-triangular Cholesky;
   a doubling diagonal jitter repairs borderline non-PSD matrices.
5. scenarios_from_representatives: expands representative top-of-staircase
   prices into a full ScenarioSet using the instance's per-market elasticity
   rule (price decrement per tranche, constant width, constant over periods).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .domain import MarketInstance, ScenarioSet

DEFAULT_COLUMNS = {"timestamp": "timestamp", "node": "node", "price": "price",
                   "system": "SYSTEM"}
# Raw PJM hourly LMP exports use:
#   {"timestamp": "datetime_beginning_ept", "node": "pnode_id",
#    "price": "total_lmp_rt", "system": "PJM"}

MAX_JITTER_DOUBLINGS = 20
KMEANS_MAX_ITER = 300


class ParseError(ValueError):
    """Malformed CSV input; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class MissingObservation(ValueError):
    """The pivoted matrix has a hole: some (timestamp, node) never appeared."""


class NotPositiveDefinite(RuntimeError):
    """Covariance stayed non-PSD even after the jitter ladder."""


@dataclass(frozen=True)
class PriceHistory:
    timestamps: tuple[str, ...]  # observation order = first appearance in the file
    nodes: tuple[str, ...]  # sorted node names, system excluded
    nodal: np.ndarray  # (N, M)
    system: np.ndarray  # (N,)

    def __post_init__(self):
        for name in ("nodal", "system"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def ingest_lmp_csv(path, column_map: dict | None = None) -> PriceHistory:
    """Pivot a long (timestamp, node, price) CSV into a PriceHistory.

    column_map may rename the three columns and the reserved system-node key
    (defaults: timestamp/node/price and node name "SYSTEM").  Duplicate
    (timestamp, node) pairs and unparseable rows raise ParseError with the
    offending line number; a node missing some timestamp, or a timestamp
    without a system row, raises MissingObservation.
    """
    colmap = dict(DEFAULT_COLUMNS)
    if column_map:
        unknown = set(column_map) - set(DEFAULT_COLUMNS)
        if unknown:
            raise ValueError(f"unknown column_map keys: {sorted(unknown)}")
        colmap.update(column_map)
    ts_col, node_col, price_col = colmap["timestamp"], colmap["node"], colmap["price"]
    system_key = colmap["system"]

    cells: dict[tuple[str, str], float] = {}
    timestamps: list[str] = []
    seen_ts: set[str] = set()
    nodes: set[str] = set()
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise ParseError("empty file", 1)
        missing_cols = {ts_col, node_col, price_col} - set(reader.fieldnames)
        if missing_cols:
            raise ParseError(f"missing columns {sorted(missing_cols)}", 1)
        for row in reader:
            line = reader.line_num
            ts = (row.get(ts_col) or "").strip()
            node = (row.get(node_col) or "").strip()
            raw_price = (row.get(price_col) or "").strip()
            if not ts or not node:
                raise ParseError("empty timestamp or node", line)
            try:
                price = float(raw_price)
            except ValueError:
                raise ParseError(f"bad price {raw_price!r}", line) from None
            if not math.isfinite(price):
                raise ParseError(f"non-finite price {raw_price!r}", line)
            if (ts, node) in cells:
                raise ParseError(f"duplicate observation for ({ts}, {node})", line)
            cells[ts, node] = price
            if ts not in seen_ts:
                seen_ts.add(ts)
                timestamps.append(ts)
            nodes.add(node)

    if not timestamps:
        raise ParseError("no data rows", 2)
    nodes.discard(system_key)
    node_order = tuple(sorted(nodes))
    if not node_order:
        raise MissingObservation("no market nodes besides the system row")
    nodal = np.empty((len(timestamps), len(node_order)))
    system = np.empty(len(timestamps))
    for r, ts in enumerate(timestamps):
        if (ts, system_key) not in cells:
            raise MissingObservation(f"no system ({system_key}) price at {ts}")
        system[r] = cells[ts, system_key]
        for c, node in enumerate(node_order):
            if (ts, node) not in cells:
                raise MissingObservation(f"node {node} has no price at {ts}")
            nodal[r, c] = cells[ts, node]
    return PriceHistory(timestamps=tuple(timestamps), nodes=node_order,
                        nodal=nodal, system=system)


@dataclass(frozen=True)
class ReducedScenarios:
    representatives: np.ndarray  # (k, M) actual sample rows, one per cluster
    representative_indices: np.ndarray  # (k,) row index of each representative
    probabilities: np.ndarray  # (k,) cluster_size / n
    labels: np.ndarray  # (N,) cluster of every input row
    centroids: np.ndarray  # (k, M)
    inertia: float  # sum of squared distances to assigned centroids

    def __post_init__(self):
        for name in ("representatives", "probabilities", "centroids"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        for name in ("representative_indices", "labels"):
            arr = np.asarray(getattr(self, name), dtype=int)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _sq_dist(x, points):
    diff = x[:, None, :] - points[None, :, :]
    return np.einsum("nkm,nkm->nk", diff, diff)


def _farthest_point_seeds(x, k, seed):
    rng = np.random.default_rng(seed)
    first = int(rng.integers(x.shape[0]))
    chosen = [first]
    dist = ((x - x[first]) ** 2).sum(axis=1)
    for _ in range(k - 1):
        nxt = int(np.argmax(dist))  # argmax returns the lowest index on ties
        chosen.append(nxt)
        dist = np.minimum(dist, ((x - x[nxt]) ** 2).sum(axis=1))
    return x[chosen].copy()


def kmeans_reduce(matrix, k: int, seed: int = 0) -> ReducedScenarios:
    """Deterministic k-means reduction of observation rows into k scenarios.

    Seeding is greedy farthest-point from a seed-chosen start, assignment
    ties go to the lowest cluster index, an emptied cluster is re-seeded at
    the point farthest from its current centroid, and iteration stops when
    assignments no longer change (at most 300 rounds).  The representative
    of each cluster is its member closest to the centroid, lowest row index
    on ties; probabilities are exact cluster shares.
    """
    x = np.asarray(matrix, dtype=float)
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("expected a non-empty (observations x features) matrix")
    if not np.isfinite(x).all():
        raise ValueError("price matrix contains non-finite values")
    n = x.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in 1..{n}, got {k}")

    centroids = _farthest_point_seeds(x, k, seed)
    labels = np.full(n, -1, dtype=int)
    for _ in range(KMEANS_MAX_ITER):
        d = _sq_dist(x, centroids)
        new_labels = np.argmin(d, axis=1)  # lowest cluster index wins ties
        counts = np.bincount(new_labels, minlength=k)
        for j in range(k):
            if counts[j] == 0:
                # re-seed an emptied cluster at the farthest point, drawn
                # only from clusters that can spare a member
                current = d[np.arange(n), new_labels]
                far = int(np.argmax(np.where(counts[new_labels] >= 2, current, -1.0)))
                counts[new_labels[far]] -= 1
                counts[j] = 1
                new_labels[far] = j
                centroids[j] = x[far]
            else:
                centroids[j] = x[new_labels == j].mean(axis=0)
        if (new_labels == labels).all():
            break
        labels = new_labels

    d = _sq_dist(x, centroids)
    inertia = float(d[np.arange(n), labels].sum())
    reps = np.empty(k, dtype=int)
    counts = np.empty(k, dtype=int)
    for j in range(k):
        members = np.nonzero(labels == j)[0]
        counts[j] = members.size
        reps[j] = int(members[np.argmin(d[members, j])])  # lowest row on ties
    probabilities = counts / n  # exact rationals cluster_size/n, then float
    return ReducedScenarios(representatives=x[reps], representative_indices=reps,
                            probabilities=probabilities, labels=labels,
                            centroids=centroids, inertia=inertia)


def knee_point(ks, inertias) -> int:
    """k with the largest perpendicular distance to the endpoint chord.

    ks must be strictly increasing.  Ties choose the smaller k; a flat curve
    (all inertias equal) carries no knee information and yields the smallest
    k, as do curves with fewer than three points.
    """
    ks = list(ks)
    inertias = [float(v) for v in inertias]
    if len(ks) != len(inertias) or not ks:
        raise ValueError("ks and inertias must be equal-length and non-empty")
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValueError("ks must be strictly increasing")
    if len(ks) <= 2 or len(set(inertias)) == 1:
        return ks[0]
    x0, y0 = float(ks[0]), inertias[0]
    x1, y1 = float(ks[-1]), inertias[-1]
    dx, dy = x1 - x0, y1 - y0
    chord = math.hypot(dx, dy)
    best_k, best_dist = ks[0], -1.0
    for k, inertia in zip(ks[1:-1], inertias[1:-1]):
        dist = abs(dy * (k - x0) - dx * (inertia - y0)) / chord
        if dist > best_dist + 1e-15:
            best_k, best_dist = k, dist
    return best_k


@dataclass(frozen=True)
class QEstimate:
    q: np.ndarray  # (M, M) lower-triangular factor, q @ q.T == sigma
    sigma: np.ndarray  # (M, M) sample covariance of deviations (divisor n-1)
    q_bar: np.ndarray  # (M,) mean system price in every coordinate; informational
    jitter: float  # diagonal added before factoring; 0.0 when none was needed

    def __post_init__(self):
        for name in ("q", "sigma", "q_bar"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def factor_covariance(sigma) -> tuple[np.ndarray, float]:
    """Lower-triangular Q with Q Q^T = sigma, via Cholesky plus jitter ladder.

    A clean factorization returns jitter 0.0; otherwise a diagonal shift
    starting at 1e-10 * trace(sigma)/M and doubling up to 20 times is tried,
    and exhaustion raises NotPositiveDefinite.
    """
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    n_m = sigma.shape[0]
    if sigma.shape != (n_m, n_m):
        raise ValueError("covariance must be square")
    try:
        return np.linalg.cholesky(sigma), 0.0
    except np.linalg.LinAlgError:
        pass
    delta = 1e-10 * float(np.trace(sigma)) / n_m
    for _ in range(MAX_JITTER_DOUBLINGS):
        if delta > 0.0:
            try:
                return np.linalg.cholesky(sigma + delta * np.eye(n_m)), delta
            except np.linalg.LinAlgError:
                pass
        delta *= 2.0
    raise NotPositiveDefinite(
        "covariance is not positive semidefinite even after "
        f"{MAX_JITTER_DOUBLINGS} jitter doublings")


def estimate_q(nodal, system) -> QEstimate:
    """Covariance factor of nodal deviations from the system price.

    Deviations are nodal[i, m] - system[i]; sigma is their sample covariance
    with divisor n-1, factored by factor_covariance.
    """
    nodal = np.asarray(nodal, dtype=float)
    system = np.asarray(system, dtype=float)
    if nodal.ndim != 2 or system.ndim != 1 or nodal.shape[0] != system.shape[0]:
        raise ValueError("need nodal (N, M) and system (N,) with matching N")
    if nodal.shape[0] < 2:
        raise ValueError("covariance needs at least two observations")
    deviations = nodal - system[:, None]
    sigma = np.atleast_2d(np.cov(deviations, rowvar=False, ddof=1))
    q, jitter = factor_covariance(sigma)
    q_bar = float(system.mean()) * np.ones(sigma.shape[0])
    return QEstimate(q=q, sigma=sigma, q_bar=q_bar, jitter=jitter)


def scenarios_from_representatives(instance: MarketInstance, representatives,
                                   probabilities,
                                   markets: tuple[str, ...] | None = None) -> ScenarioSet:
    """Expand representative top-tranche prices into a full ScenarioSet.

    Column m of representatives is the top-of-staircase spot price for
    markets[m] in every period; lower tranches follow the instance's
    elasticity rule, price dropping by the market decrement per step with
    constant width.
    """
    reps = np.asarray(representatives, dtype=float)
    probs = np.asarray(probabilities, dtype=float)
    if markets is None:
        markets = instance.markets
    if reps.ndim != 2 or reps.shape[1] != len(markets):
        raise ValueError(f"representatives must be (scenarios x {len(markets)})")
    if probs.shape != (reps.shape[0],):
        raise ValueError("one probability per representative row required")
    n_s = reps.shape[0]
    n_t = instance.periods
    prices: dict[str, np.ndarray] = {}
    widths: dict[str, np.ndarray] = {}
    for m, market in enumerate(markets):
        curve = instance.elasticity.get(market)
        if curve is None:
            raise ValueError(f"instance has no elasticity rule for market {market!r}")
        top = reps[:, m]  # (S,)
        ladder = top[None, :] - curve.decrement * np.arange(curve.steps)[:, None]  # (K, S)
        prices[market] = np.repeat(ladder[:, None, :], n_t, axis=1)
        widths[market] = np.full((curve.steps, n_t, n_s), curve.width)
    return ScenarioSet(probabilities=probs, prices=prices, widths=widths)
