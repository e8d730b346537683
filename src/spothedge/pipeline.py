"""Scenario preparation from raw nodal price history.

The pipeline turns a long-format price CSV (timestamp, node, price) into the
inputs the allocation models need:

1. ingest_lmp_csv: one streaming pass pivoting the file into a wide
   (observations x nodes) matrix plus the system price series, with hard
   errors on malformed rows, duplicate cells, missing observations, bytes
   that are not UTF-8 and text the csv module cannot read.  A pipe, or
   any path that is not a regular file, is first copied once into a
   temporary file.  The file is cut after newlines into byte spans, one
   per CPU, which the process and forked children read (see _spread); a
   file too small to share is one span.  A span is read in blocks of
   about INGEST_CHUNK_BYTES that end at a line break, each split into
   lines and then into fields by one str.split of the whole block, and
   parsed straight into the span's own (timestamp, node) price grid, NaN
   where no row gave a price.  The csv module reads only what that split
   cannot: a file with a quote (a quoted field may hold a line break or a
   comma), which is one span read whole, and a block whose lines are not
   all as wide as the header.  The spans merge in file order, where the
   rows read and the cells left NaN find duplicates and holes.  Memory is
   one block of text per process, the grid, and one dict entry per
   timestamp and node.  This pass only notices that something is wrong.
   A file with a problem is read a second time, row by row, and that
   reading names the first problem a row-by-row reader meets, at its csv
   line; it keeps one dict entry per timestamp and node and one integer
   code per cell.
2. kmeans_reduce: deterministic k-means (greedy farthest-point seeding from
   a fixed seed, lowest-index tie-breaks) whose clusters become scenarios;
   the representative of a cluster is the member closest to its centroid
   and the scenario probability is cluster_size / n.  Every row carries an
   upper bound on its distance to its own centroid and a lower bound on
   its distance to every other one; after each centroid update they grow
   and shrink by how far the centroids moved (triangle inequality, rounded
   outward).  A row whose bounds stay apart by more than the rounding of
   the exact distances keeps its label unscreened (Hamerly, SDM 2010).  The
   other rows are screened with the GEMM ||c||^2 - 2 C x^T, which also
   resets their bounds; a round in which some screened row's best and
   runner-up lie within the rounding bound uses the exact distances of all
   rows instead, so the labels are always the exact argmin.  The first
   round screens every row.  An exact round keeps every bound: a row whose
   bounds held keeps its label in the exact argmin too, and a row left
   stale stays stale, as its bounds only widen, until a screen resets them.
   A re-seed keeps them too: the emptied centroid jumps at least as far as
   the re-seeded row's lower bound, so the update leaves that row stale.
   Centroid sums come from bincount, which adds the members in row order
   as a boolean-mask mean does.  The final pass needs each row's distance
   to its own centroid only.  The exact distances are built in row blocks,
   never as a whole (n, k, M) tensor, and the screen runs in column blocks
   small enough that OpenBLAS keeps each product on one thread, so that
   k-means runs in parallel processes do not each wake a thread pool on
   the same CPUs; blocks cannot change a label, which comes from a proven
   bound or from the exact distances.
   kmeans_scan runs kmeans_reduce for several k at once through _spread:
   the process and min(cpus, len(ks)) - 1 forked children take the k
   values from a pipe, largest (slowest) first, and the children send
   their results back pickled.  With one CPU, or off Linux, there are no
   children; the parent computes any k a dead child did not send, and
   reaps every child before it returns or raises.
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
import itertools
import math
import operator
import os
import pickle
import shutil
import stat
import sys
import tempfile
import traceback
from dataclasses import dataclass

import numpy as np

from .domain import MarketInstance, ScenarioSet, read_only

DEFAULT_COLUMNS = {"timestamp": "timestamp", "node": "node", "price": "price",
                   "system": "SYSTEM"}
# Raw PJM hourly LMP exports use:
#   {"timestamp": "datetime_beginning_ept", "node": "pnode_id",
#    "price": "total_lmp_rt", "system": "PJM"}

MAX_JITTER_DOUBLINGS = 20
INGEST_CHUNK_BYTES = 1 << 17  # bytes of CSV text parsed per vectorized step
# the ASCII that str.strip removes, but the line ends that cut a block into lines
ASCII_BLANKS = b" \t\x0b\x0c\x1c\x1d\x1e\x1f"
INGEST_MIN_PIECE = 1 << 20  # bytes: a file read on several CPUs gives each this much at least
KMEANS_MAX_ITER = 300
KMEANS_BLOCK = 1 << 17  # floats in one block of exact differences
# absolute slack on squared distances, far below any price scale, so that
# rounding below the normal float range cannot decide a label
KMEANS_TINY = 1e-300
EPS = np.finfo(float).eps
OUTWARD = 8 * EPS  # relative widening that rounds a bound outward
# OpenBLAS runs a GEMM of m * n * k at most this, and a GEMV of m * n below
# this, on the calling thread alone (interface/gemm.c and gemv.c)
BLAS_GEMM_ONE_THREAD = 1 << 18
BLAS_GEMV_ONE_THREAD = 9216
FORK_RECORD = 2  # bytes of one entry in _spread's queue
FORK_MAX_ITEMS = 4096 // FORK_RECORD  # entries that fit a pipe of one page


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
            object.__setattr__(self, name, read_only(getattr(self, name)))


def ingest_lmp_csv(path, column_map: dict | None = None) -> PriceHistory:
    """Pivot a long (timestamp, node, price) CSV into a PriceHistory.

    column_map may rename the three columns and the reserved system-node key
    (defaults: timestamp/node/price and node name "SYSTEM").  Duplicate
    (timestamp, node) pairs, unparseable rows, bytes that are not UTF-8 and
    text the csv module rejects (such as a field over its size limit) raise
    ParseError with the offending line number; a node missing some
    timestamp, or a timestamp without a system row, raises
    MissingObservation.  A file with any problem is read a second time, row
    by row, to name the first one.  A UTF-8 byte order mark before the
    header is skipped.  A path that is not a regular file, such as a pipe,
    is first copied into a temporary file, which is read in its place.
    """
    colmap = dict(DEFAULT_COLUMNS)
    if column_map:
        unknown = set(column_map) - set(DEFAULT_COLUMNS)
        if unknown:
            raise ValueError(f"unknown column_map keys: {sorted(unknown)}")
        colmap.update(column_map)
    if stat.S_ISREG(os.stat(path).st_mode):
        return _ingest(path, colmap)
    # a pipe can be read only once and has no size to cut; forked readers
    # leave through os._exit, so only this process removes the copy
    with tempfile.NamedTemporaryFile(suffix=".csv") as copy:
        with open(path, "rb") as source:
            shutil.copyfileobj(source, copy, 1 << 20)
        copy.flush()
        return _ingest(copy.name, colmap)


def _ingest(path, colmap) -> PriceHistory:
    """The history of a regular file, or the first problem in it."""
    try:
        return _pivot(path, colmap)
    except (csv.Error, ValueError, LookupError, OSError) as exc:
        traceback.clear_frames(exc.__traceback__)  # free _pivot's arrays before reading again
        problem = _first_problem(path, colmap)
        if problem is None:  # a read error that did not happen again
            raise
        raise problem from exc


def _pivot(path, colmap) -> PriceHistory:
    """The history of a file without problems.  Any problem raises csv.Error,
    ValueError, LookupError or OSError, not always where a row-by-row
    reader would meet it first."""
    spans = _pieces(path)
    read = _spread(spans, lambda span: _read_piece(path, span, colmap))
    if len(spans) == 1:
        timestamps, names, grid, rows = read[spans[0]]
    else:  # merged in file order, which keeps the first appearance of each timestamp
        timestamps, names = (tuple(dict.fromkeys(itertools.chain.from_iterable(
            read[span][i] for span in spans))) for i in (0, 1))
        codes = [{name: c for c, name in enumerate(labels)} for labels in (timestamps, names)]
        grid = np.full((len(timestamps), len(names)), np.nan)
        rows = 0
        for span in spans:
            *labels, prices, count = read.pop(span)
            cell = np.ix_(*([code[name] for name in part] for code, part in zip(codes, labels)))
            grid[cell] = np.fmax(grid[cell], prices, out=prices)  # the price where one is NaN
            rows += count
    system_key = colmap["system"]
    # as many rows as cells and no cell left NaN: one price for each, none twice
    if not (system_key in names and len(names) > 1 and rows == grid.size
            and not np.isnan(grid).any()):
        raise ValueError("not one price for every timestamp and node")
    node_order = tuple(sorted(name for name in names if name != system_key))
    column = {name: c for c, name in enumerate(names)}
    return PriceHistory(timestamps=timestamps, nodes=node_order,
                        nodal=np.take(grid, [column[name] for name in node_order], axis=1),
                        system=grid[:, column[system_key]].copy())


def _pieces(path) -> list[tuple[int, int | None]]:
    """Byte spans (start, stop) that cover the file in order: one per CPU,
    none below INGEST_MIN_PIECE bytes, each but the last ending after a
    newline.  A line break ends a record unless the file holds a quote, as
    a quoted field may hold one: such a file is one span (0, None), which
    the csv module reads whole."""
    size = os.path.getsize(path)
    count = max(1, min(_cpus(), size // INGEST_MIN_PIECE, FORK_MAX_ITEMS))
    cuts, targets = [0], [size * i // count for i in range(1, count)]
    with open(path, "rb") as handle:
        base = 0
        while block := handle.read(1 << 20):
            if b'"' in block:
                return [(0, None)]
            while targets and (at := block.find(b"\n", max(targets[0] - 1 - base, 0))) >= 0:
                cuts.append(base + at + 1)
                targets.pop(0)
            base += len(block)
    cuts.append(size)
    return [(start, stop) for start, stop in zip(cuts, cuts[1:]) if start < stop] or [(0, size)]


def _read_piece(path, span, colmap):
    """(timestamps, nodes, prices, rows) of the records in one span of the
    file: the names in first-appearance order, their price grid, NaN in
    each cell no row filled, and the count of rows read."""
    stamps, names = {}, {}  # code of each name
    grid, count = np.zeros((0, 0)), 0
    for ts, nodes, raw in _columns(path, span, colmap):
        prices = np.fromiter(map(float, raw), float, len(raw))
        if not np.isfinite(prices).all() or "" in ts or "" in nodes:
            raise ValueError("a malformed row")
        for labels, codes in ((ts, stamps), (nodes, names)):
            for name in dict.fromkeys(labels):
                codes.setdefault(name, len(codes))
        cell = (np.fromiter(map(stamps.__getitem__, ts), np.intp, len(ts)),
                np.fromiter(map(names.__getitem__, nodes), np.intp, len(nodes)))
        del ts, nodes, raw  # one chunk of text at a time
        shape = tuple(have if n <= have else max(n, 2 * have)  # grows by doubling
                      for n, have in zip((len(stamps), len(names)), grid.shape))
        if shape != grid.shape:
            grid = np.pad(grid, [(0, n - have) for n, have in zip(shape, grid.shape)],
                          constant_values=np.nan)
        grid[cell] = prices
        count += prices.size
    return tuple(stamps), tuple(names), grid[:len(stamps), :len(names)], count


def _columns(path, span, colmap):
    """The timestamp, node and price fields, stripped, of the records in one
    span of the file, in chunks of about INGEST_CHUNK_BYTES of text.

    A file with a quote (span stop None) is read whole by the csv module.
    Any other span is read in blocks that end at a line break; _split cuts
    each block into fields at once, and the csv module reads only a block
    that _split cannot.  The header is the file's first record.
    """
    start, stop = span
    if stop is None:
        with open(path, encoding="utf-8-sig", newline="") as text:
            reader = csv.reader(text)
            picks = _picks(next(reader, ()), colmap)
            # records of about 32 bytes, as price rows are
            while records := list(itertools.islice(reader, max(1, INGEST_CHUNK_BYTES >> 5))):
                yield _picked(records, picks)
        return
    with open(path, "rb") as handle:
        header, end = _header(handle)
        picks = _picks(header, colmap)
        start = max(start, end)
        handle.seek(start)
        for block in _blocks(handle, stop - start):
            yield (_split(block, len(header), picks)
                   or _picked(csv.reader(map(bytes.decode, block.splitlines())), picks))


def _header(handle) -> tuple[list[str], int]:
    """The fields of the first line of a quote-free binary file, as the csv
    module reads them, and the offset of the byte after that line."""
    (line, *_) = next(_blocks(handle, sys.maxsize), b"").splitlines(keepends=True) or [b""]
    return next(csv.reader([line.decode("utf-8-sig")]), []), len(line)


def _picks(header, colmap) -> list[int]:
    """Where the timestamp, node and price columns are in the header; a
    name the header repeats is read from its last column."""
    where = {name: i for i, name in enumerate(header)}
    return [where[colmap[key]] for key in ("timestamp", "node", "price")]


def _picked(records, picks) -> list[list[str]]:
    """The picked fields, stripped, of csv records; blank lines (no fields)
    are skipped."""
    rows = [row for row in records if row]
    return [list(map(str.strip, map(operator.itemgetter(i), rows))) for i in picks]


def _blocks(handle, left):
    """The next `left` bytes of a binary file, fewer at its end, in blocks
    that each end at a line break but the last.  Each read tops the part of
    a line carried over up to INGEST_CHUNK_BYTES, or doubles it, so a block
    is no longer than that unless it holds a line over half as long, and a
    long line is read in linear time."""
    rest = b""
    while left > 0 and (data := handle.read(
            min(max(INGEST_CHUNK_BYTES - len(rest), len(rest)), left))):
        left -= len(data)
        data = rest + data
        cut = max(data.rfind(b"\n"), data.rfind(b"\r")) + 1  # \r, \n and \r\n end csv lines
        if cut:
            yield data[:cut]
        rest = data[cut:]
    if rest:
        yield rest


def _split(block, width, picks) -> list[list[str]] | None:
    """The picked fields, stripped, of a block of quote-free lines, each a
    record, cut in one pass over the block; None when a line is not `width`
    fields wide, or may hold a field over the csv module's size limit, as
    the csv module must read such a block.  Blank lines are skipped."""
    lines = list(filter(None, block.splitlines()))  # breaks at \r, \n and \r\n only
    count, limit = len(lines), csv.field_size_limit()
    if len(block) > limit and max(map(len, lines), default=0) > limit:
        return None
    joined = b",\n,".join(lines)  # no line holds a \n: a field "\n" ends each record
    del lines  # one copy of the block's text at a time
    padded = not joined.isascii() or any(map(joined.__contains__, ASCII_BLANKS))
    fields = joined.decode("utf-8").split(",")
    del joined
    stride = width + 1
    if len(fields) != count * stride - 1 or fields[width::stride].count("\n") != count - 1:
        return None
    columns = [fields[i::stride] for i in picks]
    return [list(map(str.strip, column)) for column in columns] if padded else columns


def _first_problem(path, colmap) -> ParseError | MissingObservation | None:
    """The first problem a row-by-row reader of the file meets, None for none.

    Rows are checked in file order, blank lines skipped and short rows read
    as empty fields: on each row a malformed field comes before a duplicate
    (timestamp, node), and a row before text that the reader fails on after
    it.  The grid checks (no rows, no market nodes, holes, in timestamp
    order) come after the whole file.  Memory is one dict entry per
    timestamp and node name and one integer code per cell.
    """
    system_key = colmap["system"]
    node_ids: dict[str, int] = {}  # code of each node
    present: dict[str, set[int]] = {}  # codes of the nodes seen at each timestamp
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None:
                return ParseError("empty file", 1)
            missing_cols = {colmap[key] for key in ("timestamp", "node", "price")} - set(header)
            if missing_cols:
                return ParseError(f"missing columns {sorted(missing_cols)}", 1)
            picks = _picks(header, colmap)
            for row in reader:
                if not row:
                    continue
                ts, node, raw = (row[i].strip() if i < len(row) else "" for i in picks)
                message = _row_problem(ts, node, raw)
                if message is None:
                    codes = present.setdefault(ts, set())
                    code = node_ids.setdefault(node, len(node_ids))
                    if code in codes:
                        message = f"duplicate observation for ({ts}, {node})"
                    codes.add(code)
                if message is not None:
                    return ParseError(message, reader.line_num)
        except UnicodeDecodeError as exc:
            return ParseError(f"not UTF-8 text: {exc.reason}", _undecodable_line(path))
        except csv.Error as exc:
            return ParseError(f"unreadable CSV: {exc}", reader.line_num)

    if not present:
        return ParseError("no data rows", 2)
    markets = sorted(name for name in node_ids if name != system_key)
    if not markets:
        return MissingObservation("no market nodes besides the system row")
    for stamp, codes in present.items():
        if len(codes) <= len(markets):  # not every market and the system
            if node_ids.get(system_key) not in codes:
                return MissingObservation(f"no system ({system_key}) price at {stamp}")
            node = next(name for name in markets if node_ids[name] not in codes)
            return MissingObservation(f"node {node} has no price at {stamp}")
    return None


def _row_problem(ts: str, node: str, raw_price: str) -> str | None:
    if not ts or not node:
        return "empty timestamp or node"
    try:
        price = float(raw_price)
    except ValueError:
        return f"bad price {raw_price!r}"
    if not math.isfinite(price):
        return f"non-finite price {raw_price!r}"
    return None


def _undecodable_line(path) -> int:
    """1-based line of the first line that is not UTF-8; a newline byte
    never occurs inside a multi-byte UTF-8 character."""
    with open(path, "rb") as handle:
        for line, raw in enumerate(handle, 1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                break
    return line


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
            object.__setattr__(self, name, read_only(getattr(self, name)))
        for name in ("representative_indices", "labels"):
            object.__setattr__(self, name, read_only(getattr(self, name), int))


def _sq_dist(x, points):
    """Exact squared distances (n, k), in row blocks of at most KMEANS_BLOCK floats."""
    n, k = x.shape[0], points.shape[0]
    out = np.empty((n, k))
    step = max(1, KMEANS_BLOCK // max(1, k * x.shape[1]))
    for lo in range(0, n, step):
        diff = x[lo:lo + step, None, :] - points[None, :, :]
        out[lo:lo + step] = np.einsum("nkm,nkm->nk", diff, diff)
    return out


def _own_sq_dist(x, centroids, labels):
    """Exact squared distance of each row to its own centroid, bit for bit
    the entry _sq_dist(x, centroids)[i, labels[i]].

    The differences are laid out as x is, so that einsum adds each row's
    squares in the order it takes in _sq_dist: along the row when x is
    stored row by row, one column at a time when it is stored by columns.
    """
    order = "C" if abs(x.strides[1]) <= abs(x.strides[0]) else "F"
    diff = np.subtract(x, centroids[labels], order=order)
    return np.einsum("nm,nm->n", diff, diff)


def _nearest_screen(points_t, points_sq, centroids):
    """Nearest centroid of some rows by GEMM, with distance bounds.

    The rows are given as points^T, with their squared norms.
    g = ||c||^2 - 2 C p^T differs from the squared distances by ||p||^2, the
    same down each column, so its argmin over axis 0 is the nearest centroid.
    Each entry of g lies within err/2 of its exact value, and g + ||p||^2
    within err of the exact squared distance, where
    err = 8(M+2) eps (||p||^2 + max ||c||^2) + KMEANS_TINY.  When some row's
    best and runner-up differ by no more than err, the screen returns None
    and the exact distances must decide.  Otherwise it returns the labels,
    an upper bound sqrt(||p||^2 + best + err) on each row's distance to its
    centroid and a lower bound sqrt(||p||^2 + runner-up - err) on its
    distance to every other centroid, both rounded outward.  The rows go
    through in blocks that keep every BLAS call on one thread.
    """
    (n_m, n), k = points_t.shape, centroids.shape[0]
    # a one-row GEMM is a GEMV of M x step, the label product one of k x step
    step = max(1, min(BLAS_GEMM_ONE_THREAD // (k * n_m),
                      (BLAS_GEMV_ONE_THREAD - 1) // max(k, n_m)))
    scaled = -2.0 * centroids
    c_sq = np.einsum("km,km->k", centroids, centroids)
    cluster = np.arange(k, dtype=float)
    err = 8 * (n_m + 2) * EPS * (points_sq + c_sq.max()) + KMEANS_TINY
    labels = np.empty(n, dtype=int)
    best = np.empty(n)
    runner = np.empty(n)
    for lo in range(0, n, step):
        block = slice(lo, lo + step)
        g = scaled @ points_t[:, block]
        g += c_sq[:, None]
        best[block] = g.min(axis=0)
        near = g <= best[block] + err[block]
        if np.count_nonzero(near) != g.shape[1]:  # a near tie, or NaN from overflow
            return None
        np.copyto(g, np.inf, where=near)
        runner[block] = g.min(axis=0)
        # the one cluster near the best, as one BLAS product over near held in g
        np.copyto(g, near)
        labels[block] = cluster @ g
    upper = np.sqrt(points_sq + best + err) * (1 + OUTWARD)
    lower = np.sqrt(np.maximum(points_sq + runner - err, 0.0)) * (1 - OUTWARD)
    return labels, upper, lower


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
    x_t = np.ascontiguousarray(x.T)
    x_sq = np.einsum("mn,mn->n", x_t, x_t)
    # A row whose upper bound, times widen, lies below its lower bound keeps
    # its label: its exact squared distances, each within a relative
    # (M+2) eps of the true one, cannot put another centroid first or level
    # with its own.
    widen = 1 + 4 * (x.shape[1] + 2) * EPS
    upper = np.full(n, np.inf)  # >= each row's distance to its own centroid
    lower = np.zeros(n)  # <= its distance to every other centroid
    for _ in range(KMEANS_MAX_ITER):
        new_labels = labels.copy()
        stale = np.flatnonzero(~(upper * widen < lower))  # a NaN bound proves nothing
        screened = _nearest_screen(x_t[:, stale], x_sq[stale], centroids)
        if screened is None:
            # every bound stays valid: a row its bounds settle keeps its label here
            new_labels = np.argmin(_sq_dist(x, centroids), axis=1)  # lowest index wins ties
        else:
            new_labels[stale], upper[stale], lower[stale] = screened
        previous = centroids.copy()
        counts = np.bincount(new_labels, minlength=k)
        if counts.all() and x.shape[1] > 1:
            # bincount adds the members in row order, as x[mask].mean(axis=0)
            # does for two or more columns (one column it sums pairwise)
            for m, column in enumerate(x_t):
                centroids[:, m] = np.bincount(new_labels, weights=column, minlength=k)
            centroids /= counts[:, None]
        else:
            for j in range(k):
                if counts[j] == 0:
                    # re-seed an emptied cluster at the farthest point, drawn
                    # only from clusters that can spare a member
                    current = _own_sq_dist(x, previous, new_labels)
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
        # triangle inequality: no distance changed by more than its centroid
        # moved; widen also covers the rounding of the move itself
        shift = centroids - previous
        moved = np.sqrt(np.einsum("km,km->k", shift, shift) + KMEANS_TINY) * widen
        upper += moved[labels]
        upper *= 1 + OUTWARD
        lower -= moved.max()
        lower *= 1 - OUTWARD

    current = _own_sq_dist(x, centroids, labels)
    inertia = float(current.sum())
    reps = np.empty(k, dtype=int)
    counts = np.empty(k, dtype=int)
    for j in range(k):
        members = np.nonzero(labels == j)[0]
        counts[j] = members.size
        reps[j] = int(members[np.argmin(current[members])])  # lowest row on ties
    probabilities = counts / n  # exact rationals cluster_size/n, then float
    return ReducedScenarios(representatives=x[reps], representative_indices=reps,
                            probabilities=probabilities, labels=labels,
                            centroids=centroids, inertia=inertia)


def kmeans_scan(matrix, ks, seed: int, reduce) -> dict:
    """{k: reduce(matrix, k, seed=seed)} for every k in ks, computed on
    every CPU this process may use by _spread (which ingest reads its spans
    with too), largest k first; reduce, kmeans_reduce or a wrapper of it,
    must be deterministic, as the result may come from any process."""
    order = sorted(set(ks), reverse=True)  # a larger k takes longer
    runs = _spread(order, lambda k: vars(reduce(matrix, k, seed=seed)))
    return {k: ReducedScenarios(**runs[k]) for k in ks}


def _cpus() -> int:
    """CPUs this process may run on; 1 where the system does not tell."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _spread(items, work) -> dict:
    """{item: work(item)} for every item, computed by this process and
    min(cpus, len(items)) - 1 forked children; work must be deterministic
    and its results picklable.

    The queue is a pipe holding one record per item, in the order given; a
    read of one whole record is atomic on Linux, and every record is in the
    pipe before the first read.  The parent takes the first item before it
    forks, so it works at least one.  Each child sends its results when the
    queue is empty and exits 0; the items of a child that exits otherwise
    are worked again by the parent, as are all items when no child can be
    forked.  Every child is reaped before this returns or raises.

    Children are forked, not spawned: a spawned one would import numpy and
    the package afresh and be sent its inputs, which takes longer than most
    items.  The CLI starts no Python thread, and OpenBLAS stops its own pool
    at a fork.
    """
    if len(items) > FORK_MAX_ITEMS:
        raise ValueError(f"at most {FORK_MAX_ITEMS} items can be spread over processes")
    queue, feed = os.pipe()
    done, children, codes = {}, {}, {}
    try:
        with os.fdopen(feed, "wb") as sink:
            sink.write(b"".join(i.to_bytes(FORK_RECORD, "little") for i in range(len(items))))
        item = _take(queue, items)
        for _ in range(min(_cpus(), len(items)) - 1):
            child = _fork_worker(queue, items, work)
            if child is None:
                break
            children[child[0]] = child[1]
        while item is not None:
            done[item] = work(item)
            item = _take(queue, items)
        sent = {pid: _drain(results) for pid, results in children.items()}
    finally:
        _drain(queue)  # after an exception, a child stops once its item is done
        os.close(queue)
        for pid, results in children.items():
            os.close(results)  # a child still writing gets EPIPE and exits
            codes[pid] = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    for pid, data in sent.items():
        if codes[pid] == 0 and data:
            done.update(pickle.loads(data))
    for item in items:
        if item not in done:  # taken by a child that died
            done[item] = work(item)
    return done


def _take(queue, items):
    """The item of the next record in the queue, None once it is empty."""
    record = os.read(queue, FORK_RECORD)
    return items[int.from_bytes(record, "little")] if record else None


def _drain(fd) -> bytes:
    """Everything left to read from a pipe, up to its end."""
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def _fork_worker(queue, items, work):
    """(pid, read end of its result pipe) of a forked child that works every
    item it takes from the queue, then writes {item: result} as one pickle
    and exits 0; None when no pipe or process can be made."""
    try:
        results, sink = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(results)
        os.close(sink)
        return None
    if pid:
        os.close(sink)
        return pid, results
    code = 1
    try:
        os.close(results)
        done = {}
        while (item := _take(queue, items)) is not None:
            done[item] = work(item)
        with os.fdopen(sink, "wb") as out:
            pickle.dump(done, out, protocol=pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)  # never return into the parent's stack or flush its buffers


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
            object.__setattr__(self, name, read_only(getattr(self, name)))


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
                                   probabilities) -> ScenarioSet:
    """Expand representative top-tranche prices into a full ScenarioSet.

    Column m of representatives is the top-of-staircase spot price for
    instance.markets[m] in every period; lower tranches follow the instance's
    elasticity rule, price dropping by the market decrement per step with
    constant width.
    """
    reps = np.asarray(representatives, dtype=float)
    probs = np.asarray(probabilities, dtype=float)
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
