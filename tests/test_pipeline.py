"""Scenario-preparation pipeline tests.

Frozen oracles used here, all checked by hand:

* knee_point on (1,100),(2,50),(3,10),(4,8),(5,7): chord (1,100)->(5,7) has
  dx=4, dy=-93; unnormalized distances |dy*(k-1) - dx*(i-100)| are 107, 174,
  89 for k=2,3,4, so the knee is k=3.  On (1,10),(2,2),(3,1.9),(4,1.8) the
  same rule gives 15.8 vs 7.9, so k=2.
* Cholesky of [[4,2],[2,3]]: q11=sqrt(4)=2, q21=2/2=1, q22=sqrt(3-1)=sqrt 2.
* Four-point k-means: points (0,0),(0.5,0),(10,10),(10.5,10) with k=2 split
  into the obvious pairs; centroids (0.25,0) and (10.25,10), inertia
  4*(0.25^2)=0.25, and both representative picks are exact distance ties
  resolved by the lowest row index (rows 0 and 2).
"""

import csv
import itertools
import math
import os
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from helpers import DATA, assert_reaped, bench_gen, kmeans_reduce_einsum
from hypothesis import given, settings
from hypothesis import strategies as st

from spothedge import pipeline
from spothedge.domain import (Contract, ElasticityCurve, MarketInstance,
                              SupplyStep, validate_instance, validate_scenarios)
from spothedge.pipeline import (MissingObservation, NotPositiveDefinite,
                                ParseError, estimate_q, factor_covariance,
                                ingest_lmp_csv, kmeans_reduce, knee_point,
                                scenarios_from_representatives)


def write_csv(path, rows, header=("timestamp", "node", "price")):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


# ----------------------------------------------------------------------
# ingestion

def test_ingest_pivots_long_rows(tmp_path):
    path = tmp_path / "prices.csv"
    write_csv(path, [
        ("t1", "B", "31.0"),
        ("t1", "SYSTEM", "30.0"),
        ("t2", "A", "42.0"),  # t2 starts before t1's A row arrives
        ("t1", "A", "29.0"),
        ("t2", "B", "44.0"),
        ("t2", "SYSTEM", "43.0"),
    ])
    history = ingest_lmp_csv(path)
    assert history.timestamps == ("t1", "t2")  # first-appearance order
    assert history.nodes == ("A", "B")  # sorted, system excluded
    np.testing.assert_allclose(history.nodal, [[29.0, 31.0], [42.0, 44.0]])
    np.testing.assert_allclose(history.system, [30.0, 43.0])
    assert not history.nodal.flags.writeable


def test_ingest_column_map_renames_and_system_key(tmp_path):
    path = tmp_path / "pjm.csv"
    write_csv(path, [
        ("1/1/2024 1:00", "NODE1", "25.0"),
        ("1/1/2024 1:00", "PJM", "24.0"),
    ], header=("datetime_beginning_ept", "pnode_id", "total_lmp_rt"))
    history = ingest_lmp_csv(path, column_map={
        "timestamp": "datetime_beginning_ept", "node": "pnode_id",
        "price": "total_lmp_rt", "system": "PJM"})
    assert history.nodes == ("NODE1",)
    np.testing.assert_allclose(history.system, [24.0])


def test_ingest_rejects_unknown_column_map_key(tmp_path):
    path = tmp_path / "x.csv"
    write_csv(path, [("t1", "A", "1.0")])
    with pytest.raises(ValueError, match="column_map"):
        ingest_lmp_csv(path, column_map={"hour": "timestamp"})


def test_ingest_bad_price_reports_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    write_csv(path, [
        ("t1", "A", "10.0"),
        ("t1", "SYSTEM", "oops"),
    ])
    with pytest.raises(ParseError, match="line 3.*oops") as info:
        ingest_lmp_csv(path)
    assert info.value.line == 3


def test_ingest_rejects_non_finite_price(tmp_path):
    path = tmp_path / "inf.csv"
    write_csv(path, [("t1", "A", "inf")])
    with pytest.raises(ParseError, match="non-finite"):
        ingest_lmp_csv(path)


def test_ingest_duplicate_cell_is_an_error(tmp_path):
    path = tmp_path / "dup.csv"
    write_csv(path, [
        ("t1", "A", "10.0"),
        ("t1", "A", "11.0"),
    ])
    with pytest.raises(ParseError, match=r"line 3.*duplicate"):
        ingest_lmp_csv(path)


def test_ingest_missing_header_column(tmp_path):
    path = tmp_path / "head.csv"
    write_csv(path, [("t1", "A")], header=("timestamp", "node"))
    with pytest.raises(ParseError, match="line 1.*price"):
        ingest_lmp_csv(path)


def test_ingest_empty_rows_and_files(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ParseError, match="empty file"):
        ingest_lmp_csv(empty)
    header_only = tmp_path / "header.csv"
    write_csv(header_only, [])
    with pytest.raises(ParseError, match="no data rows"):
        ingest_lmp_csv(header_only)
    blank_field = tmp_path / "blank.csv"
    write_csv(blank_field, [("t1", "", "10.0")])
    with pytest.raises(ParseError, match="empty timestamp or node"):
        ingest_lmp_csv(blank_field)


def test_ingest_hole_in_pivot_raises_missing_observation(tmp_path):
    path = tmp_path / "hole.csv"
    write_csv(path, [
        ("t1", "A", "10.0"),
        ("t1", "B", "11.0"),
        ("t1", "SYSTEM", "9.0"),
        ("t2", "A", "12.0"),
        ("t2", "SYSTEM", "10.0"),
    ])
    with pytest.raises(MissingObservation, match="node B.*t2"):
        ingest_lmp_csv(path)


def test_ingest_missing_system_row(tmp_path):
    path = tmp_path / "nosys.csv"
    write_csv(path, [
        ("t1", "A", "10.0"),
        ("t1", "SYSTEM", "9.0"),
        ("t2", "A", "12.0"),
    ])
    with pytest.raises(MissingObservation, match=r"system \(SYSTEM\).*t2"):
        ingest_lmp_csv(path)
    only_system = tmp_path / "onlysys.csv"
    write_csv(only_system, [("t1", "SYSTEM", "9.0")])
    with pytest.raises(MissingObservation, match="no market nodes"):
        ingest_lmp_csv(only_system)


@pytest.fixture(params=[1, 2, 3, None], ids=["chunk1", "chunk2", "chunk3", "default"])
def chunk(request, monkeypatch):
    """Reads CSV files a few rows at a time (or in default-sized chunks).

    raising=False: the error semantics below also hold for a row-by-row
    reader that has no chunk size.
    """
    if request.param is not None:
        monkeypatch.setattr(pipeline, "INGEST_CHUNK_ROWS", request.param, raising=False)
    return request.param


def write_text(path, lines):
    path.write_text("".join(line + "\r\n" for line in lines), encoding="utf-8")


def ingest_error(path):
    with pytest.raises((ParseError, MissingObservation)) as info:
        ingest_lmp_csv(path)
    return info.value


def test_ingest_chunk_size_does_not_change_the_history(chunk, monkeypatch):
    history = ingest_lmp_csv(DATA / "toy_lmp.csv")
    assert len(history.timestamps) == 200 and history.nodes == ("ALPHA", "BRAVO", "CHARLIE")
    assert history.nodal.flags.c_contiguous
    monkeypatch.setattr(pipeline, "INGEST_CHUNK_ROWS", 1 << 14, raising=False)
    reference = ingest_lmp_csv(DATA / "toy_lmp.csv")
    assert history.timestamps == reference.timestamps
    assert history.nodal.tobytes() == reference.nodal.tobytes()
    assert history.system.tobytes() == reference.system.tobytes()


def test_ingest_duplicate_of_a_row_in_an_earlier_chunk(tmp_path, chunk):
    path = tmp_path / "dup.csv"
    write_text(path, ["timestamp,node,price", "t1,SYSTEM,9", "t1,A,10", "t2,SYSTEM,9",
                      "t2,A,11", "t3,SYSTEM,9", "t1,A,12", "t3,A,13"])
    err = ingest_error(path)
    assert isinstance(err, ParseError) and err.line == 7
    assert str(err) == "line 7: duplicate observation for (t1, A)"
    # without t3's A row, the duplicate makes as many rows as cells
    write_text(path, ["timestamp,node,price", "t1,SYSTEM,9", "t1,A,10", "t2,SYSTEM,9",
                      "t2,A,11", "t3,SYSTEM,9", "t1,A,12"])
    assert str(ingest_error(path)) == "line 7: duplicate observation for (t1, A)"


def test_ingest_first_bad_line_wins_between_parse_error_and_duplicate(tmp_path, chunk):
    rows = ["timestamp,node,price", "t1,SYSTEM,9", "t1,A,10", "t2,SYSTEM,9"]
    parse_first = tmp_path / "parse_first.csv"
    write_text(parse_first, rows + ["t2,A,oops", "t1,A,10"])
    err = ingest_error(parse_first)
    assert (type(err), err.line, str(err)) == (ParseError, 5, "line 5: bad price 'oops'")
    duplicate_first = tmp_path / "duplicate_first.csv"
    write_text(duplicate_first, rows + ["t1,A,10", "t2,A,inf", "t2,,1"])
    err = ingest_error(duplicate_first)
    assert (type(err), err.line) == (ParseError, 5)
    assert str(err) == "line 5: duplicate observation for (t1, A)"
    # on one line, a malformed field is reported before the duplicate
    same_line = tmp_path / "same_line.csv"
    write_text(same_line, rows + ["t1,A,nan"])
    err = ingest_error(same_line)
    assert str(err) == "line 5: non-finite price 'nan'"


def test_ingest_skips_blank_lines_and_counts_them(tmp_path, chunk):
    path = tmp_path / "blank.csv"
    lines = ["timestamp,node,price", "", "t1,SYSTEM,9", "", "", "t1,A,10", "", "t2,SYSTEM,8", "t2,A,11", ""]
    write_text(path, lines)
    history = ingest_lmp_csv(path)
    assert history.timestamps == ("t1", "t2")
    np.testing.assert_array_equal(history.nodal, [[10.0], [11.0]])
    lines[-2] = "t2,A,x"
    write_text(path, lines)
    err = ingest_error(path)
    assert (err.line, str(err)) == (9, "line 9: bad price 'x'")


def test_ingest_short_rows_read_as_empty_fields(tmp_path, chunk):
    path = tmp_path / "short.csv"
    write_text(path, ["timestamp,node,price", "t1,SYSTEM,9", "t1,A"])
    err = ingest_error(path)
    assert (err.line, str(err)) == (3, "line 3: bad price ''")
    write_text(path, ["price,timestamp,node", "9,t1,SYSTEM", "10,t1"])
    err = ingest_error(path)
    assert (err.line, str(err)) == (3, "line 3: empty timestamp or node")
    # a longer row and a repeated header name (the last copy is read) are fine
    write_text(path, ["timestamp,node,price,node", "t1,X,9,SYSTEM", "t1,X,10,A,extra"])
    history = ingest_lmp_csv(path)
    assert history.nodes == ("A",) and history.system.tolist() == [9.0]


def test_ingest_quoted_field_over_two_lines_keeps_csv_line_numbers(tmp_path, chunk):
    path = tmp_path / "quoted.csv"
    head = ["timestamp,node,price", "t1,SYSTEM,9", '"t1",A,"10']
    write_text(path, head + ['"', "t1,B,x"])
    err = ingest_error(path)
    assert (err.line, str(err)) == (5, "line 5: bad price 'x'")
    write_text(path, head + ['x"', "t1,B,1"])
    err = ingest_error(path)
    assert (err.line, str(err)) == (4, "line 4: bad price '10\\r\\nx'")


def test_ingest_unreadable_text_is_a_parse_error_after_earlier_rows(tmp_path, chunk):
    # 2 000 clean lines put the bad line past the text decoder's first block
    rows = [f"t{i},{node},{i}" for i in range(1000) for node in ("SYSTEM", "A")]
    head = ("timestamp,node,price\r\n" + "".join(row + "\r\n" for row in rows)).encode()
    path = tmp_path / "late.csv"
    path.write_bytes(head + b"t1000,SYSTEM,\xff\r\nt1000,A,1\r\n")
    err = ingest_error(path)
    assert type(err) is ParseError and err.line == 2002
    assert str(err).startswith("line 2002: not UTF-8 text")
    path.write_bytes(head + b't1000,SYSTEM,"' + b"9" * 200_000 + b'"\r\nt1000,A,1\r\n')
    err = ingest_error(path)
    assert type(err) is ParseError and err.line == 2002
    assert "field limit" in str(err)
    # a malformed row before the unreadable one is reported first
    path.write_bytes(head.replace(b"t7,A,7", b"t7,A,x") + b"t1000,SYSTEM,\xff\r\n")
    assert str(ingest_error(path)) == "line 17: bad price 'x'"


def test_ingest_holes_are_reported_in_timestamp_order(tmp_path, chunk):
    path = tmp_path / "holes.csv"
    # t2 appears first; at t2 SYSTEM and A are missing, at t1 only B
    write_text(path, ["timestamp,node,price", "t2,B,1", "t1,SYSTEM,9", "t1,A,10",
                      "t3,SYSTEM,9", "t3,A,1", "t3,B,2"])
    assert str(ingest_error(path)) == "no system (SYSTEM) price at t2"
    write_text(path, ["timestamp,node,price", "t1,SYSTEM,9", "t1,A,10", "t1,B,11", "t1,C,12",
                      "t2,SYSTEM,9", "t2,B,1", "t3,SYSTEM,9", "t3,A,1"])
    err = ingest_error(path)
    assert isinstance(err, MissingObservation)
    assert str(err) == "node A has no price at t2"


PRICE_ROWS = [[b"timestamp", b"node", b"price"]] + [
    [b"t%d" % t, node, b"%d.5" % (30 + 3 * t + i)]
    for t in range(4) for i, node in enumerate((b"SYSTEM", b"A", b"B"))]
OVER_FIELD_LIMIT = b'"' + b"9" * 131_073 + b'"'  # csv reads at most 131 072 characters
# a price put in place, a change to a row, a field, a line end or the header
CSV_MUTATIONS = ["x", "nan", "inf", "", "drop", "duplicate", "delete", "blank", "ff", "long",
                 "rename", "cr", "lf", "quoted"]


def mutate(rows, op, at, field):
    """rows with op applied to data row `at` (modulo the data rows there are)
    and its field `field` (modulo its fields), or to the header."""
    rows = [list(row) for row in rows]
    i = 1 + at % max(1, len(rows) - 1)
    if op == "rename":
        rows[0][field] = b"renamed"
    elif i == len(rows):
        pass  # no data row is left
    elif op == "duplicate":
        rows.insert(i, list(rows[i]))
    elif op == "delete":
        del rows[i]
    elif op == "blank":
        rows.insert(i, [])
    elif not rows[i]:
        pass  # a blank line has no field to change
    elif op == "drop":
        del rows[i][field % len(rows[i])]
    elif op == "ff":
        rows[i][field % len(rows[i])] += b"\xff"
    elif op == "long":
        rows[i][field % len(rows[i])] = OVER_FIELD_LIMIT
    elif op == "quoted":  # a quoted field that holds a newline
        rows[i][field % len(rows[i])] = b'"' + rows[i][field % len(rows[i])] + b'\n"'
    elif op in ("cr", "lf"):  # the row ends in a bare \r or \n: the next one joins its list
        following = rows.pop(i + 1) if i + 1 < len(rows) else [b""]
        rows[i][-1:] = [rows[i][-1] + (b"\r" if op == "cr" else b"\n") + following[0],
                        *following[1:]]
    else:
        rows[i][2:] = [op.encode()]
    return rows


def ingest_outcome(path):
    """The history's bytes, or the type, message and line of the error."""
    try:
        history = ingest_lmp_csv(path)
    except (ParseError, MissingObservation) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return history.timestamps, history.nodes, history.nodal.tobytes(), history.system.tobytes()


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("price_csv")


@settings(max_examples=50, deadline=None)
@given(mutations=st.lists(st.tuples(st.sampled_from(CSV_MUTATIONS), st.integers(0, 63),
                                    st.integers(0, 2)), max_size=3))
def test_a_mutated_price_csv_ingests_or_fails_typed(csv_dir, mutations):
    """Ingest returns a history or raises ParseError or MissingObservation,
    the same for every chunk size and every CPU count the file is cut for,
    and fails exactly when the row-by-row reading finds a problem."""
    rows = PRICE_ROWS
    for mutation in mutations:
        rows = mutate(rows, *mutation)
    path = csv_dir / "history.csv"
    path.write_bytes(b"".join(b",".join(row) + b"\r\n" for row in rows))
    outcomes = set()
    for cpus, size in itertools.product((1, 2, 3), (1, 3, pipeline.INGEST_CHUNK_ROWS)):
        with mock.patch.object(pipeline, "INGEST_CHUNK_ROWS", size), \
                mock.patch.object(pipeline, "INGEST_MIN_PIECE", 1), \
                mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus))):
            outcomes.add(ingest_outcome(path))
    (outcome,) = outcomes
    failed = outcome[0] in (ParseError, MissingObservation)
    assert failed == (pipeline._first_problem(path, pipeline.DEFAULT_COLUMNS) is not None)


def split_on(monkeypatch, cpus, log=None, exit_code=None):
    """Cut every file into one span per CPU of cpus, whatever its size.
    With a log, every process appends its pid there for each span it
    reads, and a forked worker with an exit_code leaves with it instead;
    the parent waits a little before its first span, so that the workers
    most likely take the others."""
    monkeypatch.setattr(pipeline, "INGEST_MIN_PIECE", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    if log is None:
        return
    read, parent = pipeline._read_piece, os.getpid()

    def logged(path, span, colmap):
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()}\n")
        if exit_code is not None and os.getpid() != parent:
            os._exit(exit_code)
        if span[0] == 0 and os.getpid() == parent:
            time.sleep(0.1)
        return read(path, span, colmap)
    monkeypatch.setattr(pipeline, "_read_piece", logged)


def logged_spans(log) -> list[int]:
    return [int(line) for line in log.read_text().splitlines()]


@pytest.mark.parametrize("cpus", [2, 3, 4])
def test_ingest_in_spans_equals_one_reading(monkeypatch, cpus):
    want = ingest_outcome(DATA / "toy_lmp.csv")
    assert pipeline._pieces(DATA / "toy_lmp.csv") == [(0, None)]  # below INGEST_MIN_PIECE
    split_on(monkeypatch, cpus)
    assert len(pipeline._pieces(DATA / "toy_lmp.csv")) == cpus
    assert ingest_outcome(DATA / "toy_lmp.csv") == want


def test_spans_cover_the_file_and_end_after_a_newline(tmp_path, monkeypatch):
    split_on(monkeypatch, 4)
    path = tmp_path / "prices.csv"
    text = b"timestamp,node,price\r\nt1,SYSTEM,9\nt1,A,10\rt2,SYSTEM,8\r\nt2,A,11\r\n"
    path.write_bytes(text)
    spans = pipeline._pieces(path)
    assert spans[0][0] == 0 and spans[-1][1] == len(text) and len(spans) > 1
    assert all(stop == start for (_, stop), (start, _) in zip(spans, spans[1:]))
    assert all(text[stop - 1:stop] == b"\n" for _, stop in spans)
    assert ingest_lmp_csv(path).nodal.tolist() == [[10.0], [11.0]]
    # a quoted field may hold a newline, and a file without one has no place to cut
    for other in (text.replace(b"t2,A", b'"t2",A'), text.replace(b"\n", b"")):
        path.write_bytes(other)
        assert [start for start, _ in pipeline._pieces(path)] == [0]


def test_ingest_reads_again_the_span_of_a_worker_that_fails(tmp_path, monkeypatch):
    want = ingest_outcome(DATA / "toy_lmp.csv")
    log = tmp_path / "spans.log"
    split_on(monkeypatch, 3, log, exit_code=1)
    assert ingest_outcome(DATA / "toy_lmp.csv") == want
    pids = logged_spans(log)
    assert pids.count(os.getpid()) == 3  # its own span and those of the workers that left
    assert_reaped(pids)


def test_ingest_reads_every_span_itself_when_it_cannot_fork(tmp_path, monkeypatch):
    want = ingest_outcome(DATA / "toy_lmp.csv")
    log = tmp_path / "spans.log"
    split_on(monkeypatch, 3, log)

    def no_fork():
        raise BlockingIOError("fork: Resource temporarily unavailable")
    monkeypatch.setattr(os, "fork", no_fork)
    assert ingest_outcome(DATA / "toy_lmp.csv") == want
    assert logged_spans(log) == [os.getpid()] * 3


def test_ingest_names_a_line_that_is_not_utf8_in_the_last_span(tmp_path, monkeypatch):
    rows = "".join(f"t{i},{node},{i}\r\n" for i in range(300) for node in ("SYSTEM", "A"))
    text = ("timestamp,node,price\r\n" + rows).encode() + b"t300,SYSTEM,\xff\r\nt300,A,1\r\n"
    path = tmp_path / "late.csv"
    path.write_bytes(text)
    log = tmp_path / "spans.log"
    split_on(monkeypatch, 3, log)
    assert pipeline._pieces(path)[-1][0] < text.index(b"\xff")
    err = ingest_error(path)
    assert type(err) is ParseError and err.line == 602
    assert str(err).startswith("line 602: not UTF-8 text")
    assert_reaped(logged_spans(log))


@pytest.mark.parametrize("cpus", [1, 2])
def test_ingest_reads_a_header_after_a_utf8_bom(tmp_path, monkeypatch, cpus):
    """Excel's "CSV UTF-8" export starts the file with a byte order mark."""
    if cpus > 1:
        split_on(monkeypatch, cpus)
    path = tmp_path / "excel.csv"
    lines = ["timestamp,node,price", "t1,SYSTEM,9", "t1,A,10", "t2,SYSTEM,8", "t2,A,11"]
    path.write_bytes(("\ufeff" + "\r\n".join(lines) + "\r\n").encode())
    history = ingest_lmp_csv(path)
    assert history.timestamps == ("t1", "t2") and history.nodes == ("A",)
    assert history.nodal.tolist() == [[10.0], [11.0]] and history.system.tolist() == [9.0, 8.0]
    lines[3] = "t2,SYSTEM,x"
    path.write_bytes(("\ufeff" + "\r\n".join(lines) + "\r\n").encode())
    assert str(ingest_error(path)) == "line 4: bad price 'x'"


def test_ingest_reads_a_pipe_in_one_pass(tmp_path):
    """`prepare --raw-csv <(zcat prices.csv.gz)` hands ingest a pipe, which
    can be read only once and has no size to cut."""
    fifo = tmp_path / "prices.pipe"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, daemon=True,
                              args=((DATA / "toy_lmp.csv").read_bytes(),))
    writer.start()
    try:
        got = ingest_outcome(fifo)
    finally:
        writer.join(timeout=60)
    assert not writer.is_alive()
    assert got == ingest_outcome(DATA / "toy_lmp.csv")


def test_ingest_peak_memory_of_a_long_history(tmp_path, monkeypatch):
    """On one CPU, ingest of a 20 000-hour, 8-node history (4.9 MiB of text
    that pivots to 1.4 MiB of prices) allocates at most 12 MiB at its
    peak: one chunk of text rows, the price grid and one entry per
    timestamp and node, not three numbers per row."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    path = tmp_path / "history.csv"
    bench_gen().write_history(path, 20_000, 8, 0)
    tracemalloc.start()
    try:
        history = ingest_lmp_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert history.nodal.shape == (20_000, 8)
    assert peak <= 12 * 2**20, peak


# ----------------------------------------------------------------------
# k-means reduction

def test_kmeans_two_well_separated_pairs():
    x = np.array([[0.0, 0.0], [0.5, 0.0], [10.0, 10.0], [10.5, 10.0]])
    red = kmeans_reduce(x, k=2, seed=0)
    assert sorted(red.representative_indices.tolist()) == [0, 2]  # ties -> lowest row
    np.testing.assert_allclose(np.sort(red.probabilities), [0.5, 0.5])
    assert red.inertia == pytest.approx(0.25)
    got_centroids = sorted(map(tuple, red.centroids.tolist()))
    assert got_centroids == [(0.25, 0.0), (10.25, 10.0)]
    assert red.labels[0] == red.labels[1]
    assert red.labels[2] == red.labels[3]
    assert red.labels[0] != red.labels[2]
    # representatives are actual sample rows
    np.testing.assert_array_equal(red.representatives,
                                  x[red.representative_indices])


def test_kmeans_k_equals_n_is_exact():
    x = np.array([[1.0], [5.0], [9.0]])
    red = kmeans_reduce(x, k=3, seed=4)
    assert red.inertia == 0.0
    assert sorted(red.representative_indices.tolist()) == [0, 1, 2]
    np.testing.assert_allclose(red.probabilities, [1 / 3, 1 / 3, 1 / 3])


def test_kmeans_single_cluster_matches_mean():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(25, 3))
    red = kmeans_reduce(x, k=1, seed=0)
    np.testing.assert_allclose(red.centroids[0], x.mean(axis=0), atol=1e-12)
    want_inertia = float(((x - x.mean(axis=0)) ** 2).sum())
    assert red.inertia == pytest.approx(want_inertia, rel=1e-12)
    want_rep = int(np.argmin(((x - x.mean(axis=0)) ** 2).sum(axis=1)))
    assert red.representative_indices[0] == want_rep
    np.testing.assert_allclose(red.probabilities, [1.0])


def test_kmeans_identical_points_keep_all_clusters_alive():
    x = np.zeros((5, 2))
    red = kmeans_reduce(x, k=2, seed=3)
    assert red.inertia == 0.0
    assert sorted(np.bincount(red.labels, minlength=2).tolist()) == [1, 4]
    assert red.probabilities.sum() == pytest.approx(1.0)


def test_kmeans_is_deterministic_per_seed():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(40, 4))
    first = kmeans_reduce(x, k=5, seed=9)
    second = kmeans_reduce(x, k=5, seed=9)
    np.testing.assert_array_equal(first.labels, second.labels)
    np.testing.assert_array_equal(first.representative_indices,
                                  second.representative_indices)
    assert first.inertia == second.inertia


def test_kmeans_invariants_on_random_data():
    rng = np.random.default_rng(17)
    for n, k, seed in [(12, 3, 0), (30, 4, 1), (50, 7, 2), (8, 8, 3)]:
        x = rng.normal(size=(n, 3)) * 10
        red = kmeans_reduce(x, k=k, seed=seed)
        counts = np.bincount(red.labels, minlength=k)
        assert (counts > 0).all()
        np.testing.assert_allclose(red.probabilities, counts / n)
        # every representative belongs to its own cluster
        for j, idx in enumerate(red.representative_indices):
            assert red.labels[idx] == j
        diff = x - red.centroids[red.labels]
        assert red.inertia == pytest.approx(float((diff ** 2).sum()), rel=1e-9)


def test_kmeans_rejects_bad_inputs():
    with pytest.raises(ValueError, match="k must lie"):
        kmeans_reduce(np.zeros((3, 2)), k=4)
    with pytest.raises(ValueError, match="k must lie"):
        kmeans_reduce(np.zeros((3, 2)), k=0)
    with pytest.raises(ValueError, match="non-finite"):
        kmeans_reduce(np.array([[np.nan, 0.0]]), k=1)
    with pytest.raises(ValueError, match="matrix"):
        kmeans_reduce(np.zeros(4), k=1)


FIELDS = ("representatives", "representative_indices", "probabilities", "labels",
          "centroids", "inertia")


def assert_same_reduction(x, k, seed):
    got, want = kmeans_reduce(x, k, seed=seed), kmeans_reduce_einsum(x, k, seed=seed)
    for name in FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert np.array_equal(a, b), (name, k, seed)
        assert np.asarray(a).dtype == np.asarray(b).dtype, name


def count_exact_rounds(monkeypatch):
    """Counts the rounds decided by the exact distances: the calls of their kernel."""
    calls = []
    exact = pipeline._sq_dist
    monkeypatch.setattr(pipeline, "_sq_dist", lambda x, c: calls.append(1) or exact(x, c))
    return calls


@pytest.mark.parametrize("order", ["C", "F"])
def test_kmeans_equals_the_einsum_oracle_on_random_data(order):
    rng = np.random.default_rng(11)
    for n, m in [(1, 3), (9, 1), (60, 2), (200, 3), (400, 8)]:
        x = np.asarray(rng.normal(35.0, 4.0, size=(n, m)), order=order)
        for k in sorted({1, min(n, 2), min(n, 5), min(n, 10), min(n, 32)}):
            for seed in (0, 7):
                assert_same_reduction(x, k, seed)


@pytest.mark.parametrize("order", ["C", "F"])
def test_kmeans_equals_the_oracle_on_exact_ties(order, monkeypatch):
    # integer points on a small grid: many rows are exactly as far from two
    # centroids, which the screen cannot separate, so those rounds are exact
    rng = np.random.default_rng(5)
    x = np.asarray(rng.integers(0, 4, size=(120, 2)).astype(float), order=order)
    calls = count_exact_rounds(monkeypatch)
    for k in (2, 3, 6, 16):
        for seed in (0, 7):
            assert_same_reduction(x, k, seed)
    assert calls  # some rounds were exact


@pytest.mark.parametrize("order", ["C", "F"])
def test_kmeans_equals_the_oracle_when_clusters_empty(order):
    # identical points, and fewer distinct points than clusters: the seeds
    # coincide, ties go to the lowest index and emptied clusters are re-seeded
    assert_same_reduction(np.asarray(np.full((7, 3), 2.5), order=order), 4, 0)
    base = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 5.0]])
    x = np.asarray(np.repeat(base, [5, 3, 4], axis=0), order=order)
    for k in (3, 4, 6, 12):
        for seed in (0, 1, 7):
            assert_same_reduction(x, k, seed)
            assert (kmeans_reduce(x, k, seed=seed).probabilities > 0).all()


def test_kmeans_screen_leaves_near_ties_to_the_exact_distances():
    # squared distances 1e6 and (1e3 + 5e-12)^2 = 1e6 + 1e-8: closer than the
    # rounding bound 8 (M+2) eps (||x||^2 + max ||c||^2), about 3.6e-8
    x_t = np.array([[1e3, 3.0], [0.0, 0.0]])
    x_sq = np.einsum("mn,mn->n", x_t, x_t)
    centroids = np.array([[0.0, 0.0], [2e3 + 5e-12, 0.0]])
    assert pipeline._nearest_screen(x_t, x_sq, centroids) is None
    centroids[1, 0] = 2e3 + 1e-6  # 2e-3 apart: decided by the screen
    labels, upper, lower = pipeline._nearest_screen(x_t, x_sq, centroids)
    assert labels.tolist() == [0, 0]
    exact = np.sqrt(pipeline._sq_dist(x_t.T, centroids))
    assert (exact[:, 0] <= upper).all() and (upper < exact[:, 1]).all()
    assert (exact[:, 0] < lower).all() and (lower <= exact[:, 1]).all()
    # a subset of the rows: the second one alone
    labels, upper, lower = pipeline._nearest_screen(x_t[:, 1:], x_sq[1:], centroids)
    assert labels.tolist() == [0] and exact[1, 0] <= upper[0] and lower[0] <= exact[1, 1]


def mixture(rng, n, m, centers=6, spread=6.0):
    """Cents-rounded rows around a few price levels: many equal distances."""
    middles = rng.normal(35.0, 8.0, size=(centers, m))
    return np.round(middles[rng.integers(0, centers, n)] + rng.normal(0.0, spread, (n, m)), 2)


# Inputs built to break a round that keeps a label without re-screening the
# row when its bounds do not prove it: a centroid that jumps, rounding slack
# larger than most gaps, many equal distances, one column, many clusters.
@pytest.mark.parametrize("order", ["C", "F"])
def test_kmeans_bounds_hold_when_a_centroid_jumps(order):
    rng = np.random.default_rng(8)
    blob = rng.normal(35.0, 2.0, size=(400, 3))
    blob[17] = [42.0, 41.0, 43.0]  # seeded early; the centroid then leaves it
    two = np.concatenate([rng.normal(0.0, 1.0, (200, 3)), rng.normal(20.0, 1.0, (200, 3)),
                          [[-40.0, -40.0, -40.0]]])  # the outlier keeps a seed
    for x in (blob, two):
        x = np.asarray(x, order=order)
        for k in range(2, 7):
            for seed in (0, 1, 2):
                assert_same_reduction(x, k, seed)


@pytest.mark.parametrize("order", ["C", "F"])
def test_kmeans_bounds_hold_under_a_large_common_offset(order):
    # at 1e6 the screen's rounding slack is about 1e-3, above many gaps
    x = np.asarray(1e6 + mixture(np.random.default_rng(12), 2000, 3), order=order)
    for k in (2, 5, 10):
        assert_same_reduction(x, k, 3)


@pytest.mark.parametrize("order", ["C", "F"])
def test_kmeans_bounds_hold_on_one_column_and_many_clusters(order):
    rng = np.random.default_rng(13)
    one = np.asarray(mixture(rng, 3000, 1), order=order)
    for k in (2, 5, 10):
        assert_same_reduction(one, k, 0)
    wide = np.asarray(mixture(rng, 3000, 3, centers=40, spread=3.0), order=order)
    for k in (16, 32, 64):
        assert_same_reduction(wide, k, 1)


def test_kmeans_screens_few_rows_after_the_first_round(monkeypatch):
    # cents-rounded 20 000 x 8 mixture: equal distances abound, and the
    # reduction must still match the oracle while most rows skip the screen
    x = mixture(np.random.default_rng(14), 20_000, 8)
    screened = []
    screen = pipeline._nearest_screen
    monkeypatch.setattr(pipeline, "_nearest_screen",
                        lambda p, sq, c: screened.append(p.shape[1]) or screen(p, sq, c))
    assert_same_reduction(x, 10, 0)
    first, *later = screened
    assert first == x.shape[0] and len(later) >= 10
    assert sum(later) < 0.25 * len(later) * x.shape[0]


@pytest.mark.parametrize("order", ["C", "F"])
def test_kmeans_screen_in_small_blocks_equals_the_oracle(order, monkeypatch):
    # blocks of a few rows: a near tie in a later block still sends the
    # round to the exact distances, after earlier blocks have reset bounds
    monkeypatch.setattr(pipeline, "BLAS_GEMM_ONE_THREAD", 64)
    monkeypatch.setattr(pipeline, "BLAS_GEMV_ONE_THREAD", 40)
    calls = count_exact_rounds(monkeypatch)
    rng = np.random.default_rng(15)
    for x in (mixture(rng, 600, 3), rng.integers(0, 4, size=(120, 2)).astype(float)):
        x = np.asarray(x, order=order)
        for k in (1, 2, 5, 10):
            assert_same_reduction(x, k, 4)
    assert calls


def scan_log(log, fail_on=None):
    """kmeans_reduce that appends "pid k" to log for every run and raises
    ValueError in the calling process instead of running k = fail_on."""
    parent = os.getpid()

    def logged(matrix, k, seed):
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()} {k}\n")
        if k == fail_on and os.getpid() == parent:
            raise ValueError("no k-means here")
        return kmeans_reduce(matrix, k, seed=seed)
    return logged


def logged_pids(log) -> set[int]:
    return {int(line.split()[0]) for line in log.read_text().splitlines()}


@pytest.mark.parametrize("cpus", [1, 2, 5, 64])
def test_kmeans_scan_equals_one_reduction_per_k(monkeypatch, tmp_path, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    x = mixture(np.random.default_rng(16), 3000, 4)
    ks = [3, 1, 7, 2, 9, 5]
    log = tmp_path / "runs.log"
    runs = pipeline.kmeans_scan(x, ks, 6, scan_log(log))
    assert list(runs) == ks
    for k in ks:
        want = kmeans_reduce(x, k, seed=6)
        for name in FIELDS:
            got = getattr(runs[k], name)
            assert np.array_equal(got, getattr(want, name)), (name, k)
            assert np.asarray(got).dtype == np.asarray(getattr(want, name)).dtype
            if name != "inertia":
                assert not got.flags.writeable, name
    pids = logged_pids(log)
    assert os.getpid() in pids and len(pids) <= min(cpus, len(ks))
    assert_reaped(pids)


def test_kmeans_scan_runs_everything_itself_when_it_cannot_fork(monkeypatch, tmp_path):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})

    def no_fork():
        raise BlockingIOError("fork: Resource temporarily unavailable")
    monkeypatch.setattr(os, "fork", no_fork)
    x = mixture(np.random.default_rng(17), 500, 3)
    log = tmp_path / "runs.log"
    runs = pipeline.kmeans_scan(x, range(1, 6), 0, scan_log(log))
    assert logged_pids(log) == {os.getpid()}
    assert [runs[k].inertia for k in range(1, 6)] == \
        [kmeans_reduce(x, k, seed=0).inertia for k in range(1, 6)]


def test_kmeans_scan_reaps_its_workers_when_the_parent_raises(monkeypatch, tmp_path):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    x = mixture(np.random.default_rng(18), 2000, 3)
    log = tmp_path / "runs.log"
    with pytest.raises(ValueError, match="no k-means here"):
        # the parent takes the largest k first
        pipeline.kmeans_scan(x, range(1, 9), 0, scan_log(log, fail_on=8))
    assert_reaped(logged_pids(log))


def test_kmeans_equals_the_oracle_on_the_toy_history():
    history = ingest_lmp_csv(DATA / "toy_lmp.csv")
    for k in range(1, 17):
        assert_same_reduction(history.nodal, k, 7)


# ----------------------------------------------------------------------
# knee selection

def test_knee_point_frozen_curves():
    assert knee_point([1, 2, 3, 4, 5], [100.0, 50.0, 10.0, 8.0, 7.0]) == 3
    assert knee_point([1, 2, 3, 4], [10.0, 2.0, 1.9, 1.8]) == 2


def test_knee_point_degenerate_and_short_curves():
    assert knee_point([2, 4, 6], [5.0, 5.0, 5.0]) == 2  # flat -> smallest k
    assert knee_point([3], [7.0]) == 3
    assert knee_point([2, 9], [10.0, 1.0]) == 2


def test_knee_point_tie_prefers_smaller_k():
    # symmetric V around the chord: k=2 and k=3 tie exactly
    assert knee_point([1, 2, 3, 4], [9.0, 3.0, 3.0, 9.0]) == 2


def test_knee_point_input_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        knee_point([1, 1, 2], [3.0, 2.0, 1.0])
    with pytest.raises(ValueError, match="equal-length"):
        knee_point([1, 2], [3.0])
    with pytest.raises(ValueError, match="non-empty"):
        knee_point([], [])


# ----------------------------------------------------------------------
# covariance factor

def test_factor_covariance_handcrafted_two_by_two():
    q, jitter = factor_covariance([[4.0, 2.0], [2.0, 3.0]])
    want = np.array([[2.0, 0.0], [1.0, math.sqrt(2.0)]])
    np.testing.assert_allclose(q, want, atol=1e-12)
    assert jitter == 0.0


def test_factor_covariance_round_trip_random_psd():
    rng = np.random.default_rng(23)
    for _ in range(50):
        m = rng.integers(1, 11)
        a = rng.normal(size=(m, m + 2))
        sigma = a @ a.T
        q, _ = factor_covariance(sigma)
        assert np.triu(q, 1) == pytest.approx(0.0)
        err = np.linalg.norm(q @ q.T - sigma)
        assert err <= 1e-8 * np.linalg.norm(sigma)


def test_factor_covariance_jitter_repairs_singular_psd():
    sigma = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank one, clean factor fails
    q, jitter = factor_covariance(sigma)
    assert jitter == pytest.approx(1e-10)  # first rung of the ladder
    np.testing.assert_allclose(q @ q.T, sigma + jitter * np.eye(2), atol=1e-12)


def test_factor_covariance_gives_up_on_hopeless_input():
    with pytest.raises(NotPositiveDefinite):
        factor_covariance(np.zeros((2, 2)))  # trace 0, ladder never positive
    with pytest.raises(NotPositiveDefinite):
        factor_covariance([[-1.0]])


def test_estimate_q_recovers_known_factor():
    # whiten random data, then color it with the target factor so the sample
    # covariance of the deviations is [[4,2],[2,3]] to machine precision
    rng = np.random.default_rng(7)
    raw = rng.normal(size=(60, 2))
    centered = raw - raw.mean(axis=0)
    white = centered @ np.linalg.inv(np.linalg.cholesky(
        np.cov(centered, rowvar=False, ddof=1))).T
    target = np.array([[2.0, 0.0], [1.0, math.sqrt(2.0)]])
    system = rng.normal(50.0, 5.0, size=60)
    nodal = white @ target.T + system[:, None]
    est = estimate_q(nodal, system)
    np.testing.assert_allclose(est.sigma, [[4.0, 2.0], [2.0, 3.0]], atol=1e-9)
    np.testing.assert_allclose(est.q, target, atol=1e-9)
    assert est.jitter == 0.0
    np.testing.assert_allclose(est.q_bar, np.full(2, system.mean()), atol=1e-12)


def test_estimate_q_single_node_is_standard_deviation():
    system = np.array([10.0, 10.0, 10.0, 10.0])
    nodal = np.array([[12.0], [8.0], [12.0], [8.0]])
    est = estimate_q(nodal, system)
    # deviations +-2, sample variance 16/3
    assert est.sigma[0, 0] == pytest.approx(16.0 / 3.0)
    assert est.q[0, 0] == pytest.approx(math.sqrt(16.0 / 3.0))


def test_estimate_q_zero_deviation_is_not_positive_definite():
    system = np.array([10.0, 12.0, 14.0])
    nodal = system[:, None].repeat(2, axis=1)
    with pytest.raises(NotPositiveDefinite):
        estimate_q(nodal, system)


def test_estimate_q_input_validation():
    with pytest.raises(ValueError, match="matching N"):
        estimate_q(np.zeros((3, 2)), np.zeros(4))
    with pytest.raises(ValueError, match="two observations"):
        estimate_q(np.zeros((1, 2)), np.zeros(1))


# ----------------------------------------------------------------------
# expansion into scenario sets

def expansion_instance():
    return MarketInstance(
        markets=("east", "west"),
        contracts=(Contract("east", (30.0, 30.0), 100.0, 0.0),),
        supply_steps=(SupplyStep(400.0, 2.0),),
        transport_cost={"west": 1.0},
        production_limits=((0.0, 400.0), (0.0, 400.0)),
        periods=2,
        elasticity={"east": ElasticityCurve(3, 50.0, 4.0),
                    "west": ElasticityCurve(2, 60.0, 2.5)},
    )


def test_expansion_builds_staircases_constant_over_periods():
    instance = expansion_instance()
    reps = np.array([[40.0, 35.0], [30.0, 28.0]])  # 2 scenarios x 2 markets
    scen = scenarios_from_representatives(instance, reps, [0.75, 0.25])
    assert scen.num_scenarios == 2
    assert scen.num_periods == 2
    # east: 3 steps dropping by 4 from the representative top price
    np.testing.assert_allclose(scen.prices["east"][:, 0, 0], [40.0, 36.0, 32.0])
    np.testing.assert_allclose(scen.prices["east"][:, 1, 0], [40.0, 36.0, 32.0])
    np.testing.assert_allclose(scen.prices["east"][:, 0, 1], [30.0, 26.0, 22.0])
    np.testing.assert_allclose(scen.widths["east"], np.full((3, 2, 2), 50.0))
    # west: 2 steps dropping by 2.5
    np.testing.assert_allclose(scen.prices["west"][:, 1, 1], [28.0, 25.5])
    np.testing.assert_allclose(scen.widths["west"], np.full((2, 2, 2), 60.0))
    np.testing.assert_allclose(scen.probabilities, [0.75, 0.25])


def test_expansion_output_passes_validation():
    instance = expansion_instance()
    assert validate_instance(instance) == []
    reps = np.array([[40.0, 35.0], [30.0, 28.0], [55.0, 50.0]])
    scen = scenarios_from_representatives(instance, reps, [0.5, 0.25, 0.25])
    assert validate_scenarios(instance, scen) == []


def test_expansion_requires_elasticity_and_matching_shapes():
    instance = expansion_instance()
    bare = MarketInstance(
        markets=("east",), contracts=(), supply_steps=(SupplyStep(10.0, 0.0),),
        transport_cost={}, production_limits=((0.0, 10.0),), periods=1)
    with pytest.raises(ValueError, match="elasticity"):
        scenarios_from_representatives(bare, np.array([[40.0]]), [1.0])
    with pytest.raises(ValueError, match="scenarios x 2"):
        scenarios_from_representatives(instance, np.array([[40.0]]), [1.0])
    with pytest.raises(ValueError, match="one probability"):
        scenarios_from_representatives(instance, np.array([[40.0, 35.0]]),
                                       [0.5, 0.5])
