"""The solve trace: a read-only sequence of IterationRecord over two flat arrays.

A trace stores six binary64 values and a 16-bit ``nd_iters`` per iteration,
plus the error^2 after the last step, and builds a record only when one is
read, deriving ``progress`` and ``log_z_inf``; an always-on trace costs
about 52 bytes per iteration. Records read back equal those the loop would
have built, with ``nd_iters`` as an int; both solvers fill every field.
"""

import copy
import math
import pickle
import tracemalloc

import numpy as np
import pytest

from framescale import (Frame, IterationCapExceeded, IterationRecord, Marginals, MatrixMarginals,
                        NonnegMatrix, ScalingResult, SolverConfig, Trace, scale_frame,
                        scale_matrix)
from framescale import io as fio
from framescale.generate import gen_bipartite, gen_gaussian


def matrix_solve(seed=1, eps=1e-6, config=None):
    A, r, c = gen_bipartite(20, 20, seed)
    return scale_matrix(NonnegMatrix(A), MatrixMarginals(r, c), eps, config)


def frame_solve(eps=1e-8, config=None):
    U, c = gen_gaussian(4, 12, 0)
    return scale_frame(Frame(U), Marginals(c, d=4), eps, config)


@pytest.fixture(scope="module")
def matrix_result():
    return matrix_solve()


@pytest.fixture(scope="module")
def frame_result():
    return frame_solve()


class TestSequence:
    def test_length_and_indices(self, frame_result):
        trace = frame_result.trace
        assert isinstance(trace, Trace)
        n = len(trace)
        assert n == frame_result.iterations == 821
        records = list(trace)
        assert len(records) == n and all(type(rec) is IterationRecord for rec in records)
        assert trace[0] == records[0] and trace[n - 1] == records[-1]
        assert trace[-1] == records[-1] and trace[-n] == records[0]
        assert trace[np.int64(3)] == records[3]
        for bad in (n, -n - 1):
            with pytest.raises(IndexError):
                trace[bad]
        with pytest.raises(TypeError):
            trace[1.0]

    def test_slices_are_lists_of_records(self, frame_result):
        trace = frame_result.trace
        records = list(trace)
        for s in (slice(None), slice(2, 9), slice(-5, None), slice(None, None, -3),
                  slice(10, 2), slice(len(trace), None)):
            got = trace[s]
            assert type(got) is list and got == records[s]

    def test_fields_read_back(self, frame_result, matrix_result):
        for rec in frame_result.trace:
            assert type(rec.nd_iters) is int
            assert type(rec.hp_one) is float and not math.isnan(rec.hp_one)
            assert rec.log_z_inf >= 0.0
        # One Newton step per steep step, none on the one guess-branch step.
        assert sorted({rec.nd_iters for rec in frame_result.trace}) == [0, 1]
        for rec in matrix_result.trace:
            assert type(rec.nd_iters) is int and rec.nd_iters == 0
            assert rec.hp_one > 0.0
            assert rec.log_z_inf >= 0.0
        # log_z_inf is log max y of the iterate after the step.
        assert matrix_result.trace[-1].log_z_inf == np.log(matrix_result.scaling.max())

    def test_read_only(self, frame_result):
        trace = frame_result.trace
        with pytest.raises(TypeError):
            trace[0] = trace[1]
        with pytest.raises(TypeError):
            del trace[0]
        assert not hasattr(trace, "append") and not hasattr(trace, "__dict__")

    def test_repr(self, matrix_result):
        assert repr(matrix_result.trace) == "<Trace of 1542 iterations>"
        assert repr(Trace()) == "<Trace of 0 iterations>"


class TestEquality:
    def test_two_solves_of_one_matrix_instance(self, matrix_result):
        again = matrix_solve()
        assert again.trace is not matrix_result.trace
        assert again.trace == matrix_result.trace
        assert not again.trace != matrix_result.trace

    def test_against_lists_in_both_orders(self, matrix_result):
        trace = matrix_result.trace
        records = list(trace)
        assert trace == records and records == trace
        assert trace == tuple(records) and tuple(records) == trace
        assert trace != records[:-1] and records[:-1] != trace
        changed = (records[:5] + [IterationRecord(1.0, 0.5, 2.0, 0.5, 0.25, 0, 0.5, 0.0)]
                   + records[6:])
        assert trace != changed and changed != trace
        assert trace != matrix_solve(seed=2).trace
        assert trace != "not a trace" and trace != 1542

    def test_first_set_certifies(self):
        # Columns 0 and 1 are parallel with marginals 1.6 > rank 1, and T =
        # [0, 1] is the first margin set: the solve certifies with no step.
        frame = Frame(np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
        res = scale_frame(frame, Marginals(np.array([0.8, 0.8, 0.4]), d=2), 1e-6)
        assert not res.scaled and res.iterations == 1
        assert res.trace == [] and [] == res.trace and len(res.trace) == 0
        assert not res.trace and Trace() == ()

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(Trace())


class TestBuiltOnRead:
    def test_solve_builds_no_record(self, monkeypatch):
        built = []
        init = IterationRecord.__init__

        def counting(self, *args, **kwargs):
            built.append(None)
            init(self, *args, **kwargs)

        monkeypatch.setattr(IterationRecord, "__init__", counting)
        res = matrix_solve()
        frame = frame_solve()
        with pytest.raises(IterationCapExceeded) as capped:
            frame_solve(config=SolverConfig(max_iters=7))
        assert built == []
        assert len(list(res.trace)) == len(built) == 1542
        assert len(frame.trace[:10]) == 10 and len(built) == 1552
        assert len(list(capped.value.trace)) == 7 and len(built) == 1559


class TestRoundTrips:
    def test_result_pickles_and_deep_copies(self, frame_result, matrix_result):
        for res in (frame_result, matrix_result):
            for twin in (pickle.loads(pickle.dumps(res)), copy.deepcopy(res)):
                assert type(twin) is ScalingResult and type(twin.trace) is Trace
                assert twin.trace is not res.trace and twin.trace == res.trace
                assert np.array_equal(twin.scaling, res.scaling)
                assert (twin.status, twin.iterations, twin.final_error_sq) == \
                    (res.status, res.iterations, res.final_error_sq)

    def test_capped_error_pickles_with_its_trace(self):
        with pytest.raises(IterationCapExceeded) as info:
            matrix_solve(config=SolverConfig(max_iters=25))
        exc = info.value
        assert type(exc.trace) is Trace and len(exc.trace) == 25
        for twin in (pickle.loads(pickle.dumps(exc)), copy.deepcopy(exc)):
            assert type(twin) is IterationCapExceeded and str(twin) == str(exc)
            assert type(twin.trace) is Trace and twin.trace == exc.trace

    def test_jsonl_bytes_match_a_list(self, tmp_path, frame_result, matrix_result):
        for res in (frame_result, matrix_result):
            a, b = tmp_path / "trace.jsonl", tmp_path / "list.jsonl"
            fio.write_trace_jsonl(a, res.trace)
            fio.write_trace_jsonl(b, list(res.trace))
            assert a.read_bytes() == b.read_bytes()
            assert len(a.read_bytes().splitlines()) == res.iterations


@pytest.mark.parametrize("solve,cap", [(matrix_solve, 25), (matrix_solve, 1),
                                       (frame_solve, 7), (frame_solve, 800)],
                         ids=["matrix-25", "matrix-1", "frame-7", "frame-800"])
def test_capped_trace_is_a_prefix(solve, cap, frame_result, matrix_result):
    # A capped solve's last record derives its progress from the error^2
    # after its last step, which the uncapped solve holds as the next
    # record's error_sq.
    full = (frame_result if solve is frame_solve else matrix_result).trace
    with pytest.raises(IterationCapExceeded) as info:
        solve(config=SolverConfig(max_iters=cap))
    capped = info.value.trace
    assert len(capped) == cap and capped == full[:cap]
    assert capped[-1].progress == full[cap - 1].progress == \
        full[cap - 1].error_sq - full[cap].error_sq


@pytest.mark.parametrize("solve", [matrix_solve, frame_solve], ids=["matrix", "frame"])
def test_retained_bytes_per_iteration(solve):
    # Retained bytes while the result is alive, over a solve after a warm-up
    # solve; a list of records held 225 (matrix) and 277 (frame) per iteration,
    # and eight binary64 slots per iteration 67 and 69.
    solve()
    tracemalloc.start()
    try:
        res = solve()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.scaled and res.iterations > 800
    assert retained / res.iterations <= 56
