"""Semantics of envma's records: the grid and the box are immutable values
that compare and hash by their fields, a certificate's row i is row i of
every field, each solve report has its own lists, the study row reads by
field name, and the membership check is a plain count."""

import copy
import pickle

import numpy as np
import pytest

from envma import solver
from envma.envelope import ThetaBox, envelope_batch
from envma.solver import ConvergenceRow, GridSpec, ScalarField, SolveReport, check_premises
from oracles import sample_symmetric


def test_grids_from_any_corner_sequence_are_equal():
    grids = [GridSpec(2, [-1, 0, -1, 0], [1, 2, 1, 2], 7),
             GridSpec(2, (-1.0, 0.0, -1.0, 0.0), (1.0, 2.0, 1.0, 2.0), 7.0),
             GridSpec(np.int64(2), np.array([-1.0, 0.0, -1.0, 0.0]), np.array([1, 2, 1, 2]),
                      np.int64(7))]
    for grid in grids:
        assert grid == grids[0] and hash(grid) == hash(grids[0])
        assert grid.lo == (-1.0, 0.0, -1.0, 0.0) and type(grid.lo[0]) is float
        assert type(grid.n) is int and type(grid.points_per_axis) is int
    assert GridSpec(2, (-1.0, 0.0, -1.0, 0.0), (1.0, 2.0, 1.0, 2.0), 9) != grids[0]
    assert grids[0] != (2, (-1.0, 0.0, -1.0, 0.0), (1.0, 2.0, 1.0, 2.0), 7)
    assert repr(grids[0]) == ("GridSpec(n=2, lo=(-1.0, 0.0, -1.0, 0.0), "
                              "hi=(1.0, 2.0, 1.0, 2.0), points_per_axis=7)")


def test_an_equal_grid_built_separately_hits_the_stencil_cache():
    first = GridSpec(1, (0.0, 0.0), (1.0, 3.0), 6)
    stencil = solver._hessian_stencil(first)
    hits = solver._hessian_stencil.cache_info().hits
    assert solver._hessian_stencil(GridSpec(1, [0, 0], np.array([1, 3]), 6)) is stencil
    assert solver._hessian_stencil.cache_info().hits == hits + 1


def test_boxes_are_normalized_values():
    assert ThetaBox(2.0, 1) == ThetaBox(0.5, 1)
    assert hash(ThetaBox(2.0, 1)) == hash(ThetaBox(0.5, 1))
    assert ThetaBox(2.0, 1).theta == 0.5 and ThetaBox(2.0, 1).hi == 2.0
    assert ThetaBox(0.5, np.int64(2)) == ThetaBox(np.float64(0.5), 2.0)
    assert type(ThetaBox(0.5, np.int64(2)).n) is int
    assert ThetaBox(0.5, 1) != ThetaBox(0.5, 2) and ThetaBox(0.5, 1) != (0.5, 1)
    assert repr(ThetaBox(0.25, 3)) == "ThetaBox(theta=0.25, n=3)"


@pytest.mark.parametrize("record", [GridSpec(1, (0.0, 0.0), (1.0, 1.0), 5), ThetaBox(0.5, 1)])
def test_grids_and_boxes_refuse_assignment(record):
    before = repr(record)
    for name in (*type(record).__slots__, "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == before


@pytest.mark.parametrize("record", [GridSpec(1, (0.0, 0.0), (1.0, 1.0), 5), ThetaBox(0.5, 1)])
def test_grids_and_boxes_pickle_and_copy_as_values(record):
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert twin == record and hash(twin) == hash(record)


def test_certificate_row_is_the_row_of_every_field():
    rng = np.random.default_rng(3)
    cert = envelope_batch(np.array([sample_symmetric(rng, 4, 1.0) for _ in range(5)]),
                          ThetaBox(0.3, 2))
    names = ("value", "slope_eigs", "intercept", "slope", "mu", "inner_max")
    assert tuple(vars(cert)) == names
    for i in (0, 3, -1):
        row = cert[i]
        for name in names:
            assert np.array_equal(getattr(row, name), getattr(cert, name)[i]), (i, name)


def test_solve_reports_share_no_list():
    a, b = SolveReport(), SolveReport()
    a.residual_history.append(1.0)
    a.krylov_steps.append(3)
    assert b.residual_history == [] and b.krylov_steps == []
    assert (a.iterations, a.converged, a.final_residual, a.wall_time_s, a.residual) == (
        0, False, float("inf"), 0.0, None)


def test_study_and_membership_rows_read_by_name():
    row = ConvergenceRow(17, 0.125, 2.5e-4, 2.0, False, 3e-10)
    assert (row.points_per_axis, row.h, row.max_error, row.observed_order, row.converged,
            row.final_residual) == (17, 0.125, 2.5e-4, 2.0, False, 3e-10)
    grid = GridSpec(1, (-1.0, -1.0), (1.0, 1.0), 5)
    outside = check_premises(ScalarField.from_function(grid, lambda x, y: x**2 + y**2),
                             ThetaBox(0.4, 1))
    assert type(outside) is int and outside == 0
