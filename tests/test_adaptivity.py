"""Marking, refinement-loop, and history tests."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stresseq import (
    AdaptiveConfig,
    ConfigError,
    LoadData,
    Material,
    ProblemError,
    StressEqError,
    adaptive_loop,
    attach_reference_errors,
    cook,
    doerfler_mark,
    manufactured_smooth,
)
from stresseq import estimator
from stresseq.problems import Problem


@pytest.fixture(scope="module")
def cook_history():
    return adaptive_loop(cook(), AdaptiveConfig(k=1, theta=0.5, max_steps=8))


# -- bulk marking ---------------------------------------------------------------


def test_doerfler_theta_one_marks_all_positive():
    marked = doerfler_mark(np.array([0.0, 1.0, 2.0, 0.0]), 1.0)
    assert np.array_equal(marked, [1, 2])


def test_doerfler_example_minimal_set():
    eta = np.array([3.0, 4.0, 0.0])
    marked = doerfler_mark(eta, 0.6)
    assert np.array_equal(marked, [1])
    # exhaustively: no smaller set reaches theta^2 * total
    total = float(np.sum(eta**2))
    assert 0.36 * total > 0.0  # the empty set never qualifies


def test_doerfler_all_equal_marks_quarter():
    eta = np.ones(7)
    marked = doerfler_mark(eta, 0.5)
    # ceil(0.25 * 7) elements, ties broken by ascending index
    assert np.array_equal(marked, [0, 1])


def test_doerfler_zero_field_marks_nothing():
    assert doerfler_mark(np.zeros(5), 0.5).size == 0


def test_doerfler_invalid_theta():
    for theta in (0.0, -0.5, 1.5):
        with pytest.raises(ConfigError):
            doerfler_mark(np.ones(3), theta)


@settings(max_examples=200, deadline=None)
@given(
    eta=st.lists(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=40,
    ),
    theta=st.floats(min_value=0.01, max_value=1.0),
)
# eta^2 is subnormal: theta^2 * total * (1 + 1e-12) on the raw values is 0
@example(eta=[2.1950305233967558e-161], theta=0.0625)
def test_doerfler_criterion_and_minimality(eta, theta):
    eta = np.asarray(eta)
    marked = doerfler_mark(eta, theta)
    assert np.array_equal(marked, np.unique(marked))  # sorted, no repeats
    if not np.any(eta > 0.0):
        assert marked.size == 0
        return
    # sums of squares of the raw values can underflow; the criterion does
    # not depend on the scale of eta, so check it on eta / max(eta)
    scaled = eta / eta.max()
    total = float(np.sum(scaled**2))
    got = float(np.sum(scaled[marked] ** 2))
    assert got >= theta**2 * total * (1.0 - 1e-12)
    # dropping the weakest marked element must break the criterion
    # (for theta == 1 equality holds only with every positive element)
    if marked.size:
        weakest = float(np.min(scaled[marked] ** 2))
        if theta < 1.0:
            assert got - weakest < theta**2 * total * (1.0 + 1e-12)
        else:
            assert np.all(eta[marked] > 0.0)


def test_doerfler_marks_as_at_unit_scale_when_squares_are_subnormal():
    theta = np.sqrt(0.5 + 1e-6)
    assert np.array_equal(doerfler_mark(np.array([1.0, 1.0]), theta), [0, 1])
    assert np.array_equal(doerfler_mark(np.array([1e-160, 1e-160]), theta), [0, 1])
    assert np.array_equal(doerfler_mark(np.array([1e-170]), 0.5), [0])


@settings(max_examples=200, deadline=None)
@given(
    eta=st.lists(
        st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=1e3)),
        min_size=1,
        max_size=40,
    ),
    theta=st.floats(min_value=0.01, max_value=1.0),
    power=st.integers(min_value=-1000, max_value=1000),
)
def test_doerfler_marking_is_invariant_under_power_of_two_scaling(eta, theta, power):
    eta = np.asarray(eta)
    scaled = np.ldexp(eta, power)  # exact: every value stays normal and finite
    assert np.array_equal(doerfler_mark(scaled, theta), doerfler_mark(eta, theta))


# -- config validation ------------------------------------------------------------


def test_config_validation():
    AdaptiveConfig()  # defaults are valid
    with pytest.raises(ConfigError):
        AdaptiveConfig(k=3)
    with pytest.raises(ConfigError):
        AdaptiveConfig(theta=0.0)
    with pytest.raises(ConfigError):
        AdaptiveConfig(theta=1.2)
    with pytest.raises(ConfigError):
        AdaptiveConfig(max_steps=0)
    with pytest.raises(ConfigError):
        AdaptiveConfig(max_dofs=0)
    with pytest.raises(ConfigError):
        AdaptiveConfig(estimator="exotic")
    with pytest.raises(ConfigError):
        AdaptiveConfig(mode="random")


# -- loop behavior ------------------------------------------------------------------


def test_single_step_records_initial_mesh():
    problem = manufactured_smooth(Material(mu=1.0, inv_lambda=0.0), cells=2)
    history = adaptive_loop(problem, AdaptiveConfig(max_steps=1))
    assert len(history) == 1
    step = history[0]
    assert step.mesh is problem.mesh
    assert step.marked is None
    assert step.error is not None  # analytic solution available
    assert step.report.bound >= step.error**2


def test_loop_keeps_tables_of_the_last_step_only(cook_history):
    stores = ("classes", "constraints", "stress_chunks")
    discs = [step.disc for step in cook_history]
    for disc in discs[:-1]:
        assert not any(name in vars(disc) for name in stores)
    assert all(name in vars(discs[-1]) for name in stores)


def test_max_dofs_stops_early():
    problem = manufactured_smooth(Material(mu=1.0, inv_lambda=0.0), cells=2)
    history = adaptive_loop(
        problem, AdaptiveConfig(max_steps=50, theta=0.9, max_dofs=500)
    )
    assert len(history) < 50
    assert history[-1].n_dofs >= 500
    assert all(s.n_dofs < 500 for s in history[:-1])


def test_marking_concentrates_at_singular_corner(cook_history):
    """Every marked element sits at the clamped top corner of the panel."""
    for i, step in enumerate(cook_history[:-1]):
        mids = step.mesh.vertices[step.mesh.triangles[step.marked]].mean(axis=1)
        dist = np.linalg.norm(mids - np.array([0.0, 0.44]), axis=1)
        assert np.mean(dist < 0.1) >= 0.9, f"step {i}"


def test_eta_total_trends_down_with_small_wobble(cook_history):
    eta = [s.report.eta_total for s in cook_history]
    for i in range(1, len(eta) - 1):
        assert eta[i + 1] <= 1.05 * eta[i], f"step {i} -> {i + 1}"
    assert eta[-1] < eta[0]


def test_residual_sum_decreases(cook_history):
    sums = np.array(
        [float(np.sum(s.report.eta_R**2)) for s in cook_history]
    )
    assert np.all(np.diff(sums) < 0.0)


def _eta_total_slope(steps):
    """Log-log slope of eta_total against the dof count."""
    n_dofs = [s.n_dofs for s in steps]
    eta = [s.report.eta_total for s in steps]
    return np.polyfit(np.log(n_dofs), np.log(eta), 1)[0]


def test_adaptive_matches_uniform_rate_on_smooth_problem():
    """On a smooth problem, bulk marking recovers the uniform-mesh rate."""
    mat = Material(mu=1.0, inv_lambda=0.0)
    hist_a = adaptive_loop(
        manufactured_smooth(mat, cells=4),
        AdaptiveConfig(k=1, theta=0.7, max_steps=11),
    )
    sl_a = _eta_total_slope(hist_a[-6:])
    hist_u = adaptive_loop(
        manufactured_smooth(mat, cells=4),
        AdaptiveConfig(k=1, max_steps=6, mode="uniform", uniform_rounds=1),
    )
    sl_u = _eta_total_slope(hist_u[-4:])
    assert abs(sl_a - sl_u) <= 0.1 * abs(sl_u)
    assert sl_u < -0.9  # the uniform rate itself is the optimal one


def test_uniform_mode_squares_mesh_size():
    problem = manufactured_smooth(Material(mu=1.0, inv_lambda=0.0), cells=2)
    history = adaptive_loop(
        problem, AdaptiveConfig(max_steps=3, mode="uniform", uniform_rounds=2)
    )
    counts = [s.mesh.n_triangles for s in history]
    assert counts == [8, 32, 128]
    for step in history:
        assert step.marked is None


def test_loop_rejects_stalled_dof_counts():
    """Without load every indicator is zero, so nothing is marked and the
    second mesh has the dof count of the first."""
    base = manufactured_smooth(Material(mu=1.0, inv_lambda=0.0), cells=2)
    problem = dataclasses.replace(base, load=LoadData(), exact=None)
    with pytest.raises(StressEqError, match=r"^step 1: dof count stalled"):
        adaptive_loop(problem, AdaptiveConfig(max_steps=3))


def test_loop_errors_carry_step_prefix():
    base = manufactured_smooth(Material(mu=1.0, inv_lambda=0.0), cells=2)

    def bad_load(x):
        raise ProblemError("load blew up")

    problem = Problem(
        name=base.name,
        mesh=base.mesh,
        material=base.material,
        load=type(base.load)(volume=bad_load, traction=None),
        exact=None,
    )
    with pytest.raises(ProblemError, match=r"^step 0: "):
        adaptive_loop(problem, AdaptiveConfig(max_steps=2))


# -- proxy reference errors ---------------------------------------------------------


def test_attach_reference_errors_skips_finest(cook_history):
    attach_reference_errors(cook_history, cook().material)
    n = len(cook_history)
    for step in cook_history[: n - 2]:
        assert step.error is not None and step.error > 0.0
        assert step.effectivity is not None
    assert cook_history[n - 2].error is None
    assert cook_history[n - 1].error is None
    errors = np.array([s.error for s in cook_history[: n - 2]])
    assert np.all(np.diff(errors) < 0.0)  # errors shrink under refinement
    # the guaranteed bound holds against the proxy at every reported step
    for step in cook_history[: n - 2]:
        assert step.error**2 <= step.report.bound


def test_reference_fields_evaluated_once_per_fine_chunk(cook_history, monkeypatch):
    """attach_reference_errors evaluates the finest fields once per chunk of
    1,024 fine elements for all reported steps, not once per step; each
    reported step's fields are evaluated once per chunk, at the points of
    the fine rule."""
    calls = []
    inner = estimator.fields_at

    def counting(fields, elems, ref):
        calls.append(fields)
        return inner(fields, elems, ref)

    monkeypatch.setattr(estimator, "fields_at", counting)
    attach_reference_errors(cook_history, cook().material)
    n_chunks = -(-cook_history[-1].mesh.n_triangles // 1024)
    reported = [step.fields for step in cook_history[:-2]]
    assert len(reported) > n_chunks
    expected = [cook_history[-1].fields, *reported] * n_chunks
    assert [id(f) for f in calls] == [id(f) for f in expected]


def test_attach_reference_errors_short_history_noop():
    problem = manufactured_smooth(Material(mu=1.0, inv_lambda=0.0), cells=2)
    history = adaptive_loop(problem, AdaptiveConfig(max_steps=2, theta=0.9))
    before = [s.error for s in history]
    attach_reference_errors(history, problem.material)
    assert [s.error for s in history] == before
