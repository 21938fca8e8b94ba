"""Maximizer tests: the Brent reference (tests/oracles/brent.py) on its
1-D corpus, scale robustness and boundary detection, the batched 1-D
Newton search, the objectives from the bound machinery, and the 2-D
Newton search."""

import math

import numpy as np
import pytest

from oracles import brent
from sobomul import bounds, optim
from sobomul.kernels import BoundQuery, log_upper_curve


def test_parabola():
    res = brent.maximize_1d(lambda x: -(x - 1.0) ** 2, 0.0, 3.0, 0.2)
    assert res.converged
    assert abs(res.argmax[0] - 1.0) < 1e-7
    assert abs(res.max_value) < 1e-12


def test_boundary_supremum_detected():
    with pytest.raises(optim.BracketBoundaryError) as err:
        brent.maximize_1d(lambda x: x, 0.0, 10.0, 1.0)
    assert err.value.side == "hi"
    assert err.value.best_x == 10.0


def test_scale_robustness():
    r1 = brent.maximize_1d(lambda x: math.sin(x), 0.0, 3.0, 0.3, tol_x=1e-9)
    r2 = brent.maximize_1d(lambda x: 1e6 * math.sin(x), 0.0, 3.0, 0.3, tol_x=1e-9)
    assert abs(r1.argmax[0] - r2.argmax[0]) <= 1e-8 * max(1.0, abs(r1.argmax[0]))


def _unimodal_corpus():
    """30 cases of (function, domain, start, true argmax)."""
    cases = []
    rng = np.random.default_rng(101)
    for _ in range(10):  # shifted/scaled concave parabolas
        a = float(rng.uniform(0.5, 9.5))
        s = float(np.exp(rng.uniform(-2, 4)))
        cases.append((lambda x, a=a, s=s: -s * (x - a) ** 2, (0.0, 10.0), 5.0, a))
    for _ in range(10):  # gaussians
        a = float(rng.uniform(1.0, 9.0))
        w = float(rng.uniform(0.2, 3.0))
        cases.append((lambda x, a=a, w=w: math.exp(-((x - a) / w) ** 2),
                      (0.0, 10.0), 2.0, a))
    for _ in range(5):  # asymmetric log-concave
        a = float(rng.uniform(1.0, 5.0))
        cases.append((lambda x, a=a: x / a - math.exp(x - a) / a, (0.0, 12.0), 1.0, a))
    for _ in range(5):  # |x - a|^p cusps, p > 1
        a = float(rng.uniform(2.0, 8.0))
        p = float(rng.uniform(1.3, 3.0))
        cases.append((lambda x, a=a, p=p: -abs(x - a) ** p, (0.0, 10.0), 9.0, a))
    return cases


def test_unimodal_corpus_argmax_accuracy():
    tol_x = 1e-8
    for f, (lo, hi), x0, a_true in _unimodal_corpus():
        res = brent.maximize_1d(f, lo, hi, x0, tol_x=tol_x)
        assert abs(res.argmax[0] - a_true) <= tol_x * max(1.0, abs(a_true)) * 50, \
            f"argmax {res.argmax[0]} vs {a_true}"


def test_max_value_is_reevaluation():
    res = brent.maximize_1d(lambda x: -(x - 2.0) ** 4, 0.0, 5.0, 1.0)
    x = res.argmax[0]
    assert abs(res.max_value - (-(x - 2.0) ** 4)) <= 1e-9 * max(1.0, abs(res.max_value))


def test_truncated_run_still_reports_best():
    # any evaluated point is usable; a budget-starved run is flagged
    res = brent.maximize_1d(lambda x: -(x - 1.0) ** 2, 0.0, 3.0, 0.01,
                            tol_x=1e-14, max_iter=3)
    assert not res.converged
    assert res.max_value == max(v for _, v in res.history)


def test_history_recorded():
    res = brent.maximize_1d(lambda x: -(x - 1.0) ** 2, 0.0, 3.0, 0.2)
    assert len(res.history) == res.iterations
    xs = [x for x, _ in res.history]
    assert min(xs) >= 0.0 and max(xs) <= 3.0


def _smooth_corpus():
    """(f, f', f'') as one function, domain, start and true argmax: the
    parabolas, gaussians and asymmetric log-concave cases of the corpus
    and the sine pair, each with exact derivatives."""
    cases = []
    rng = np.random.default_rng(101)
    for _ in range(10):
        a = float(rng.uniform(0.5, 9.5))
        s = float(np.exp(rng.uniform(-2, 4)))
        cases.append((lambda x, a=a, s=s: (-s * (x - a) ** 2, -2.0 * s * (x - a), -2.0 * s),
                      (0.0, 10.0), 5.0, a))
    for _ in range(10):
        a = float(rng.uniform(1.0, 9.0))
        w = float(rng.uniform(0.2, 3.0))

        def gauss(x, a=a, w=w):
            f = math.exp(-((x - a) / w) ** 2)
            return f, -2.0 * (x - a) / w ** 2 * f, (4.0 * (x - a) ** 2 / w ** 4 - 2.0 / w ** 2) * f
        cases.append((gauss, (0.0, 10.0), 2.0, a))
    for _ in range(5):
        a = float(rng.uniform(1.0, 5.0))
        cases.append((lambda x, a=a: (x / a - math.exp(x - a) / a, (1.0 - math.exp(x - a)) / a,
                                      -math.exp(x - a) / a), (0.0, 12.0), 1.0, a))
    for scale in (1.0, 1e6):
        cases.append((lambda x, s=scale: (s * math.sin(x), s * math.cos(x), -s * math.sin(x)),
                      (0.0, 3.0), 0.3, 0.5 * math.pi))
    return cases


def _newton_rows(cases, max_iter=100):
    """maximize_1d_newton over the cases that share one domain, as the rows
    of one batch; returns the outcomes and each round's row count."""
    calls = []

    def batch(at, x):
        calls.append(len(at))
        return tuple(np.array(v) for v in zip(*(cases[r][0](xi) for r, xi in zip(at, x))))

    (lo, hi), = {case[1] for case in cases}
    got = optim.maximize_1d_newton(batch, lo, hi, [case[2] for case in cases], max_iter=max_iter)
    return got, calls


def test_newton_rows_end_as_their_one_row_runs():
    # the smooth corpus and a boundary row (f = x, rising up to the upper
    # bound) as the rows of one batch per domain: each row ends exactly as
    # its one-row run, and each round evaluates every row still searching
    cases = _smooth_corpus() + [(lambda x: (x, 1.0, 0.0), (0.0, 10.0), 8.0, 10.0)]
    boundary_exits = 0
    for max_iter in (100, 3):
        for domain in sorted({case[1] for case in cases}):
            rows = [case for case in cases if case[1] == domain]
            got, calls = _newton_rows(rows, max_iter)
            for case, res in zip(rows, got):
                (want,), _ = _newton_rows([case], max_iter)
                if isinstance(want, optim.BracketBoundaryError):
                    assert isinstance(res, optim.BracketBoundaryError)
                    assert (res.side, res.best_x, res.best_f) == \
                        (want.side, want.best_x, want.best_f) == ("hi", 10.0, 10.0)
                    boundary_exits += 1
                    continue
                fields = ("argmax", "max_value", "iterations", "converged", "slope",
                          "curvature", "gain")
                assert [getattr(res, k) for k in fields] == [getattr(want, k) for k in fields]
            assert calls[0] == len(rows) and calls == sorted(calls, reverse=True)
    assert boundary_exits == 2


def test_newton_reaches_the_maximum_within_its_gain():
    # every search converges, in few evaluations, and its value plus its
    # reported gain is not below the true maximum
    worst_evals = 0
    for f, (lo, hi), x0, a in _smooth_corpus():
        (res,), _ = _newton_rows([(f, (lo, hi), x0, a)])
        assert res.converged, (x0, a)
        assert f(a)[0] <= res.max_value + res.gain, (x0, a)
        assert abs(res.argmax[0] - a) <= 1e-6 * max(1.0, abs(a)), (res.argmax, a)
        worst_evals = max(worst_evals, res.iterations)
    assert worst_evals <= 20
    # and so does the 2-D search on its quadratic and cosine objectives
    for f, start, peak in ((_quadratic_in_p_s, (0.5, 0.5), (1.0, 2.0)),
                           (_cosines, (1.3, 0.9), (1.0, 1.0))):
        res = optim.maximize_2d(_rows(f), [start])
        assert res.converged, start
        assert f(*peak)[0] <= res.max_value + res.gain, start


def test_newton_stops_where_the_function_is_not_finite():
    (res,), _ = _newton_rows([(lambda x: (-math.inf, math.nan, math.nan), (0.0, 1.0), 0.5, 0.5)])
    assert not res.converged and res.iterations == 1 and res.max_value == -math.inf


# ----------------------------------------------------------------------
# the curves the bounds maximize
# ----------------------------------------------------------------------

def test_upper_curve_five_halves_two():
    # the (n, d) = (5/2, 2) curve peaks exactly at u = 16/5
    q = BoundQuery(d=2, n=2.5)
    res = brent.maximize_1d(lambda x: log_upper_curve(q, math.exp(x)),
                            math.log(1e-9), math.log(1e9), math.log(0.5),
                            tol_x=1e-10)
    assert abs(math.exp(res.argmax[0]) - 3.2) < 1e-6


def test_upper_curve_two_two():
    q = BoundQuery(d=2, n=2.0)
    res = brent.maximize_1d(lambda x: log_upper_curve(q, math.exp(x)),
                            math.log(1e-9), math.log(1e9), math.log(0.5),
                            tol_x=1e-10)
    assert abs(math.exp(res.argmax[0]) - 6.84) < 0.01


# ----------------------------------------------------------------------
# 2-D trust-region Newton search
# ----------------------------------------------------------------------

def _log_coords(value, du, dv, duu, duv, dvv):
    """An objective's (value, gradient, Hessian) triple in log coordinates."""
    return value, np.array([du, dv]), np.array([[duu, duv], [duv, dvv]])


def _rows(f):
    """The rows objective of maximize_2d from a pointwise one: f(x, y) ->
    (value, gradient, Hessian) at each point of the arrays x and y."""
    def rows(xs, ys):
        values, grads, hessians = zip(*map(f, xs.tolist(), ys.tolist()))
        return np.array(values), np.array(grads), np.array(hessians)
    return rows


def _quadratic_in_p_s(p, s):
    # -(p - 1)^2 - (s - 2)^2 with derivatives in (log p, log s):
    # d/dlog p = p d/dp, d^2/dlog p^2 = p d/dp + p^2 d^2/dp^2
    return _log_coords(-(p - 1.0) ** 2 - (s - 2.0) ** 2,
                       -2.0 * p * (p - 1.0), -2.0 * s * (s - 2.0),
                       -2.0 * p * (p - 1.0) - 2.0 * p * p, 0.0,
                       -2.0 * s * (s - 2.0) - 2.0 * s * s)


def _cosines(p, s):
    # cos(u) + cos(v), u = log p, v = log s: maxima 2 at u, v in 2 pi Z
    u, v = math.log(p), math.log(s)
    return _log_coords(math.cos(u) + math.cos(v), -math.sin(u), -math.sin(v),
                       -math.cos(u), 0.0, -math.cos(v))


def test_newton_2d_trivial_quadratic():
    res = optim.maximize_2d(_rows(_quadratic_in_p_s), [(0.5, 0.5), (3.0, 3.0)])
    assert res.converged
    assert abs(res.argmax[0] - 1.0) < 1e-9
    assert abs(res.argmax[1] - 2.0) < 1e-9
    assert res.iterations < 40


def test_newton_2d_log_space_positivity():
    # objective peaked at tiny coordinates; log coordinates keep positivity
    def f(p, s):
        u, v = math.log(p) + 6.0, math.log(s) + 9.0
        return _log_coords(-u * u - v * v, -2.0 * u, -2.0 * v, -2.0, 0.0, -2.0)

    res = optim.maximize_2d(_rows(f), [(1.0, 1.0)])
    assert res.converged
    assert res.argmax[0] > 0.0 and res.argmax[1] > 0.0
    assert abs(math.log(res.argmax[0]) + 6.0) < 1e-9
    assert abs(math.log(res.argmax[1]) + 9.0) < 1e-9


def test_newton_2d_multistart_deterministic():
    starts = [(0.5, 0.5), (2.0, 0.2), (0.2, 2.0)]
    r1 = optim.maximize_2d(_rows(_quadratic_in_p_s), starts)
    r2 = optim.maximize_2d(_rows(_quadratic_in_p_s), starts)
    assert r1.argmax == r2.argmax and r1.max_value == r2.max_value
    assert r1.iterations == r2.iterations


def test_newton_2d_needs_positive_starts():
    def flat(p, s):
        return _log_coords(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    with pytest.raises(ValueError):
        optim.maximize_2d(_rows(flat), [(0.0, 1.0)])
    with pytest.raises(ValueError):
        optim.maximize_2d(_rows(flat), [])


def test_newton_climbs_away_from_a_minimum():
    # cos(u) + cos(v) in log coordinates, started beside its minimum at
    # (pi, pi): the saddle-free step goes uphill along both eigendirections,
    # where plain Newton would fall into the minimum
    start = (math.exp(math.pi + 0.1), math.exp(math.pi - 0.1))
    res = optim.maximize_2d(_rows(_cosines), [start])
    assert res.converged
    assert abs(res.max_value - 2.0) < 1e-14
    assert res.iterations < 40


def test_newton_budget_exhausted_reports_best():
    # a budget-starved start is flagged and still reports its best point
    evaluated = []

    def f(p, s):
        evaluated.append(_quadratic_in_p_s(p, s)[0])
        return _quadratic_in_p_s(p, s)

    res = optim.maximize_2d(_rows(f), [(0.01, 0.01)], max_iter=3)
    assert not res.converged
    assert res.iterations == len(evaluated) == 3
    assert res.max_value == max(evaluated)


def test_2d_rows_take_their_one_start_steps():
    # Each round evaluates every live start in one call; given the same
    # values, each start visits exactly the points of its one-start run,
    # iterations count the points of all starts, and the result is the
    # best start, ties broken toward the smallest argmax.  Every start
    # climbs to a maximum of exactly 2, at u = 2 pi or near u = 0.
    starts = [(math.exp(2.0 * math.pi + 0.3), math.exp(-0.2)), (1.3, 0.9),
              (math.exp(math.pi + 0.1), math.exp(math.pi - 0.1)), (0.05, 20.0)]
    rounds = []

    def recording(xs, ys):
        rounds.append(list(zip(xs.tolist(), ys.tolist())))
        return _rows(_cosines)(xs, ys)

    res = optim.maximize_2d(recording, starts)
    alone = []
    for start in starts:
        points = []

        def one(xs, ys):
            points.extend(zip(xs.tolist(), ys.tolist()))
            return _rows(_cosines)(xs, ys)

        alone.append((optim.maximize_2d(one, [start]), points))
    for i, (_one, points) in enumerate(alone):
        # round r holds, in start order, the starts with more than r points
        seen = [rnd[[len(p) > r for _o, p in alone][:i].count(True)]
                for r, rnd in enumerate(rounds) if r < len(points)]
        assert seen == points, i
    assert len(rounds) == max(len(points) for _one, points in alone)
    assert res.iterations == sum(one.iterations for one, _p in alone)
    assert res.converged == any(one.converged for one, _p in alone)
    tied = sorted(one.argmax for one, _p in alone if one.max_value == 2.0)
    assert len(tied) == 4 and tied[0] != alone[0][0].argmax
    assert res.max_value == 2.0 and res.argmax == tied[0]


def test_newton_2d_stops_where_the_value_is_not_finite():
    # a start whose value is NaN stops there unconverged, and the best of
    # the starts ranks it below every finite one
    def nan_value(p, s):
        return (math.nan,) + _quadratic_in_p_s(p, s)[1:]

    def nan_beyond_five(p, s):
        return (nan_value if p > 5.0 else _quadratic_in_p_s)(p, s)

    res = optim.maximize_2d(_rows(nan_value), [(1.0, 1.0)])
    assert math.isnan(res.max_value) and not res.converged and res.iterations == 1
    res = optim.maximize_2d(_rows(nan_beyond_five), [(10.0, 1.0), (0.5, 0.5)])
    assert res.converged and abs(res.max_value) < 1e-15
    assert abs(res.argmax[0] - 1.0) < 1e-9 and abs(res.argmax[1] - 2.0) < 1e-9


@pytest.mark.parametrize("d, n", [(2, 1.11), (5, 2.61), (2, 5.5), (1, 0.75), (1, 1.5), (1, 3.5),
                                  (1, 6.5), (1, 15.5), (1, 30.5), (2, 1.25), (2, 1.5), (2, 2.5)])
def test_2d_lockstep_counts_match_one_start_runs_on_fourier_objectives(d, n):
    # On the (F) rule route the starts of one call share padded rule rows,
    # which round the objective differently than a start's call alone; a
    # start still ends where its value does, so the lockstep count is the
    # sum of the one-start counts (d = 1, 2 cells are the non-integer
    # cells of table1).
    q = BoundQuery(d=d, n=n)
    assert not bounds._on_closed_sum(q)
    objective, starts = bounds._fourier_search_objective(q), bounds._fourier_starts(q.n)
    alone = [optim.maximize_2d(objective, [start]).iterations for start in starts]
    assert optim.maximize_2d(objective, starts).iterations == sum(alone)
