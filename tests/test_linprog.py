"""The linear family's simplex against scipy's HiGHS, which only the tests use.

The max-min optimum is unique but its argmax is not, so the centre, the
members drawn from the face and the face certificate may differ between
the two solvers; the status, the margin, the support face, the certificate's
defining property and the forward projection may not.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog as highs_linprog

import divproj.families
from divproj import LinearFamilySpec, forward_dpd_projection
from divproj.errors import InfeasibleError
from divproj.families import SUPPORT_TOL, _max_min_member, linprog

from conftest import forward_corpus, random_distribution, rng_of

# HiGHS at its tightest tolerances; at its defaults (1e-7) it calls corpus
# family 1276 (seed 0) full-support, with a margin of 5.1e-8 that is its own
# constraint violation: the family is the single point (0, 1 - 7.6e-8, 7.6e-8)
TIGHT = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


def highs(c, A, b):
    """``linprog``'s contract, solved by HiGHS."""
    res = highs_linprog(c, A_eq=A, b_eq=b, bounds=(0.0, None), method="highs", options=TIGHT)
    if res.status != 0:
        return res.status, None, None
    return 0, res.x, res.eqlin.marginals


def highs_max_min(f, a):
    """The max-min LP in its own form: max t s.t. f P = a, sum P = 1, P >= t."""
    k, m = f.shape
    c = np.zeros(m + 1)
    c[m] = -1.0
    res = highs_linprog(
        c, A_eq=np.hstack([np.vstack([f, np.ones((1, m))]), np.zeros((k + 1, 1))]), b_eq=np.append(a, 1.0),
        A_ub=np.hstack([-np.eye(m), np.ones((m, 1))]), b_ub=np.zeros(m),
        bounds=[(0.0, 1.0)] * (m + 1), method="highs", options=TIGHT,
    )
    return res.status, (res.x[m] if res.status == 0 else None)


@st.composite
def linear_families(draw):
    """(f, a) with m in 2..6 and k in 1..3 (so (f; 1) can be rank deficient).

    Entries are multiples of 1/64 in [-3, 3]: exact, often equal (the LPs
    are degenerate), and never within 1/64 of each other unless equal.
    Entries that nearly coincide, such as 2 and 2.00001, make a basis at a
    degenerate vertex conditioned at 1e5, and then neither solver's answer
    is good to 1e-12.  Checked against an exact rational simplex on 800
    families with such entries, the max-min margin was off by more than
    1e-12 in 4 here and 14 in HiGHS, and a face LP's optimum in 18 here and
    47 in HiGHS.  The target has integer weights, some of them 0 (boundary faces);
    one target in three has a negative weight and may lie off the simplex,
    so the family may be empty.
    """
    m, k = draw(st.integers(2, 6)), draw(st.integers(1, 3))
    entry = st.integers(-192, 192).map(lambda v: v / 64.0)
    f = np.array(draw(st.lists(entry, min_size=k * m, max_size=k * m))).reshape(k, m)
    low = -2 if draw(st.integers(0, 2)) == 0 else 0
    weights = np.array(draw(st.lists(st.integers(low, 4), min_size=m, max_size=m)), dtype=float)
    if weights.sum() <= 0.0:
        weights[0] += 1.0 - weights.sum()
    return f, f @ (weights / weights.sum())


def built_with(solver, f, a):
    """The family built by ``solver``, or the error type it raised."""
    original = divproj.families.linprog
    divproj.families.linprog = solver
    try:
        return LinearFamilySpec(f, a)
    except InfeasibleError as exc:
        return type(exc)
    finally:
        divproj.families.linprog = original


def check_against_highs(f, a):
    m = f.shape[1]
    full = np.ones(m, dtype=bool)
    status, margin = highs_max_min(f, a)
    solved = _max_min_member(f, a, full)
    assert (solved is not None) == (status == 0)
    if solved is None:
        assert built_with(highs, f, a) is InfeasibleError
        return None
    center, t = solved
    assert abs(t - margin) <= 1e-12
    assert np.max(np.abs(f @ center - a)) <= 1e-12 and abs(center.sum() - 1.0) <= 1e-12
    assert center.min() >= t - 1e-12
    # the face LPs: max P(x_i) over the family, for every symbol
    A, b = np.vstack([f, np.ones((1, m))]), np.append(a, 1.0)
    for i in range(m):
        c = -np.eye(m)[i]
        ours, ref = linprog(c, A, b), highs(c, A, b)
        assert ours[0] == ref[0] == 0
        assert abs(c @ ours[1] - c @ ref[1]) <= 1e-12
        assert np.min(c - A.T @ ours[2]) >= -1e-9  # dual feasible
        assert abs(b @ ours[2] - c @ ours[1]) <= 1e-12  # no duality gap
    lin, ref = LinearFamilySpec(f, a), built_with(highs, f, a)
    assert np.array_equal(lin.support_mask(), ref.support_mask())
    cert = lin.face_certificate()
    w = cert[:-1] @ f + cert[-1]
    face = lin.support_mask()
    assert np.all(np.abs(w[face]) <= 1e-9) and np.all(w[~face] >= 1.0 - 1e-9)
    return lin, ref


@settings(max_examples=200, deadline=None, derandomize=True)
@given(family=linear_families())
def test_random_families_agree_with_highs(family):
    check_against_highs(*family)


@pytest.mark.parametrize("f, a", [
    ([[1.0, 0.0, 0.0]], [0.0]),  # boundary face x1, x2
    ([[1.0, 1.0, 0.0]], [1.0]),  # boundary face x0, x1
    ([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], [0.3, 0.0]),  # the single member (0.3, 0.7, 0)
    ([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]], [0.5, 1.0]),  # a redundant row
    ([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]], [0.5, 0.5]),  # inconsistent rows
    ([[0.0, 0.0, 0.0]], [0.0]),  # a zero row
    ([[1.0, 2.0, 3.0]], [3.5]),  # no member
])
def test_degenerate_families_agree_with_highs(f, a):
    check_against_highs(np.array(f), np.array(a))


def test_forward_corpus_agrees_with_highs():
    corpus = forward_corpus(0)
    rng = rng_of(7)
    for _ in range(150):
        q, f, a = next(corpus)
        lin, ref = check_against_highs(f, a)
        for alpha in (0.5, 2.0, 3.0):
            ours, theirs = forward_dpd_projection(q, lin, alpha), forward_dpd_projection(q, ref, alpha)
            assert np.max(np.abs(ours.p_star.probs - theirs.p_star.probs)) <= 1e-12
        lin.sample_member(rng)


def test_pivot_rule_terminates_on_a_cycling_example():
    # Beale's degenerate LP, which cycles under the largest-coefficient rule
    # from the slack basis; its optimum is -1/20 at x = (1/25, 0, 1, 0)
    c = np.array([-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0])
    A = np.array([
        [0.25, -60.0, -0.04, 9.0, 1.0, 0.0, 0.0],
        [0.5, -90.0, -0.02, 3.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
    ])
    b = np.array([0.0, 0.0, 1.0])
    status, x, y = linprog(c, A, b)
    assert status == 0
    assert c @ x == pytest.approx(-0.05, abs=1e-12)
    assert x[:4] == pytest.approx([0.04, 0.0, 1.0, 0.0], abs=1e-12)
    assert b @ y == pytest.approx(-0.05, abs=1e-12)


def test_unbounded_and_infeasible_status():
    assert linprog(np.array([-1.0, 0.0]), np.array([[1.0, -1.0]]), np.array([1.0]))[0] == 3
    assert linprog(np.array([1.0, 1.0]), np.array([[1.0, 1.0]]), np.array([-1.0]))[0] == 2


def test_margin_is_scale_free():
    # scaling a row of (f, a) changes neither the family nor its margin
    rng = rng_of(11)
    f = rng.standard_normal((2, 4))
    a = f @ random_distribution(rng, 4).probs
    full = np.ones(4, dtype=bool)
    base = _max_min_member(f, a, full)[1]
    assert base > SUPPORT_TOL
    for scale in (1e-6, 1e6):
        row = np.array([scale, 1.0])
        assert _max_min_member(f * row[:, None], a * row, full)[1] == pytest.approx(base, abs=1e-12)
