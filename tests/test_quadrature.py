import math
import re
import tracemalloc

import numpy as np
import pytest

from creasegeom import (
    GoreSphereSpec,
    MudguardSpec,
    ParameterError,
    QuadratureError,
    gore_sphere_total,
    integrate,
    mudguard_closed_form,
    mudguard_total,
    quadrature,
)

try:
    from hypothesis import given, settings, strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False


def test_integrate_sine():
    result = integrate(np.sin, 0.0, math.pi)
    assert result.value == pytest.approx(2.0, abs=1e-10)
    assert result.evaluations > 0


def test_integrate_cosine_symmetric():
    result = integrate(np.cos, -math.pi / 2, math.pi / 2)
    assert result.value == pytest.approx(2.0, abs=1e-10)


def test_integrate_empty_interval():
    assert integrate(np.sin, 1.0, 1.0).value == 0.0


def test_integrate_reversed_interval_is_negated():
    fwd = integrate(np.sin, 0.0, math.pi)
    rev = integrate(np.sin, math.pi, 0.0)
    assert rev.value == pytest.approx(-fwd.value, rel=1e-12)


def test_integrate_deterministic():
    f = lambda x: np.exp(-x * x)
    r1 = integrate(f, -3.0, 3.0)
    r2 = integrate(f, -3.0, 3.0)
    assert r1 == r2


def test_integrate_tolerance_self_consistency():
    f = lambda x: np.sin(3 * x) ** 2 + x
    loose = integrate(f, 0.0, 2.0, tol=1e-6)
    tight = integrate(f, 0.0, 2.0, tol=5e-7)
    assert abs(tight.value - loose.value) <= max(loose.error_estimate, 1e-6)


def test_integrate_cap_raises_with_best_estimate():
    # a needle the refinement keeps chasing
    f = lambda x: 1.0 / np.sqrt(np.abs(x) + 1e-300)
    with pytest.raises(QuadratureError) as excinfo:
        integrate(f, -1.0, 1.0, tol=1e-14, max_evals=2_000)
    err = excinfo.value
    assert err.best is not None
    assert err.evaluations <= 2_000


def test_integrate_rejects_bad_inputs():
    with pytest.raises(ParameterError):
        integrate(np.sin, 0.0, 1.0, tol=0.0)
    with pytest.raises(ParameterError, match="not finite"):
        integrate(lambda x: np.full_like(x, math.inf), 0.0, 1.0)
    with pytest.raises(ParameterError, match="not finite"):  # one bad integral in a batch
        integrate(lambda x, c: x + c, 0.0, 1.0, args=(np.array([1.0, math.inf, 2.0]),))
    with pytest.raises(ParameterError, match="shape"):  # the contract: ndarray in, ndarray out
        integrate(lambda x: 1.0, 0.0, 1.0)


def test_mudguard_closed_form_canonical():
    value = mudguard_closed_form(10.0, 0.1, 0.2)
    expected = 4 * math.pi * 10 * math.sin(0.2) / (10 - 0.1 * (1 - math.cos(0.2)))
    assert value == pytest.approx(expected, rel=1e-15)
    assert value == pytest.approx(2.49705, rel=1e-5)


def test_mudguard_total_two_routes_agree():
    total = mudguard_total(MudguardSpec(R=10.0, r=0.1, mu=0.2))
    closed = mudguard_closed_form(10.0, 0.1, 0.2)
    assert total.value == pytest.approx(closed, rel=1e-9)
    assert abs(total.value - closed) <= 1e-8 * closed


def test_mudguard_r_to_zero_limit():
    mu = 0.3
    limit = 4 * math.pi * math.sin(mu)
    for ratio in (1e-2, 1e-3, 1e-4):
        value = mudguard_closed_form(1.0, ratio, mu)
        assert abs(value - limit) / limit <= ratio  # O(r/R) deficit
    # per unit hoop length the rate recovers the curved-crease law 2 sin(mu)/R
    rate = mudguard_closed_form(10.0, 1e-6, mu) / (2 * math.pi * 10.0)
    assert rate == pytest.approx(2 * math.sin(mu) / 10.0, rel=1e-6)


def test_gore_sphere_total_values():
    total8 = gore_sphere_total(GoreSphereSpec(R=1.0, n=8)).value
    assert total8 == pytest.approx(12.35237, rel=1e-5)
    assert total8 < 4 * math.pi
    # monotone approach to 4*pi from below
    total16 = gore_sphere_total(GoreSphereSpec(R=1.0, n=16)).value
    assert total8 < total16 < 4 * math.pi


def test_gore_sphere_total_large_n():
    total = gore_sphere_total(GoreSphereSpec(R=1.0, n=1000)).value
    assert total == pytest.approx(4 * math.pi, rel=1e-4)


def test_gore_deficit_quarter_per_doubling():
    deficits = {
        n: 4 * math.pi - gore_sphere_total(GoreSphereSpec(R=1.0, n=n)).value
        for n in (8, 16, 32, 64)
    }
    for n in (8, 16, 32):
        assert deficits[n] / deficits[2 * n] == pytest.approx(4.0, rel=0.1)


def test_spec_validation():
    with pytest.raises(ParameterError):
        MudguardSpec(R=10.0, r=6.0, mu=0.2)  # r >= R/2
    with pytest.raises(ParameterError):
        MudguardSpec(R=10.0, r=0.1, mu=0.0)
    with pytest.raises(ParameterError):
        MudguardSpec(R=-1.0, r=0.1, mu=0.2)
    with pytest.raises(ParameterError):
        GoreSphereSpec(R=1.0, n=2)
    with pytest.raises(ParameterError):
        GoreSphereSpec(R=0.0, n=8)


# -- the batched refinement against the one-interval loop it replaced ---------

def lifo_simpson(f, lo, hi, tol=1e-10, max_evals=1_000_000):
    """The last-in, first-out loop over one interval at a time that
    integrate's levels reproduce: (value, error estimate, evaluations), or
    None where that loop stops at the evaluation cap."""
    if lo == hi:
        return 0.0, 0.0, 0
    fa, fm, fb = f(lo), f(0.5 * (lo + hi)), f(hi)
    evals = 3
    stack = [(lo, hi, fa, fm, fb, (hi - lo) * (fa + 4.0 * fm + fb) / 6.0, tol)]
    total = err = 0.0
    while stack:
        a, b, fa, fm, fb, s, t = stack.pop()
        if evals + 2 > max_evals:
            return None
        m = 0.5 * (a + b)
        flm, frm = f(0.5 * (a + m)), f(0.5 * (m + b))
        evals += 2
        s_left = (m - a) * (fa + 4.0 * flm + fm) / 6.0
        s_right = (b - m) * (fm + 4.0 * frm + fb) / 6.0
        delta = s_left + s_right - s
        if abs(delta) <= 15.0 * t or abs(b - a) < 1e-14 * abs(hi - lo):
            total += s_left + s_right + delta / 15.0
            err += abs(delta) / 15.0
        else:
            stack.append((a, m, fa, flm, fm, s_left, t / 2.0))
            stack.append((m, b, fm, frm, fb, s_right, t / 2.0))
    return total, err, evals


# (array integrand, scalar integrand) pairs that agree bit for bit: numpy's
# sin, cos and sqrt round as math's do, and + - * / are IEEE operations.
INTEGRANDS = [
    (lambda x, k: np.sin(k * x), lambda x, k: math.sin(k * x)),
    (lambda x, k: np.cos(x) / k, lambda x, k: math.cos(x) / k),
    (lambda x, k: np.sqrt(np.abs(x - k)), lambda x, k: math.sqrt(abs(x - k))),
    (lambda x, k: x * x * x - k * x, lambda x, k: x * x * x - k * x),
]


def batch(rows):
    """lo, hi and k arrays of (lo, hi, k, empty) rows; empty sets hi = lo."""
    lo, hi, k, empty = (np.array(x) for x in zip(*rows))
    return lo, np.where(empty, lo, hi), k


def check_bit_identical(which, rows, tol):
    vector, scalar = INTEGRANDS[which]
    lo, hi, k = batch(rows)
    got = list(zip(*(x.tolist() for x in quadrature._simpson(vector, lo, hi, tol, 10**6, (k,)))))
    want = [lifo_simpson(lambda x, k=kk: scalar(x, k), a, b, tol)
            for a, b, kk in zip(lo.tolist(), hi.tolist(), k.tolist())]
    assert [(v.hex(), e.hex(), n) for v, e, n in got] == \
        [(v.hex(), e.hex(), n) for v, e, n in want]
    total = integrate(vector, lo, hi, tol=tol, args=(k,))
    assert total.value.tolist() == [v for v, _, _ in want]
    assert total.evaluations == sum(n for _, _, n in want)


def check_cap(rows, max_evals):
    # a needle at x = k that the refinement keeps chasing
    lo, hi, k = batch(rows)
    want = [lifo_simpson(lambda x, k=kk: 1.0 / math.sqrt(abs(x - k) + 1e-6), a, b, 1e-10,
                         max_evals)
            for a, b, kk in zip(lo.tolist(), hi.tolist(), k.tolist())]
    stopped = [i for i, w in enumerate(want) if w is None]
    call = lambda: integrate(lambda x, k: 1.0 / np.sqrt(np.abs(x - k) + 1e-6), lo, hi,
                             max_evals=max_evals, args=(k,))
    if stopped:
        with pytest.raises(QuadratureError) as excinfo:
            call()
        listed = re.search(r"in integrals \[([\d, ]*)\]", str(excinfo.value)).group(1)
        assert [int(i) for i in listed.split(",")] == stopped
        assert np.all(excinfo.value.evaluations <= max_evals)
    else:
        got = quadrature._simpson(lambda x, k: 1.0 / np.sqrt(np.abs(x - k) + 1e-6), lo, hi,
                                  1e-10, max_evals, (k,))
        assert list(zip(*(x.tolist() for x in got))) == want


FIXED_ROWS = [(0.0, math.pi, 1.0, False), (2.0, -3.0, 2.5, False), (1.0, 1.0, 1.0, True),
              (-4.0, 4.0, 0.7, False), (0.5, 0.6, 3.0, False)]


@pytest.mark.parametrize("which", range(len(INTEGRANDS)))
@pytest.mark.parametrize("tol", [1e-10, 1e-4])
@pytest.mark.parametrize("block", [2, quadrature._BLOCK, 2048])  # any size: the same bits
def test_batch_is_bit_identical_to_the_lifo_loop(which, tol, block, monkeypatch):
    monkeypatch.setattr(quadrature, "_BLOCK", block)
    check_bit_identical(which, FIXED_ROWS, tol)


@pytest.mark.parametrize("max_evals", [3, 5, 40, 1000, 90_800, 90_801])
def test_cap_raises_for_exactly_the_integrals_the_loop_stops(max_evals, monkeypatch):
    monkeypatch.setattr(quadrature, "_BLOCK", 2)
    check_cap(FIXED_ROWS, max_evals)


if HAVE_HYPOTHESIS:  # batches mixing reversed and empty intervals
    ENDS = st.floats(-4.0, 4.0)
    ROWS = st.lists(st.tuples(ENDS, ENDS, st.floats(0.5, 3.0), st.booleans()),
                    min_size=1, max_size=8)

    @settings(max_examples=60, deadline=None)
    @given(which=st.integers(0, len(INTEGRANDS) - 1), rows=ROWS,
           tol=st.sampled_from([1e-10, 1e-7, 1e-4]))
    def test_random_batches_are_bit_identical_to_the_lifo_loop(which, rows, tol):
        check_bit_identical(which, rows, tol)

    @settings(max_examples=60, deadline=None)
    @given(rows=ROWS, max_evals=st.integers(3, 600))
    def test_random_caps_raise_for_exactly_the_integrals_the_loop_stops(rows, max_evals):
        check_cap(rows, max_evals)


def test_batch_shapes_and_scalars():
    result = integrate(lambda x, k: np.sin(k * x), 0.0, [[1.0], [2.0]],
                       args=(np.array([1.0, 2.0, 3.0]),))
    assert result.value.shape == result.error_estimate.shape == (2, 3)
    one = integrate(lambda x, k: np.sin(k * x), 0.0, 2.0, args=(3.0,))
    assert list(map(type, (one.value, one.error_estimate, one.evaluations))) == [float, float, int]
    assert one.value == result.value[1, 2]
    assert result.evaluations == sum(
        integrate(lambda x, k: np.sin(k * x), 0.0, b, args=(k,)).evaluations
        for b in (1.0, 2.0) for k in (1.0, 2.0, 3.0))


def test_totals_take_lists_of_specs():
    specs = [MudguardSpec(R=10.0, r=0.1, mu=0.2), MudguardSpec(R=2.0, r=0.3, mu=1.2)]
    both = mudguard_total(specs)
    for i, spec in enumerate(specs):
        one = mudguard_total(spec)
        assert (one.value, one.error_estimate, one.evaluations) == \
            (both.value[i], both.error_estimate[i], both.evaluations[i])
    gores = gore_sphere_total([GoreSphereSpec(R=1.0, n=n) for n in (8, 16)])
    assert gores.value.tolist() == [gore_sphere_total(GoreSphereSpec(R=1.0, n=n)).value
                                    for n in (8, 16)]


@pytest.mark.parametrize("n", [3, 8, 64, 1000, 10**6, 10**9])
def test_gore_error_estimate_bounds_the_struve_series(n):
    # integral of 2 sin(beta cos theta) over (-pi/2, pi/2) is 2 pi H_0(beta),
    # H_0(z) = (2/pi) sum (-1)^k z^(2k+1) / ((2k+1)!!)^2 the Struve function
    beta = math.pi / n
    terms, double_factorial = [], 1.0
    for k in range(40):
        double_factorial *= 2 * k + 1 if k else 1.0
        terms.append((-1) ** k * beta ** (2 * k + 1) / double_factorial**2)
    series = 4 * n * math.fsum(terms)
    total = gore_sphere_total(GoreSphereSpec(R=1.0, n=n))
    assert abs(total.value - series) <= total.error_estimate


# Traced peak of a 2,000-spec gore_sphere_total (n = 3..2002, the param-study
# `n` sweep's size): 5.70 MB measured with numpy 2.4, where _BLOCK = 1,024
# integrals share a refinement level (10.44 MB with 2,048).  The ceiling
# leaves 10%, and stays below a 512^2 Gauss map's peak.
GORE_SWEEP_PEAK_BYTES = 6_270_000


def test_gore_sweep_peak_memory():
    specs = [GoreSphereSpec(R=1.0, n=n) for n in range(3, 2003)]
    gore_sphere_total(specs[:4])  # numpy's first-call allocations
    tracemalloc.start()
    try:
        total = gore_sphere_total(specs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert total.value.shape == (2000,)
    assert peak < GORE_SWEEP_PEAK_BYTES
