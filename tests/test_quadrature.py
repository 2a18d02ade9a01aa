import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from creasegeom import quadrature
from creasegeom import (
    GoreSphereSpec,
    MudguardSpec,
    ParameterError,
    integrate,
    mudguard_closed_form,
    mudguard_total,
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


@pytest.mark.parametrize("f, lo, hi, exact", [
    (lambda x: np.sin(3 * x) ** 2 + x, 0.0, 2.0, 3.0 - math.sin(12.0) / 12.0),
    (lambda x: np.exp(-x * x), -3.0, 3.0, math.sqrt(math.pi) * math.erf(3.0)),
], ids=["sine-squared", "gaussian"])
def test_integrate_error_estimate_bounds_the_error(f, lo, hi, exact):
    result = integrate(f, lo, hi)
    assert abs(result.value - exact) <= result.error_estimate <= 1e-8 * exact
    assert result.evaluations == 16 + 32


def test_integrate_error_estimate_flags_a_singular_integrand():
    # 1/sqrt|x| is outside the fixed rule's reach (the exact value is 4),
    # and the two rules' disagreement says so
    result = integrate(lambda x: 1.0 / np.sqrt(np.abs(x)), -1.0, 1.0)
    assert abs(result.value - 4.0) > 1e-2
    assert result.error_estimate > 1e-2 * result.value


def test_integrate_rejects_bad_inputs():
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


@pytest.mark.parametrize("R", [1e-48, 1e-8, 1.0, 1e50])
def test_mudguard_total_is_relative_at_every_scale(R):
    # the integrand is about 1/R, so an absolute tolerance could not serve
    # every R the spec admits
    specs = [MudguardSpec(R=R, r=R / 10, mu=mu) for mu in (0.1, 1.0, math.pi / 2 - 1e-4)]
    total = mudguard_total(specs)
    closed = mudguard_closed_form(R, R / 10, np.array([s.mu for s in specs]))
    assert np.all(np.abs(total.value - closed) <= total.error_estimate)
    assert np.all(total.error_estimate <= 1e-14 * closed)


def test_mudguard_r_to_zero_limit():
    mu = 0.3
    limit = 4 * math.pi * math.sin(mu)
    for ratio in (1e-2, 1e-3, 1e-4):
        value = mudguard_closed_form(1.0, ratio, mu)
        assert abs(value - limit) / limit <= ratio  # O(r/R) deficit
    # per unit hoop length the rate recovers the curved-crease law 2 sin(mu)/R
    rate = mudguard_closed_form(10.0, 1e-6, mu) / (2 * math.pi * 10.0)
    assert rate == pytest.approx(2 * math.sin(mu) / 10.0, rel=1e-6)


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


# -- the rules ------------------------------------------------------------------

@pytest.mark.parametrize("rule", [0, 1])
def test_rules_match_numpy_leggauss(rule):
    # nodes bit for bit; weights to 5.3e-14 relative at 32 nodes: they are
    # 2.1e-15 and 5.1e-15 from a 40-digit reference at 16 and 32 nodes, and
    # leggauss's 7.0e-15 and 5.8e-14
    nodes, weights = quadrature._RULES[rule]
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(len(nodes))
    assert len(nodes) == (16, 32)[rule]
    for x, w, ref_x, ref_w in zip(nodes, weights, ref_nodes, ref_weights):
        assert x == ref_x
        assert w == pytest.approx(ref_w, rel=1e-13, abs=0)
    assert weights.sum() == pytest.approx(2.0, rel=2 * np.finfo(float).eps, abs=0)


def test_import_leaves_numpy_polynomial_unloaded():
    code = "import sys, creasegeom.cli; print('numpy.polynomial' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(quadrature.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.split() == ["False"]


# -- batches: each integral as if it were alone ---------------------------------

def lifo_loop(f, lo, hi, k):
    """integrate's two rules applied to one integral at a time, last in
    first out, with a scalar integrand and scalar arithmetic in the order
    integrate's batch uses: a (value, error estimate, evaluations) triple
    per integral, in the batch's order."""
    stack, out = list(enumerate(zip(lo, hi, k))), [None] * len(lo)
    while stack:
        i, (a, b, kk) = stack.pop()
        mid, half = 0.5 * (b + a), 0.5 * (b - a)
        sums, evals = [], 0
        for nodes, weights in quadrature._RULES:
            total = magnitude = 0.0
            for x, w in zip(nodes.tolist(), weights.tolist()):
                y = f(mid + half * x, kk)
                total, magnitude, evals = total + w * y, magnitude + w * abs(y), evals + 1
            sums.append((half * total, abs(half) * magnitude))
        (coarse, _), (value, magnitude) = sums
        out[i] = value, abs(value - coarse) + 8.0 * np.finfo(float).eps * magnitude, evals
    return out


# (array integrand, scalar integrand) pairs that agree bit for bit: numpy's
# sin, cos and sqrt round as math's do, and + - * / are IEEE operations.
INTEGRANDS = [
    (lambda x, k: np.sin(k * x), lambda x, k: math.sin(k * x)),
    (lambda x, k: np.cos(x) / k, lambda x, k: math.cos(x) / k),
    (lambda x, k: np.sqrt(np.abs(x - k)), lambda x, k: math.sqrt(abs(x - k))),
    (lambda x, k: x * x * x - k * x, lambda x, k: x * x * x - k * x),
]


def batch(rows, size=None, scale=1.0):
    """lo, hi and k lists of (lo, hi, k, empty) rows; empty sets hi = lo.
    size repeats the rows to that many integrals, each repeat with its own
    k; scale shrinks every interval about its midpoint."""
    size = size or len(rows)
    lo, hi, k = [], [], []
    for i in range(size):
        a, b, kk, empty = rows[i % len(rows)]
        b = a if empty else b
        mid, half = 0.5 * (a + b), 0.5 * scale * (b - a)
        lo.append(mid - half), hi.append(mid + half), k.append(kk * (1.0 + i // len(rows) / size))
    return lo, hi, k


def check_bit_identical(which, rows, size=None, scale=1.0):
    """The batch's values, error estimates and evaluations are, bit for
    bit, those of the scalar loop and of integrating one row at a time."""
    vector, scalar = INTEGRANDS[which]
    lo, hi, k = batch(rows, size, scale)
    want = [(v.hex(), e.hex(), n) for v, e, n in lifo_loop(scalar, lo, hi, k)]
    both = integrate(vector, np.array(lo), np.array(hi), args=(np.array(k),))
    assert [(v.hex(), e.hex()) for v, e in
            zip(both.value.tolist(), both.error_estimate.tolist())] == [w[:2] for w in want]
    assert both.evaluations == sum(n for _, _, n in want)
    n = min(len(rows), len(lo))  # the rows once over, as scalars
    ones = [integrate(vector, a, b, args=(kk,)) for a, b, kk in zip(lo[:n], hi[:n], k[:n])]
    assert [(one.value.hex(), one.error_estimate.hex(), one.evaluations)
            for one in ones] == want[:n]


FIXED_ROWS = [(0.0, math.pi, 1.0, False), (2.0, -3.0, 2.5, False), (1.0, 1.0, 1.0, True),
              (-4.0, 4.0, 0.7, False), (0.5, 0.6, 3.0, False)]


@pytest.mark.parametrize("which", range(len(INTEGRANDS)))
@pytest.mark.parametrize("scale", [1e-10, 1e-4, 1.0])
@pytest.mark.parametrize("size", [2, 1024, 2048])  # any batch size: the same bits
def test_batch_is_bit_identical_to_the_lifo_loop(which, scale, size):
    check_bit_identical(which, FIXED_ROWS, size, scale)


if HAVE_HYPOTHESIS:  # batches mixing reversed and empty intervals
    ENDS = st.floats(-4.0, 4.0)
    ROWS = st.lists(st.tuples(ENDS, ENDS, st.floats(0.5, 3.0), st.booleans()),
                    min_size=1, max_size=8)

    @settings(max_examples=60, deadline=None)
    @given(which=st.integers(0, len(INTEGRANDS) - 1), rows=ROWS,
           scale=st.sampled_from([1e-10, 1e-4, 1.0]))
    def test_random_batches_are_bit_identical_to_the_lifo_loop(which, rows, scale):
        check_bit_identical(which, rows, scale=scale)


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
        assert (one.value, one.error_estimate) == (both.value[i], both.error_estimate[i])
    assert both.evaluations == 2 * one.evaluations


@pytest.mark.parametrize("n", [3, 8, 64, 1000, 10**6, 10**9, 10**15])
def test_gore_error_estimate_bounds_the_struve_series(n):
    # the integrand of the small-angle gore seam model that the exact seam law
    # replaced: 2 sin(beta cos theta) over (-pi/2, pi/2), beta = pi/n,
    # integrates to 2 pi H_0(beta), H_0(z) = (2/pi) sum (-1)^k z^(2k+1) /
    # ((2k+1)!!)^2 the Struve function, a series to check integrate against
    # where the integrand's size runs down to 1e-15
    beta = math.pi / n
    terms, double_factorial = [], 1.0
    for k in range(40):
        double_factorial *= 2 * k + 1 if k else 1.0
        terms.append((-1) ** k * beta ** (2 * k + 1) / double_factorial**2)
    series = 4 * math.fsum(terms)
    total = integrate(lambda theta, b: 2.0 * np.sin(b * np.cos(theta)),
                      -math.pi / 2, math.pi / 2, args=(beta,))
    assert abs(total.value - series) <= total.error_estimate
    assert abs(total.value - series) <= 1e-14 * total.value


# Traced peak of a 2,000-spec mudguard_total (the param-study `mu` sweep's
# size): 1.25 MB measured with numpy 2.4, a few arrays of 32 nodes by 2,000
# integrals.  The ceiling leaves 10%, and stays below a 512^2 Gauss map's peak.
MUDGUARD_SWEEP_PEAK_BYTES = 1_377_000


def test_mudguard_sweep_peak_memory():
    specs = [MudguardSpec(R=10.0, r=0.1, mu=mu) for mu in np.linspace(0.05, 1.05, 2000).tolist()]
    mudguard_total(specs[:4])  # numpy's first-call allocations
    tracemalloc.start()
    try:
        total = mudguard_total(specs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert total.value.shape == (2000,)
    assert peak < MUDGUARD_SWEEP_PEAK_BYTES
