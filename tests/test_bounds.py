"""Synthetic-suite generation and bound-certification tests.

The generator's contract (deterministic draws, spectra inside
[alpha, s_max], inputs within eta of the row space) is checked directly on
realized suites; the exact loss L is cross-checked against a naive triple
loop; and the inequality itself is exercised on hand-built suites whose
answer is known in closed form.
"""

from __future__ import annotations

import functools
import itertools
import json

import numpy as np
import pytest

from rankmerge import (
    InvariantError,
    NumericError,
    ParamError,
    SyntheticTaskSuite,
    certificate_json_line,
    certify_bounds,
    certify_suites,
    generate_suites,
    task_interference_L,
)
from rankmerge import bounds

from conftest import _count_calls
from oracles import reference_certificate_line, reference_cross_task_loss, reference_suite

ARGS = dict(d=6, T=3, n=4, r=2, alpha=0.5, s_max=2.0, c=1.0, eta=0.3, seed=11)


def _suite(**args) -> SyntheticTaskSuite:
    """One suite from keyword arguments, through the batched generator."""
    keys = ("d", "T", "n", "r", "alpha", "s_max", "c", "eta", "seed")
    return generate_suites([tuple(args[key] for key in keys)])[0]


def _certify(suite: SyntheticTaskSuite):
    return certify_bounds([suite])[0]


# ---------------------------------------------------------------------------
# generation


def test_generation_is_bit_deterministic():
    a = _suite(**ARGS)
    b = _suite(**ARGS)
    for t in range(a.T):
        np.testing.assert_array_equal(a.taus[t], b.taus[t])
        np.testing.assert_array_equal(a.inputs[t], b.inputs[t])
        np.testing.assert_array_equal(a.row_bases[t], b.row_bases[t])


@pytest.mark.parametrize(
    "override",
    [
        {"T": 2},
        {"r": 0},
        {"r": 7},
        {"n": 0},
        {"alpha": 0.0},
        {"alpha": 3.0},
        {"c": 0.0},
        {"eta": -0.1},
    ],
)
def test_generation_parameter_validation(override):
    with pytest.raises(ParamError):
        _suite(**{**ARGS, **override})


@pytest.mark.parametrize("seed", range(8))
def test_realized_draws_respect_the_contract(seed):
    suite = _suite(**{**ARGS, "seed": seed})
    for t in range(suite.T):
        sv = np.linalg.svd(suite.taus[t], compute_uv=False)
        kept = sv[sv > 1e-9 * sv[0]]
        assert len(kept) <= suite.r
        assert kept.min() >= suite.alpha * (1 - 1e-12)
        assert kept.max() <= suite.s_max * (1 + 1e-12)
        basis = suite.row_bases[t]
        np.testing.assert_allclose(basis.T @ basis, np.eye(suite.r), atol=1e-12)
        residual = suite.inputs[t] - (suite.inputs[t] @ basis) @ basis.T
        assert np.linalg.norm(residual, axis=1).max() <= suite.eta * (1 + 1e-9) + 1e-12


def test_noise_radius_rescales_the_same_draws():
    quiet = _suite(**{**ARGS, "eta": 0.0})
    loud = _suite(**{**ARGS, "eta": 0.5})
    for t in range(quiet.T):
        np.testing.assert_array_equal(quiet.taus[t], loud.taus[t])
        noise = loud.inputs[t] - quiet.inputs[t]
        assert np.linalg.norm(noise, axis=1).max() <= 0.5 + 1e-12
    # Same interference term, larger additive term: the bound can only grow.
    assert _certify(loud).bound_value >= _certify(quiet).bound_value


# ---------------------------------------------------------------------------
# the exact loss


@pytest.mark.parametrize("seed", range(6))
def test_loss_matches_triple_loop(seed):
    suite = _suite(**{**ARGS, "seed": 100 + seed})
    expected = reference_cross_task_loss(suite.taus, suite.inputs)
    assert task_interference_L(suite) == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# certification


def _disjoint_axes_suite(n: int = 3) -> SyntheticTaskSuite:
    """Three rank-1 updates on disjoint coordinate axes, noiseless inputs.

    Every cross-application tau_s @ x_t is exactly zero, so L = 0 and the
    bound's right side is zero too: the inequality is tight."""
    d, T = 6, 3
    taus, bases, inputs = [], [], []
    for t in range(T):
        e = np.zeros(d)
        e[2 * t] = 1.0
        taus.append(np.outer(e, e))
        bases.append(e[:, None])
        inputs.append(np.linspace(0.2, 0.8, n)[:, None] * e[None, :])
    return SyntheticTaskSuite(
        d=d, T=T, n=n, r=1, alpha=1.0, s_max=1.0, c=1.0, eta=0.0, seed=0,
        taus=taus, inputs=inputs, row_bases=bases,
    )


def test_disjoint_axes_certify_exactly():
    cert = _certify(_disjoint_axes_suite())
    assert cert.L_value == 0.0
    assert cert.I_value == pytest.approx(0.0, abs=1e-15)
    assert cert.holds


def test_r_max_counts_rank_by_the_contract_rule():
    """A singular value under the contract's slack is not rank, for the
    contract check and for ``r_max`` alike: ``k3`` uses ``r_max = r = 1``."""
    suite = _disjoint_axes_suite()
    for t in range(suite.T):
        f = np.zeros(suite.d)
        f[2 * t + 1] = 1.0
        suite.taus[t] = suite.taus[t] + 5e-10 * np.outer(f, f)
    assert _certify(suite).k3 == 1.0


def test_certified_constants():
    suite = _suite(**ARGS)
    cert = _certify(suite)
    assert cert.k4 == suite.s_max
    # k3 = s_max^2 * c * (r_max * s_max^2 / alpha^2) with the realized rank.
    assert cert.k3 == pytest.approx(suite.s_max**2 * suite.c * (2 * suite.s_max**2 / suite.alpha**2))
    assert cert.bound_value == pytest.approx(
        suite.n * (cert.k3 * cert.I_value + suite.T * (suite.T - 1) * cert.k4 * suite.eta) ** 2
    )


@pytest.mark.parametrize("seed", range(30))
def test_bound_holds_across_random_suites(seed):
    g = np.random.default_rng(seed)
    suite = _suite(
        d=int(g.integers(4, 9)),
        T=int(g.integers(3, 5)),
        n=int(g.integers(1, 6)),
        r=int(g.integers(1, 4)),
        alpha=0.4,
        s_max=float(g.uniform(0.5, 2.0)),
        c=float(g.uniform(0.5, 2.0)),
        eta=float(g.uniform(0.0, 0.5)),
        seed=seed,
    )
    assert _certify(suite).holds


def test_certify_rejects_an_all_zero_task_update():
    suite = _suite(**ARGS)
    suite.taus[0] = np.zeros_like(suite.taus[0])
    with pytest.raises(InvariantError, match="tau 0 is zero"):
        _certify(suite)


def test_certify_rejects_a_task_update_of_rank_above_r():
    suite = _suite(**ARGS)
    suite.taus[1] = suite.taus[1] + 0.5 * np.eye(ARGS["d"])
    with pytest.raises(InvariantError, match=r"tau 1 has rank 6 > r=2"):
        _certify(suite)


def test_certify_factors_each_task_update_once(svd_calls):
    suite = _suite(**{**ARGS, "T": 4})
    svd_calls.clear()
    _certify(suite)
    # One stacked SVD holds the suite's four updates.
    assert svd_calls == [(suite.T, suite.d, suite.d)]


def _spec(g: np.random.Generator, d: int, T: int, n: int, r: int) -> tuple:
    alpha = float(g.uniform(0.2, 1.0))
    return (d, T, n, r, alpha, alpha * float(g.uniform(1.0, 3.0)), float(g.uniform(0.5, 2.0)),
            float(g.uniform(0.0, 0.5)), int(g.integers(0, 2**31)))


# Two suites of every (d, T, n, r) that ``certify`` draws, side by side.
SHAPE_SPECS = [
    _spec(np.random.default_rng(shape), *shape)
    for shape in itertools.product(range(4, 9), (3, 4), range(1, 6), range(1, 4))
    for _ in range(2)
]


@pytest.mark.parametrize("chunk", [5, bounds._CHUNK])
@pytest.mark.parametrize("shuffled", [False, True], ids=["by-shape", "shuffled"])
def test_batched_certificates_are_the_per_suite_ones_bit_for_bit(monkeypatch, chunk, shuffled):
    specs = list(SHAPE_SPECS)
    if shuffled:
        np.random.default_rng(7).shuffle(specs)
    # An odd chunk splits the two suites of many shapes; the default one
    # ends inside the shape groups of a shuffled run.
    monkeypatch.setattr(bounds, "_CHUNK", chunk)
    lines = [certificate_json_line(suite, cert) for suite, cert in certify_suites(specs)]
    assert lines == [_reference_line(spec) for spec in specs]


@functools.lru_cache(maxsize=None)
def _reference_line(spec: tuple) -> str:
    return reference_certificate_line(*spec)


def test_batched_generation_is_the_per_suite_draw_bit_for_bit():
    specs = SHAPE_SPECS[::7]
    for suite, spec in zip(generate_suites(specs), specs):
        taus, inputs, row_bases = reference_suite(*spec)
        for mine, theirs in zip([suite.taus, suite.inputs, suite.row_bases],
                                [taus, inputs, row_bases], strict=True):
            assert len(mine) == len(theirs) == suite.T
            for a, b in zip(mine, theirs):
                np.testing.assert_array_equal(a, b)


def test_generation_and_certification_stack_once_per_shape(monkeypatch, svd_calls):
    qr_calls = _count_calls(monkeypatch, "qr")
    specs = [_spec(np.random.default_rng(i), d, T, 2, r)
             for i, (d, T, r) in enumerate([(5, 3, 1), (6, 4, 2), (5, 4, 1), (5, 3, 2), (6, 3, 2)])]
    suites = generate_suites(specs)
    # One QR per (d, r): both factors of every task of those suites.
    assert qr_calls == [(3 + 4, 2, 5, 1), (4 + 3, 2, 6, 2), (3, 2, 5, 2)]
    certify_bounds(suites)
    # One SVD per (d, T): every update of those suites.
    assert svd_calls == [(3 + 3, 5, 5), (4, 6, 6), (4, 5, 5), (3, 6, 6)]


def test_batched_certification_raises_for_the_first_broken_suite():
    suites = generate_suites([(6, 3, 4, 2, 0.5, 2.0, 1.0, 0.3, seed) for seed in range(4)])
    suites[3].taus[1] = np.zeros((6, 6))
    suites[1].inputs[2] = suites[1].inputs[2] + 5.0
    with pytest.raises(InvariantError, match="task 2 inputs leave the row space"):
        certify_bounds(suites)
    suites[2].taus[0] = np.full((6, 6), np.nan)
    with pytest.raises(NumericError):
        certify_bounds(suites)  # before any contract check
    suites[3].taus[2] = np.zeros((5, 6))
    with pytest.raises(InvariantError, match=r"tau 2 has shape \(5, 6\)"):
        certify_bounds(suites)  # before any factoring


def test_generation_checks_every_spec_before_any_draw(monkeypatch):
    monkeypatch.setattr(bounds, "stream", lambda *args: pytest.fail("drew before checking"))
    with pytest.raises(ParamError, match="T > 2"):
        generate_suites([(6, 3, 4, 2, 0.5, 2.0, 1.0, 0.3, 0), (6, 2, 4, 2, 0.5, 2.0, 1.0, 0.3, 1)])


def test_certify_rejects_corrupted_suites():
    inflated = _suite(**ARGS)
    inflated.taus[0] = inflated.taus[0] * 10.0  # spectra escape [alpha, s_max]
    with pytest.raises(InvariantError):
        _certify(inflated)

    leaky = _suite(**ARGS)
    leaky.inputs[1] = leaky.inputs[1] + 5.0  # inputs leave the row space
    with pytest.raises(InvariantError):
        _certify(leaky)


# ---------------------------------------------------------------------------
# serialization


def test_certificate_line_schema():
    suite = _suite(**ARGS)
    cert = _certify(suite)
    record = json.loads(certificate_json_line(suite, cert))
    assert list(record) == [
        "seed", "d", "T", "n", "r", "alpha", "s_max", "c", "eta",
        "L", "I", "bound", "holds",
    ]
    assert record["seed"] == ARGS["seed"]
    assert record["L"] == cert.L_value
    assert record["holds"] is True

