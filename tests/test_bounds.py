"""Synthetic-suite generation and bound-certification tests.

The generator's contract (deterministic draws, spectra inside
[alpha, s_max], inputs within eta of the row space) is checked directly on
realized suites; the exact loss L is cross-checked against a naive triple
loop; and the inequality itself is exercised on hand-built suites whose
answer is known in closed form.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from rankmerge import (
    InvariantError,
    ParamError,
    SyntheticTaskSuite,
    certificate_json_line,
    certify_bound,
    generate_suite,
    task_interference_L,
    write_certificates,
)

from oracles import reference_cross_task_loss

ARGS = dict(d=6, T=3, n=4, r=2, alpha=0.5, s_max=2.0, c=1.0, eta=0.3, seed=11)


# ---------------------------------------------------------------------------
# generation


def test_generation_is_bit_deterministic():
    a = generate_suite(**ARGS)
    b = generate_suite(**ARGS)
    np.testing.assert_array_equal(a.theta0, b.theta0)
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
        generate_suite(**{**ARGS, **override})


@pytest.mark.parametrize("seed", range(8))
def test_realized_draws_respect_the_contract(seed):
    suite = generate_suite(**{**ARGS, "seed": seed})
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
    quiet = generate_suite(**{**ARGS, "eta": 0.0})
    loud = generate_suite(**{**ARGS, "eta": 0.5})
    for t in range(quiet.T):
        np.testing.assert_array_equal(quiet.taus[t], loud.taus[t])
        noise = loud.inputs[t] - quiet.inputs[t]
        assert np.linalg.norm(noise, axis=1).max() <= 0.5 + 1e-12
    # Same interference term, larger additive term: the bound can only grow.
    assert certify_bound(loud).bound_value >= certify_bound(quiet).bound_value


# ---------------------------------------------------------------------------
# the exact loss


@pytest.mark.parametrize("seed", range(6))
def test_loss_matches_triple_loop(seed):
    suite = generate_suite(**{**ARGS, "seed": 100 + seed})
    expected = reference_cross_task_loss(suite.taus, suite.inputs)
    assert task_interference_L(suite) == pytest.approx(expected, rel=1e-12)


def test_loss_ignores_the_base_point():
    suite = generate_suite(**ARGS)
    before = task_interference_L(suite)
    suite.theta0 = suite.theta0 + 50.0
    assert task_interference_L(suite) == before


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
        theta0=np.zeros((d, d)), taus=taus, inputs=inputs, row_bases=bases,
    )


def test_disjoint_axes_certify_exactly():
    cert = certify_bound(_disjoint_axes_suite())
    assert cert.L_value == 0.0
    assert cert.I_value == pytest.approx(0.0, abs=1e-15)
    assert cert.holds


def test_certified_constants():
    suite = generate_suite(**ARGS)
    cert = certify_bound(suite)
    assert cert.k4 == suite.s_max
    # k3 = s_max^2 * c * (r_max * s_max^2 / alpha^2) with the realized rank.
    assert cert.k3 == pytest.approx(suite.s_max**2 * suite.c * (2 * suite.s_max**2 / suite.alpha**2))
    assert cert.bound_value == pytest.approx(
        suite.n * (cert.k3 * cert.I_value + suite.T * (suite.T - 1) * cert.k4 * suite.eta) ** 2
    )


@pytest.mark.parametrize("seed", range(30))
def test_bound_holds_across_random_suites(seed):
    g = np.random.default_rng(seed)
    suite = generate_suite(
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
    assert certify_bound(suite).holds


def test_certify_rejects_an_all_zero_task_update():
    suite = generate_suite(**ARGS)
    suite.taus[0] = np.zeros_like(suite.taus[0])
    with pytest.raises(InvariantError, match="tau 0 is zero"):
        certify_bound(suite)


def test_certify_factors_each_task_update_once(svd_calls):
    suite = generate_suite(**{**ARGS, "T": 4})
    svd_calls.clear()
    certify_bound(suite)
    assert len(svd_calls) == suite.T


def test_certify_rejects_corrupted_suites():
    inflated = generate_suite(**ARGS)
    inflated.taus[0] = inflated.taus[0] * 10.0  # spectra escape [alpha, s_max]
    with pytest.raises(InvariantError):
        certify_bound(inflated)

    leaky = generate_suite(**ARGS)
    leaky.inputs[1] = leaky.inputs[1] + 5.0  # inputs leave the row space
    with pytest.raises(InvariantError):
        certify_bound(leaky)


# ---------------------------------------------------------------------------
# serialization


def test_certificate_line_schema():
    suite = generate_suite(**ARGS)
    cert = certify_bound(suite)
    record = json.loads(certificate_json_line(suite, cert))
    assert list(record) == [
        "seed", "d", "T", "n", "r", "alpha", "s_max", "c", "eta",
        "L", "I", "bound", "holds",
    ]
    assert record["seed"] == ARGS["seed"]
    assert record["L"] == cert.L_value
    assert record["holds"] is True


def test_write_certificates_one_line_per_suite(tmp_path):
    pairs = []
    for seed in range(3):
        suite = generate_suite(**{**ARGS, "seed": seed})
        pairs.append((suite, certify_bound(suite)))
    path = tmp_path / "certs.jsonl"
    write_certificates(pairs, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    assert [json.loads(l)["seed"] for l in lines] == [0, 1, 2]


def test_failed_certificate_write_keeps_the_previous_file(tmp_path, fail_writes_to):
    suite = generate_suite(**ARGS)
    pairs = [(suite, certify_bound(suite))]
    path = tmp_path / "certs.jsonl"
    write_certificates(pairs, path)
    before = path.read_bytes()
    fail_writes_to("certs.jsonl")
    with pytest.raises(OSError):
        write_certificates(pairs * 2, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["certs.jsonl"]
