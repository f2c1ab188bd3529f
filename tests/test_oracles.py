import math

import pytest

from fkent.oracles import (
    OracleValue,
    binomial_rate,
    expected_entropy,
    log_binomial,
    match_count_bound,
    stirling_rate,
)
from fkent.systems import (
    bernoulli_process,
    expanding_system,
    shift_system,
)


def test_stirling_rate_hand_values():
    assert stirling_rate(0.5) == pytest.approx(math.log(2.0), abs=1e-15)
    assert stirling_rate(0.0) == 0.0
    assert stirling_rate(1.0) == 0.0
    # symmetric around 1/2
    assert stirling_rate(0.3) == pytest.approx(stirling_rate(0.7), abs=1e-15)
    with pytest.raises(ValueError):
        stirling_rate(1.5)


@pytest.mark.parametrize("eps", [0.05, 0.1, 0.3, 0.5])
def test_binomial_rate_converges(eps):
    assert abs(binomial_rate(10_000, eps) - stirling_rate(eps)) <= 1e-3


def test_log_binomial_matches_comb():
    for n in range(0, 20):
        for k in range(0, n + 1):
            assert log_binomial(n, k) == pytest.approx(math.log(math.comb(n, k)), abs=1e-10)


def test_match_count_bound_hand_value():
    # C(4,2)^2 = 36 order-preserving partial bijections of size 2
    assert match_count_bound(4, 2) == 36


def test_expected_entropy_hand_values():
    system = expanding_system((2, 3))
    proc = bernoulli_process((0.5, 0.5))
    oracle = expected_entropy(system, proc)
    assert oracle.value == pytest.approx(0.5 * math.log(2) + 0.5 * math.log(3), abs=1e-15)
    assert oracle.value == pytest.approx(0.8959, abs=5e-5)
    assert oracle.derivation == "branch-count"

    shift = shift_system((2, 2))
    assert expected_entropy(shift, proc).value == pytest.approx(math.log(2.0), abs=1e-15)


def test_expected_entropy_rejects_mismatched_alphabet():
    with pytest.raises(ValueError):
        expected_entropy(expanding_system((2, 3)), bernoulli_process((1.0,)))


def test_oracle_value_validation():
    v = OracleValue(value=1.0, derivation="branch-count")
    assert v.value == 1.0
    with pytest.raises(ValueError):
        OracleValue(value=float("nan"), derivation="branch-count")
