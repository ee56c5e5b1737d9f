"""Chain solvers: the library's stationary solve, and the test-only
reduction tools behind the closed-form oracles (uniformization, censoring
onto a sub-block, and the single-entry fold-back)."""

import math

import numpy as np
import pytest

from vrfplan import InvalidParameterError, StructuralError
from vrfplan.oracle import steady_state

from chain_reduction import (
    Partition,
    dtmc_steady_state,
    fold_back_conditional,
    stochastic_complement,
    uniformize,
)


def random_generator(rng, n, sparsity=0.0):
    """Random irreducible rate matrix with positive off-diagonal mass."""
    q = rng.uniform(0.1, 2.0, size=(n, n))
    if sparsity:
        q *= rng.random((n, n)) > sparsity
        q += np.diag(np.ones(n))  # keep a cycle so the chain stays irreducible
        q = np.triu(q, 1) + np.tril(q, -1) + np.diag(np.zeros(n))
        for i in range(n):
            q[i, (i + 1) % n] = max(q[i, (i + 1) % n], 0.05)
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    return q


def power_iteration_stationary(p, iters=200_000, tol=1e-14):
    pi = np.full(p.shape[0], 1.0 / p.shape[0])
    for _ in range(iters):
        nxt = pi @ p
        if np.abs(nxt - pi).max() < tol:
            return nxt / nxt.sum()
        pi = nxt
    return pi / pi.sum()


# ---------------------------------------------------------------------------
# steady_state

def test_two_state_birth_death():
    q = np.array([[-1.0, 1.0], [2.0, -2.0]])
    assert steady_state(q) == pytest.approx([2.0 / 3.0, 1.0 / 3.0], abs=1e-14)


def test_three_server_loss_chain():
    # birth rate 1, death rate i per occupied server, offered load 1
    q = np.array([
        [-1.0, 1.0, 0.0, 0.0],
        [1.0, -2.0, 1.0, 0.0],
        [0.0, 2.0, -3.0, 1.0],
        [0.0, 0.0, 3.0, -3.0],
    ])
    assert steady_state(q) == pytest.approx(np.array([6, 6, 3, 1]) / 16.0, abs=1e-14)


def test_random_chain_matches_power_iteration():
    rng = np.random.default_rng(11)
    q = random_generator(rng, 5)
    pi = steady_state(q)
    oracle = power_iteration_stationary(uniformize(q))
    assert np.abs(pi - oracle).max() < 1e-10


def test_steady_state_deep_tail_relative_accuracy():
    # birth-death with load 10 over 50 servers: tail mass ~1e-33 at the
    # closed-form occupancy rho^k/k!; elimination-based solve must keep
    # componentwise relative accuracy, not just absolute
    k = 50
    rho = 10.0
    q = np.zeros((k + 1, k + 1))
    for i in range(k):
        q[i, i + 1] = rho
        q[i + 1, i] = float(i + 1)
    np.fill_diagonal(q, -q.sum(axis=1))
    pi = steady_state(q)
    logs = np.array([i * math.log(rho) - math.lgamma(i + 1) for i in range(k + 1)])
    closed = np.exp(logs - logs.max())
    closed /= closed.sum()
    assert np.abs(pi / closed - 1.0).max() < 1e-12


def test_steady_state_rejects_bad_input():
    with pytest.raises(InvalidParameterError):
        steady_state(np.zeros((2, 3)))
    with pytest.raises(InvalidParameterError):
        steady_state(np.array([[-1.0, 0.5], [1.0, -1.0]]))  # rows must sum to 0
    with pytest.raises(StructuralError):
        steady_state(np.array([[-1.0, 1.0], [0.0, 0.0]]))   # absorbing state


def test_steady_state_rejects_a_transient_top_state():
    # GTH alone returns [0.5, 0.5, 0] here: only the reachability check
    # sees that state 2 leaves state 0's class and never comes back
    q = np.array([[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.5, 0.0, -0.5]])
    with pytest.raises(StructuralError, match="state 2 and state 0"):
        steady_state(q)


def test_reducible_culprit_is_the_first_state_outside_state_zeros_class():
    # the culprit is the first state whose strong component differs from
    # state 0's, as a strong-components labelling finds it
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    rng = np.random.default_rng(59)
    reducible = 0
    for _ in range(300):
        n = int(rng.integers(2, 12))
        q = rng.uniform(0.1, 1.0, size=(n, n)) * (rng.random((n, n)) < 0.25)
        np.fill_diagonal(q, 0.0)
        np.fill_diagonal(q, -q.sum(axis=1))
        _, labels = connected_components(csr_matrix(q > 0.0), directed=True,
                                         connection="strong")
        outside = np.nonzero(labels != labels[0])[0]
        if not len(outside):
            continue
        reducible += 1
        with pytest.raises(StructuralError) as err:
            steady_state(q)
        assert f"state {outside[0]} and state 0" in str(err.value)
    assert reducible > 100


# ---------------------------------------------------------------------------
# dtmc_steady_state / uniformize

def test_dtmc_two_state_closed_form():
    p = np.array([[0.7, 0.3], [0.4, 0.6]])
    assert dtmc_steady_state(p) == pytest.approx([4.0 / 7.0, 3.0 / 7.0], abs=1e-14)


def test_uniformize_direct_substitution():
    q = np.array([[-1.0, 1.0], [2.0, -2.0]])
    assert uniformize(q, 2.0) == pytest.approx(np.array([[0.5, 0.5], [1.0, 0.0]]))


def test_uniformize_large_constant_gives_positive_diagonal():
    rng = np.random.default_rng(3)
    q = random_generator(rng, 6)
    zeta = 2.0 * np.abs(np.diag(q)).max()
    p = uniformize(q, zeta)
    assert np.diag(p).min() > 0.0
    assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-12


def test_uniformize_preserves_stationary():
    rng = np.random.default_rng(17)
    for _ in range(20):
        q = random_generator(rng, int(rng.integers(2, 9)))
        zeta_min = np.abs(np.diag(q)).max()
        zeta = zeta_min * (1.0 + float(rng.uniform(0.0, 3.0)))
        pi_q = steady_state(q)
        pi_p = dtmc_steady_state(uniformize(q, zeta))
        assert np.abs(pi_q - pi_p).max() < 1e-10


def test_uniformize_rejects_too_small_constant():
    q = np.array([[-1.0, 1.0], [2.0, -2.0]])
    with pytest.raises(InvalidParameterError):
        uniformize(q, 1.5)


# ---------------------------------------------------------------------------
# stochastic_complement

def test_complement_no_interaction_returns_left_block():
    # left never enters right, so censoring changes nothing
    p = np.array([
        [0.6, 0.4, 0.0, 0.0],
        [0.3, 0.7, 0.0, 0.0],
        [0.2, 0.1, 0.3, 0.4],
        [0.4, 0.1, 0.25, 0.25],
    ])
    c = stochastic_complement(p, Partition(left=(0, 1), right=(2, 3)))
    assert c == pytest.approx(p[:2, :2], abs=1e-14)


def test_complement_stationary_is_conditional():
    rng = np.random.default_rng(23)
    q = random_generator(rng, 4)
    p = uniformize(q)
    pi = dtmc_steady_state(p)
    c = stochastic_complement(p, Partition(left=(0, 1), right=(2, 3)))
    cond = dtmc_steady_state(c)
    assert np.abs(cond - pi[:2] / pi[:2].sum()).max() < 1e-10


def test_complement_nested_equals_direct():
    rng = np.random.default_rng(29)
    p = uniformize(random_generator(rng, 6))
    outer = stochastic_complement(p, Partition(left=(0, 1, 2, 3), right=(4, 5)))
    nested = stochastic_complement(outer, Partition(left=(0, 1), right=(2, 3)))
    direct = stochastic_complement(p, Partition(left=(0, 1), right=(2, 3, 4, 5)))
    assert np.abs(dtmc_steady_state(nested) - dtmc_steady_state(direct)).max() < 1e-10


def test_complement_consistency_up_to_fifty_states():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(6, 51))
        n_left = int(rng.integers(2, n - 1))
        perm = rng.permutation(n)
        part = Partition(left=tuple(int(i) for i in perm[:n_left]),
                         right=tuple(int(i) for i in perm[n_left:]))
        p = uniformize(random_generator(rng, n))
        pi = dtmc_steady_state(p)
        c = stochastic_complement(p, part)
        cond = dtmc_steady_state(c)
        pi_left = pi[np.array(part.left)]
        assert cond.min() >= 0.0
        assert abs(cond.sum() - 1.0) < 1e-10
        assert np.abs(cond * pi_left.sum() - pi_left).max() < 1e-9


def test_complement_rejects_closed_right_class():
    p = np.array([
        [0.5, 0.2, 0.3, 0.0],
        [0.1, 0.6, 0.0, 0.3],
        [0.0, 0.0, 0.5, 0.5],   # right block never returns to the left
        [0.0, 0.0, 0.5, 0.5],
    ])
    with pytest.raises(StructuralError):
        stochastic_complement(p, Partition(left=(0, 1), right=(2, 3)))


# ---------------------------------------------------------------------------
# fold_back_conditional

def build_single_entry_chain(rng, n_left, n_right, entry=0):
    """Random generator where every right-to-left rate enters one state."""
    n = n_left + n_right
    q = np.zeros((n, n))
    q[:n_left, :n_left] = rng.uniform(0.1, 1.5, size=(n_left, n_left))
    q[:n_left, n_left:] = rng.uniform(0.05, 0.8, size=(n_left, n_right))
    q[n_left:, n_left:] = rng.uniform(0.1, 1.5, size=(n_right, n_right))
    q[n_left:, entry] = rng.uniform(0.2, 1.0, size=n_right)
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    return q


def test_fold_back_matches_conditional():
    rng = np.random.default_rng(37)
    q = build_single_entry_chain(rng, 3, 2)
    part = Partition(left=(0, 1, 2), right=(3, 4))
    folded = fold_back_conditional(q, part, 0)
    pi = steady_state(q)
    assert np.abs(folded - pi[:3] / pi[:3].sum()).max() < 1e-10


def test_fold_back_whole_space_degenerates_to_steady_state():
    rng = np.random.default_rng(41)
    q = random_generator(rng, 5)
    part = Partition(left=(0, 1, 2, 3, 4), right=())
    assert np.abs(fold_back_conditional(q, part, 2) - steady_state(q)).max() < 1e-14


def test_fold_back_rejects_multi_entry_returns():
    rng = np.random.default_rng(43)
    q = build_single_entry_chain(rng, 3, 2)
    q[3, 1] = 0.4   # second return path into the left block
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    with pytest.raises(StructuralError):
        fold_back_conditional(q, Partition(left=(0, 1, 2), right=(3, 4)), 0)


def test_fold_back_rejects_entry_outside_left():
    rng = np.random.default_rng(47)
    q = build_single_entry_chain(rng, 3, 2)
    with pytest.raises(InvalidParameterError):
        fold_back_conditional(q, Partition(left=(0, 1, 2), right=(3, 4)), 4)


# ---------------------------------------------------------------------------
# output hygiene

def test_all_distribution_outputs_normalized():
    rng = np.random.default_rng(53)
    for _ in range(15):
        n = int(rng.integers(2, 30))
        q = random_generator(rng, n)
        for dist in (steady_state(q), dtmc_steady_state(uniformize(q))):
            assert dist.min() >= 0.0
            assert abs(dist.sum() - 1.0) < 1e-10
