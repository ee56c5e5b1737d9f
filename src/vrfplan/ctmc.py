"""Finite continuous-time Markov-chain machinery.

Direct stationary solves of irreducible rate matrices. Stationary
vectors are computed by state-reduction (GTH) elimination, which uses
no subtractions and therefore keeps full relative accuracy even for
entries hundreds of orders of magnitude below the largest one. That
property is what lets these routines act as a trustworthy oracle for
the closed-form results elsewhere in the package.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameterError, NumericalError, StructuralError

#: Stationary-solve residual bound, relative to the largest exit rate.
RESIDUAL_TOL = 1e-10
_ROW_SUM_TOL = 1e-9


def _check_generator(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if q.ndim != 2 or q.shape[0] != q.shape[1]:
        raise InvalidParameterError(f"rate matrix must be square, got shape {q.shape}")
    off = q.copy()
    np.fill_diagonal(off, 0.0)
    if off.min() < -1e-12:
        raise InvalidParameterError("off-diagonal rates must be non-negative")
    scale = max(1.0, float(np.abs(q).max()))
    if np.abs(q.sum(axis=1)).max() > _ROW_SUM_TOL * scale:
        raise InvalidParameterError("every row of a rate matrix must sum to zero")
    return q


def _assert_irreducible(off: np.ndarray) -> None:
    """Raise if the positive-rate graph is not strongly connected,
    naming one state outside state 0's communicating class."""
    n = off.shape[0]
    if n == 1:
        return
    # imported here: only the chain solver needs it, and scipy costs the
    # package most of its import time
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    graph = csr_matrix((off > 0.0).astype(np.int8))
    n_comp, labels = connected_components(graph, directed=True, connection="strong")
    if n_comp > 1:
        culprit = int(np.argmax(labels != labels[0]))
        raise StructuralError(
            f"chain is reducible: state {culprit} and state 0 are not mutually reachable"
        )


def _gth(off: np.ndarray) -> np.ndarray:
    """Stationary vector from a non-negative off-diagonal rate (or jump
    probability) matrix by state-reduction elimination.

    Eliminates states from the highest index down, folding each state's
    flow into the survivors, then back-substitutes. Every operation is a
    sum, product, or quotient of non-negative numbers.
    """
    a = off.copy()
    n = a.shape[0]
    if n == 1:
        return np.array([1.0])
    row_total = np.empty(n)
    for k in range(n - 1, 0, -1):
        s = a[k, :k].sum()
        if s <= 0.0:
            raise StructuralError(
                f"chain is reducible: states {k}.. cannot reach the states below"
            )
        row_total[k] = s
        a[:k, :k] += np.outer(a[:k, k], a[k, :k] / s)
    pi = np.zeros(n)
    pi[0] = 1.0
    for k in range(1, n):
        pi[k] = (pi[:k] @ a[:k, k]) / row_total[k]
    return pi / pi.sum()


def steady_state(q: np.ndarray) -> np.ndarray:
    """Stationary distribution of an irreducible rate matrix."""
    q = _check_generator(q)
    off = q.copy()
    np.fill_diagonal(off, 0.0)
    _assert_irreducible(off)
    pi = _gth(off)
    scale = max(1.0, float(np.abs(np.diag(q)).max()))
    residual = float(np.abs(pi @ q).max())
    if residual > RESIDUAL_TOL * scale:
        raise NumericalError(f"stationary residual {residual:.3e} exceeds tolerance")
    return pi
