"""Finite continuous-time Markov-chain machinery.

Direct stationary solves, uniformization, partition reduction by
censoring, and the single-entry fold-back construction. Stationary
vectors are computed by state-reduction (GTH) elimination, which uses
no subtractions and therefore keeps full relative accuracy even for
entries hundreds of orders of magnitude below the largest one. That
property is what lets these routines act as a trustworthy oracle for
the closed-form results elsewhere in the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, NumericalError, StructuralError

#: Stationary-solve residual bound, relative to the largest exit rate.
RESIDUAL_TOL = 1e-10
_ROW_SUM_TOL = 1e-9


@dataclass(frozen=True)
class Partition:
    """A two-block split of the state indices into `left` and `right`.
    An empty `right` block is the degenerate keep-everything split."""

    left: tuple[int, ...]
    right: tuple[int, ...]

    def validate(self, n: int) -> None:
        left, right = set(self.left), set(self.right)
        if not self.left:
            raise InvalidParameterError("the left partition block must be non-empty")
        if left & right:
            raise InvalidParameterError(f"partition blocks overlap: {sorted(left & right)}")
        if left | right != set(range(n)):
            raise InvalidParameterError(f"partition blocks must cover exactly states 0..{n - 1}")


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


def dtmc_steady_state(p: np.ndarray) -> np.ndarray:
    """Stationary distribution of an irreducible row-stochastic matrix."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise InvalidParameterError(f"probability matrix must be square, got shape {p.shape}")
    if p.min() < -1e-12:
        raise InvalidParameterError("probability matrix entries must be non-negative")
    if np.abs(p.sum(axis=1) - 1.0).max() > _ROW_SUM_TOL:
        raise InvalidParameterError("every row of a probability matrix must sum to one")
    off = np.clip(p, 0.0, None)
    np.fill_diagonal(off, 0.0)
    _assert_irreducible(off)
    pi = _gth(off)
    residual = float(np.abs(pi @ p - pi).max())
    if residual > RESIDUAL_TOL:
        raise NumericalError(f"stationary residual {residual:.3e} exceeds tolerance")
    return pi


def uniformize(q: np.ndarray, zeta: float | None = None) -> np.ndarray:
    """Jump-chain matrix P = I + Q/zeta of a rate matrix.

    `zeta` defaults to the largest exit rate; any larger value is also
    admissible and leaves the stationary distribution unchanged.
    """
    q = _check_generator(q)
    zeta_min = float(np.abs(np.diag(q)).max())
    if zeta is None:
        zeta = zeta_min
    elif zeta < zeta_min:
        raise InvalidParameterError(
            f"uniformization constant {zeta:g} is below the largest exit rate {zeta_min:g}"
        )
    if zeta == 0.0:
        return np.eye(q.shape[0])
    return np.eye(q.shape[0]) + q / zeta


def stochastic_complement(p: np.ndarray, part: Partition) -> np.ndarray:
    """Reduce a jump chain onto the `left` block.

    Returns the row-stochastic matrix over `left` whose stationary
    distribution is the original chain's conditional distribution on
    `left`; algebraically it equals
    P_LL + P_LR (I - P_RR)^-1 P_RL.
    Computed by censoring the `right` states one at a time, which avoids
    the subtractions of an explicit inverse and keeps small transition
    probabilities relatively accurate.
    """
    p = np.asarray(p, dtype=float)
    part.validate(p.shape[0])
    if p.min() < -1e-12:
        raise InvalidParameterError("probability matrix entries must be non-negative")
    if np.abs(p.sum(axis=1) - 1.0).max() > _ROW_SUM_TOL:
        raise InvalidParameterError("every row of a probability matrix must sum to one")
    n_left = len(part.left)
    order = np.array(list(part.left) + list(part.right))
    b = np.clip(p, 0.0, None)[np.ix_(order, order)]
    for k in range(b.shape[0] - 1, n_left - 1, -1):
        # row mass to still-active states; zero means a closed class in `right`
        s = b[k, :k].sum()
        if s <= 0.0:
            raise StructuralError(
                "right block contains a closed class: censoring it would strand probability mass"
            )
        b[:k, :k] += np.outer(b[:k, k], b[k, :k] / s)
    c = b[:n_left, :n_left]
    if np.abs(c.sum(axis=1) - 1.0).max() > 1e-8:
        raise StructuralError("right block contains a closed class: complement is substochastic")
    # normalize away accumulated roundoff so downstream solves see exact rows
    return c / c.sum(axis=1, keepdims=True)


def fold_back_conditional(q: np.ndarray, part: Partition, entry_state: int) -> np.ndarray:
    """Conditional stationary distribution on `left` when every return
    from `right` re-enters through a single state.

    Folds the total exit rate of each `left` state back into the entry
    column and solves the resulting small generator. Requires that
    Q[right, left] is non-zero only in `entry_state`'s column.
    """
    q = _check_generator(q)
    part.validate(q.shape[0])
    if entry_state not in part.left:
        raise InvalidParameterError(f"entry state {entry_state} must belong to the left block")
    li = np.array(part.left, dtype=int)
    ri = np.array(part.right, dtype=int)
    q_rl = q[np.ix_(ri, li)]
    entry_pos = int(np.nonzero(li == entry_state)[0][0])
    stray = np.delete(np.arange(len(li)), entry_pos)
    if len(stray) and q_rl[:, stray].max(initial=0.0) > 0.0:
        bad = int(li[stray[int(np.argmax(q_rl[:, stray].max(axis=0)))]])
        raise StructuralError(
            f"returns from the right block enter more than one state "
            f"(e.g. state {bad}); the single-entry fold-back does not apply"
        )
    folded = q[np.ix_(li, li)].copy()
    folded[:, entry_pos] += q[np.ix_(li, ri)].sum(axis=1)
    off = folded.copy()
    np.fill_diagonal(off, 0.0)
    _assert_irreducible(off)
    return _gth(off)
