"""Chain-reduction tools behind the closed-form oracles.

Uniformization, censoring onto a block of states (stochastic complement)
and the single-entry fold-back give a unit's conditional in-band
distribution from its full chain with no closed form at all. Only tests
use them, so they are kept out of the package; they reuse `vrfplan.oracle`'s
GTH elimination and input checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from vrfplan.oracle import (
    RESIDUAL_TOL,
    _ROW_SUM_TOL,
    _assert_irreducible,
    _check_generator,
    _gth,
)
from vrfplan.errors import InvalidParameterError, NumericalError, StructuralError


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


def band_ratio_oracle(chain, level):
    """Conditional in-band probability ratios from the full unit chain.

    Uses the single-entry fold-back when every return into the band passes
    through one state (bottom and top levels), and censors the out-of-band
    block of the jump chain otherwise (interior levels re-enter from both
    sides).
    """
    left = list(chain.partition_indices(level))
    members = set(left)
    right = [i for i in range(chain.q.shape[0]) if i not in members]
    part = Partition(left=tuple(left), right=tuple(right))
    entry_cols = ()
    if right:
        q_rl = chain.q[np.ix_(right, left)]
        entry_cols = np.nonzero(q_rl.sum(axis=0) > 0.0)[0]
    if len(entry_cols) <= 1:
        entry = left[int(entry_cols[0])] if len(entry_cols) else left[0]
        cond = fold_back_conditional(chain.q, part, entry)
        method = "fold"
    else:
        jump = uniformize(chain.q)
        cond = dtmc_steady_state(stochastic_complement(jump, part))
        method = "censor"
    return cond / cond[0], method
