"""Window utilities: benefit, cost, and their combination (Section 4.2).

* **Cost** ``C_w = |w|_nc * m / n`` — objects in the window's non-cached
  cells, normalized by the mean cell density, so that (absent skew) cost
  ~= number of unread cells.
* **Benefit** per condition: 1 when the estimated value satisfies the
  predicate, otherwise ``max(0, 1 - |f_w - val| / eps)``; the window's
  total benefit is the *minimum* over conditions (a result must satisfy
  all of them).
* **Utility** ``U_w = s*B_w + (1-s) * (1 - min(C_w / k, 1))`` where ``k``
  is the maximum cardinality inferable from shape conditions (``m`` when
  unconstrained) and ``s`` weighs benefit against cost.

Shape conditions take part in the benefit too; their values are exact and
their natural precision is the grid extent in the relevant dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..sampling.estimators import default_eps
from .conditions import (
    ComparisonOp,
    ConditionSet,
    ContentCondition,
    ShapeCondition,
    ShapeKind,
)
from .datamanager import DataManager
from .window import Window

__all__ = ["UtilityModel"]

_OP_UFUNCS = {
    ComparisonOp.LT: np.less,
    ComparisonOp.LE: np.less_equal,
    ComparisonOp.GT: np.greater,
    ComparisonOp.GE: np.greater_equal,
    ComparisonOp.EQ: np.equal,
    ComparisonOp.NE: np.not_equal,
}


def _op_mask(op: ComparisonOp, values: np.ndarray, threshold: float) -> np.ndarray:
    """Vectorized ``ComparisonOp.apply`` — NaN operands never satisfy."""
    if math.isnan(threshold):
        return np.zeros(values.shape, dtype=bool)
    mask = _OP_UFUNCS[op](values, threshold)
    if op is ComparisonOp.NE:
        # numpy's ``!=`` is True for NaN; the scalar semantics are False.
        mask &= ~np.isnan(values)
    return mask


@dataclass(frozen=True)
class _ContentEntry:
    condition: ContentCondition
    eps: float


class UtilityModel:
    """Computes benefits, costs and utilities against a Data Manager."""

    def __init__(self, conditions: ConditionSet, data: DataManager, s: float = 0.5) -> None:
        if not 0 <= s <= 1:
            raise ValueError(f"benefit weight s must be in [0, 1], got {s}")
        self.conditions = conditions
        self.data = data
        self.s = s

        grid = data.grid
        self._m = grid.num_cells
        self._n = max(1.0, data.total_objects)
        k = conditions.max_cardinality(grid.shape)
        self._k = float(k) if k is not None else float(self._m)

        self._content: list[_ContentEntry] = []
        for cond in conditions.content_conditions:
            eps = cond.eps
            if eps is None:
                eps = default_eps(cond, data.objective_grids(cond.objective.key), self._n)
            if eps <= 0:
                raise ValueError(f"eps for condition {cond!r} must be positive, got {eps}")
            self._content.append(_ContentEntry(cond, eps))
        self._shape = conditions.shape_conditions

    @property
    def k(self) -> float:
        """The cost normalizer (max cardinality or total cell count)."""
        return self._k

    # -- components -----------------------------------------------------------

    def cost(self, window: Window) -> float:
        """``C_w``: unread objects normalized by mean cell density."""
        return self.data.unread_objects(window) * self._m / self._n

    def benefit(self, window: Window) -> float:
        """``B_w``: minimum per-condition benefit, in [0, 1]."""
        benefit = 1.0
        for cond in self._shape:
            benefit = min(benefit, self._shape_benefit(cond, window))
            if benefit == 0.0:
                return 0.0
        # Interval predicates (``avg(v) > a AND avg(v) < b``) share one
        # objective; estimate it once per window, not per condition.
        memo: dict | None = {} if len(self._content) > 1 else None
        for entry in self._content:
            benefit = min(benefit, self._content_benefit(entry, window, memo))
            if benefit == 0.0:
                return 0.0
        return benefit

    def utility(self, window: Window) -> float:
        """``U_w = s*B + (1-s)*(1 - min(C/k, 1))``."""
        cost_term = 1.0 - min(self.cost(window) / self._k, 1.0)
        return self.s * self.benefit(window) + (1.0 - self.s) * cost_term

    def utility_with_benefit(self, window: Window, benefit: float) -> float:
        """Utility using an externally modified benefit (diversification)."""
        cost_term = 1.0 - min(self.cost(window) / self._k, 1.0)
        return self.s * benefit + (1.0 - self.s) * cost_term

    # -- batch evaluation over all placements of a fixed shape ------------------

    def placement_profile(
        self,
        lengths: Sequence[int],
        windows: Sequence[Window] | None,
        anchor_slab: tuple[int, int] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(benefits, cost_terms)`` for every placement of one shape.

        ``windows`` is the row-major list of placements of ``lengths``
        (as produced by iterating lows with ``itertools.product``); both
        returned arrays align with it.  It may be ``None`` when no noise
        model is attached — shape benefits are placement-independent, so
        the windows themselves are only needed for per-window noise
        keying, and skipping their construction is the seeding fast
        path.  ``anchor_slab=(lo, hi)`` limits the placements to
        first-dimension anchors in ``[lo, hi)`` — the distributed
        workers seed (and re-seed adopted) anchor slabs through this.
        Every entry is bitwise identical to the scalar :meth:`benefit` /
        ``1 - min(cost/k, 1)`` pair — the whole point of this path is
        cutting wall time without perturbing a single utility value (see
        kernels.py's exactness contract).
        """
        kern = self.data.kernels
        unread = kern.placement_unread(lengths)
        if anchor_slab is not None:
            unread = unread[anchor_slab[0] : anchor_slab[1]]
        costs = unread.reshape(-1) * self._m / self._n
        cost_terms = 1.0 - np.minimum(costs / self._k, 1.0)

        # Shape benefits depend only on the window's shape, which is the
        # same for every placement here.
        rep = (
            windows[0]
            if windows
            else Window.unchecked(tuple(0 for _ in lengths), tuple(lengths))
        )
        shape_benefit = 1.0
        for cond in self._shape:
            shape_benefit = min(shape_benefit, self._shape_benefit(cond, rep))
            if shape_benefit == 0.0:
                break
        benefits = np.full(cost_terms.shape, shape_benefit, dtype=np.float64)
        if shape_benefit > 0.0:
            estimates_memo: dict = {}
            for entry in self._content:
                objective = entry.condition.objective
                memo_key = (objective.aggregate.name, objective.key)
                estimates = estimates_memo.get(memo_key)
                if estimates is None:
                    estimates = kern.placement_estimates(
                        objective, lengths, windows, anchor_slab
                    )
                    estimates_memo[memo_key] = estimates
                np.minimum(
                    benefits, self._content_benefits(entry, estimates), out=benefits
                )
                if not benefits.any():
                    break
        return benefits, cost_terms

    def _content_benefits(self, entry: _ContentEntry, estimates: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`_content_benefit` over an estimate array."""
        cond = entry.condition
        nan_mask = np.isnan(estimates)
        satisfied = _op_mask(cond.op, estimates, cond.value)
        with np.errstate(invalid="ignore"):
            out = np.maximum(0.0, 1.0 - np.abs(estimates - cond.value) / entry.eps)
        out = np.where(satisfied, 1.0, out)
        out[nan_mask] = 0.0
        return out

    # -- per-condition benefits -------------------------------------------------

    def _shape_benefit(self, cond: ShapeCondition, window: Window) -> float:
        value = cond.objective_value(window)
        if cond.op.apply(value, cond.value):
            return 1.0
        if cond.objective.kind is ShapeKind.LENGTH:
            eps = float(self.data.grid.shape[cond.objective.dim])  # type: ignore[index]
        else:
            eps = float(self._m)
        return max(0.0, 1.0 - abs(value - cond.value) / eps)

    def _content_benefit(
        self, entry: _ContentEntry, window: Window, memo: dict | None = None
    ) -> float:
        objective = entry.condition.objective
        if memo is None:
            estimate = self.data.estimate(objective, window)
        else:
            key = (objective.aggregate.name, objective.key)
            estimate = memo.get(key)
            if estimate is None:
                estimate = self.data.estimate(objective, window)
                memo[key] = estimate
        if math.isnan(estimate):
            return 0.0
        if entry.condition.evaluate_value(estimate):
            return 1.0
        return max(0.0, 1.0 - abs(estimate - entry.condition.value) / entry.eps)
