"""Budgeted per-layer expert allocation, inverse to layer similarity.

Each layer's share of the budget is proportional to the reciprocal of its
indicated similarity, rounded up. Ceiling pushes the total above the budget,
so the plan is reconciled by repeatedly decrementing the layer with the
highest similarity among those still holding more than one expert (ties go
to the lower index) until the total matches the budget exactly. Both the
pre- and post-reconciliation vectors are kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import zip_longest
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import BudgetError, FormatError, UnsupportedSimilarityError
from .schema import List, by_index, check, load_json, save_json

__all__ = [
    "AllocationPlan",
    "allocate",
    "load_plan",
    "save_plan",
    "validate",
]

# Far above the rounding error of a small share, far below any real fraction.
_ROUNDING_SLACK = 1e-9


@dataclass(frozen=True)
class AllocationPlan:
    """What :func:`allocate` gives for ``similarities`` and ``budget``, and
    nothing else: no classifier layers (stage 2 picks them, and the
    checkpoint records them) and no provenance (a manifest's concern)."""

    budget: int
    similarities: tuple[float, ...]
    raw: tuple[float, ...]  # fractional shares before rounding
    pre_reconciliation: tuple[int, ...]  # ceil of raw
    new_experts: tuple[int, ...]

    @property
    def layer_count(self) -> int:
        return len(self.new_experts)


def allocate(similarities: Sequence[float], budget: int) -> AllocationPlan:
    """Turn a strictly positive per-layer similarity vector and a total budget
    into an allocation plan. Requires budget >= layer count so every layer
    keeps at least one new expert, and a budget whose float64 shares round
    back to it (the tests cover budgets up to 10**12)."""
    values = np.asarray(similarities, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise UnsupportedSimilarityError("similarity vector must be non-empty and 1-d")
    bad = np.flatnonzero(~np.isfinite(values) | (values <= 0.0))
    if bad.size:
        raise UnsupportedSimilarityError(
            "inverse-proportional allocation needs strictly positive similarities: "
            f"layer {bad[0]} has similarity {float(values[bad[0]])}"
        )
    layers = values.size
    if budget < layers:
        raise BudgetError(f"budget {budget} cannot give {layers} layers one expert each")
    if budget > float(np.finfo(np.float64).max):  # an exact int-float comparison
        raise BudgetError(f"budget of {len(str(budget))} digits is beyond float64's range")

    inverse = 1.0 / values
    raw = inverse / inverse.sum() * budget
    # A share that should be a whole number can come out a few ulps above
    # it, depending on the scale of the similarities (equal ones, say);
    # rounding that up would add an expert that reconciliation then takes
    # from the wrong layer. So a share within the slack, or 4 of its ulps,
    # above a whole number is that number. A share below 1 gets one expert.
    pre_reconciliation = tuple(
        max(1, math.floor(r) if r % 1 <= max(_ROUNDING_SLACK, 4 * math.ulp(r)) else math.ceil(r))
        for r in raw)
    # Ceiling adds less than one expert per layer, and float rounding of a
    # whole share at most one more; float64 shares that miss the budget by
    # more fail here, before reconciliation would step over the excess.
    total = sum(pre_reconciliation)
    if not budget <= total <= budget + layers:
        raise BudgetError(f"budget {budget} cannot be split exactly in float64: "
                          f"its rounded-up shares sum to {total}")
    counts = list(pre_reconciliation)

    while sum(counts) > budget:
        candidates = [i for i in range(layers) if counts[i] > 1]
        # cannot be empty: sum(counts) > budget >= layers forces some count > 1
        best = max(candidates, key=lambda i: (values[i], -i))
        counts[best] -= 1

    return AllocationPlan(
        budget=int(budget),
        similarities=tuple(float(v) for v in values),
        raw=tuple(float(r) for r in raw),
        pre_reconciliation=pre_reconciliation,
        new_experts=tuple(counts),
    )


def validate(plan: AllocationPlan, layer_count: int) -> list[str]:
    """Violations, empty when ``plan`` has ``layer_count`` layers and equals
    ``allocate(plan.similarities, plan.budget)``: what ``allocate`` rejects,
    or the first layer where each of its per-layer fields differs."""
    found: list[str] = []
    if plan.layer_count != layer_count:
        found.append(f"plan covers {plan.layer_count} layers, expected {layer_count}")
    try:
        want = allocate(plan.similarities, plan.budget)
    except (BudgetError, UnsupportedSimilarityError) as exc:
        return found + [str(exc)]
    for name in ("raw", "pre_reconciliation", "new_experts"):
        pairs = enumerate(zip_longest(getattr(plan, name), getattr(want, name)))
        first = next(((i, a, b) for i, (a, b) in pairs if a != b), None)
        if first:
            found.append("{} at layer {} is {!r}, allocate gives {!r}".format(name, *first))
    return found


def save_plan(plan: AllocationPlan, path: str | Path) -> None:
    """The plan as one JSON file, which :func:`load_plan` reads back."""
    record = {
        "budget": plan.budget,
        "layers": [
            {
                "index": i,
                "similarity": plan.similarities[i],
                "new_experts": plan.new_experts[i],
                "raw": plan.raw[i],
                "pre_reconciliation": plan.pre_reconciliation[i],
            }
            for i in range(plan.layer_count)
        ],
    }
    save_json(path, record)


_LAYER = {"index": int, "similarity": float, "new_experts": int, "raw": float,
          "pre_reconciliation": int}
_PLAN = {"budget": int, "layers": List(_LAYER, lo=1)}


def load_plan(path: str | Path) -> AllocationPlan:
    """Read a plan file that is what :func:`allocate` gives for its own
    similarities and budget; raises FormatError naming every difference."""
    record = check(load_json(path), _PLAN, f"{path}: plan")
    layers = by_index(record["layers"], f"{path}: plan")
    plan = AllocationPlan(
        budget=record["budget"],
        similarities=tuple(float(row["similarity"]) for row in layers),
        raw=tuple(float(row["raw"]) for row in layers),
        pre_reconciliation=tuple(row["pre_reconciliation"] for row in layers),
        new_experts=tuple(row["new_experts"] for row in layers),
    )
    violations = validate(plan, plan.layer_count)
    if violations:
        raise FormatError(f"{path}: invalid plan: {'; '.join(violations)}")
    return plan
