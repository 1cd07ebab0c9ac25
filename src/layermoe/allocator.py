"""Budgeted per-layer expert allocation, inverse to layer similarity.

Each layer's share of the budget is proportional to the reciprocal of its
indicated similarity, rounded up. Ceiling pushes the total above the budget,
so the plan is reconciled by repeatedly decrementing the layer with the
highest similarity among those still holding more than one expert (ties go
to the lower index) until the total matches the budget exactly. Both the
pre- and post-reconciliation vectors are kept. A plan derives them from its
similarities and budget when it is built; a plan file must hold what they give.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    """The plan for a strictly positive per-layer ``similarities`` vector and
    a total ``budget``; the other fields are derived from those two. Requires
    budget >= layer count so every layer keeps at least one new expert, and a
    budget whose float64 shares round back to it (the tests cover budgets up
    to 10**12). It holds no classifier layers (stage 2 picks them, and the
    checkpoint records them) and no provenance (a manifest's concern)."""

    budget: int
    similarities: tuple[float, ...]
    raw: tuple[float, ...] = field(init=False)  # fractional shares before rounding
    pre_reconciliation: tuple[int, ...] = field(init=False)  # ceil of raw
    new_experts: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        values = np.asarray(self.similarities, dtype=np.float64)
        if values.ndim != 1 or values.size == 0:
            raise UnsupportedSimilarityError("similarity vector must be non-empty and 1-d")
        bad = np.flatnonzero(~np.isfinite(values) | (values <= 0.0))
        if bad.size:
            raise UnsupportedSimilarityError(
                "inverse-proportional allocation needs strictly positive similarities: "
                f"layer {bad[0]} has similarity {float(values[bad[0]])}"
            )
        budget, layers = self.budget, values.size
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
            max(1, math.floor(r) if r % 1 <= max(_ROUNDING_SLACK, 4 * math.ulp(r))
                else math.ceil(r))
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

        self.__dict__.update(budget=int(budget), similarities=tuple(map(float, values)),
                             raw=tuple(map(float, raw)), pre_reconciliation=pre_reconciliation,
                             new_experts=tuple(counts))

    @property
    def layer_count(self) -> int:
        return len(self.new_experts)


def allocate(similarities: Sequence[float], budget: int) -> AllocationPlan:
    """Turn a strictly positive per-layer similarity vector and a total budget
    into an allocation plan, under the name the benchmark wraps and times."""
    return AllocationPlan(budget, tuple(similarities))


def validate(plan: AllocationPlan, layer_count: int) -> list[str]:
    """Violations, empty when ``plan`` has ``layer_count`` layers (a plan is checked when built)."""
    wrong = plan.layer_count != layer_count
    return [f"plan covers {plan.layer_count} layers, expected {layer_count}"] if wrong else []


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
    """Read a plan file: the plan its similarities and budget give, whose
    stored fields must be the derived ones; raises FormatError naming the
    first layer of each field that differs."""
    record = check(load_json(path), _PLAN, f"{path}: plan")
    layers = by_index(record["layers"], f"{path}: plan")
    try:
        plan = AllocationPlan(record["budget"], tuple(row["similarity"] for row in layers))
    except (BudgetError, UnsupportedSimilarityError) as exc:
        raise FormatError(f"{path}: invalid plan: {exc}") from None
    found = []
    for name in ("raw", "pre_reconciliation", "new_experts"):
        pairs = enumerate(zip((row[name] for row in layers), getattr(plan, name)))
        first = next(((i, a, b) for i, (a, b) in pairs if a != b), None)
        if first:
            found.append("{} at layer {} is {!r}, allocate gives {!r}".format(name, *first))
    if found:
        raise FormatError(f"{path}: invalid plan: {'; '.join(found)}")
    return plan
