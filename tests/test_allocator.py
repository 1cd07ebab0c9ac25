"""Inverse-similarity expert allocation and plan validation."""

import itertools
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from layermoe.allocator import AllocationPlan, allocate, load_plan, save_plan, validate
from layermoe.errors import BudgetError, FormatError, UnsupportedSimilarityError
from layermoe.numerics import SeededRng


def reference_reconcile(similarities, budget):
    """Independent re-implementation of the decrement rule via linear scans."""
    inverse = [1.0 / s for s in similarities]
    total = sum(inverse)
    counts = [math.ceil(inv / total * budget) for inv in inverse]
    while sum(counts) > budget:
        best = None
        for i, s in enumerate(similarities):
            if counts[i] <= 1:
                continue
            if best is None or s > similarities[best]:
                best = i
        counts[best] -= 1
    return counts


class TestAllocate:
    def test_symmetric(self):
        plan = allocate([0.5, 0.5, 0.5], 6)
        assert plan.new_experts == (2, 2, 2)
        assert plan.pre_reconciliation == (2, 2, 2)

    def test_hand_example_with_reconciliation(self):
        plan = allocate([0.9, 0.45, 0.3], 11)
        np.testing.assert_allclose(plan.raw, [11 / 6, 11 / 3, 11 / 2], atol=1e-9)
        assert plan.pre_reconciliation == (2, 4, 6)
        assert plan.new_experts == (1, 4, 6)
        assert plan.new_experts == tuple(reference_reconcile([0.9, 0.45, 0.3], 11))

    def test_paper_scale_setting(self):
        gen = SeededRng(24).generator()
        sims = gen.uniform(0.05, 0.95, size=24)
        plan = allocate(sims, 72)
        assert sum(plan.new_experts) == 72
        assert min(plan.new_experts) >= 1

    def test_matches_reference_on_random_vectors(self):
        gen = SeededRng(99).generator()
        for _ in range(200):
            m = int(gen.integers(1, 12))
            sims = gen.uniform(0.01, 1.0, size=m)
            budget = int(gen.integers(m, 5 * m + 1))
            plan = allocate(sims, budget)
            assert plan.new_experts == tuple(reference_reconcile(sims.tolist(), budget))

    def test_rejects_non_positive(self):
        with pytest.raises(UnsupportedSimilarityError):
            allocate([0.4, 0.0, 0.2], 9)
        with pytest.raises(UnsupportedSimilarityError):
            allocate([0.4, -0.1], 9)
        with pytest.raises(UnsupportedSimilarityError):
            allocate([], 9)

    @pytest.mark.parametrize(
        "sims, named",
        [
            ([0.4, -0.05, 0.2, -0.3], "layer 1 has similarity -0.05"),
            ([0.4, 0.3, 0.0], "layer 2 has similarity 0.0"),
            ([float("nan"), -0.1], "layer 0 has similarity nan"),
        ],
    )
    def test_rejection_names_the_first_offending_layer(self, sims, named):
        with pytest.raises(UnsupportedSimilarityError) as caught:
            allocate(sims, 9)
        assert str(caught.value).endswith(named)

    def test_rejects_small_budget(self):
        with pytest.raises(BudgetError):
            allocate([0.5, 0.5, 0.5], 2)

    @pytest.mark.parametrize("budget", [5.7, 6.0, np.float64(6.0), "6"],
                             ids=["fractional", "whole-float", "numpy-float", "string"])
    def test_a_budget_that_is_not_an_integer_is_rejected(self, budget):
        """``AllocationPlan(5.7, (0.5, 0.5))`` was a plan of budget 5, and a
        string budget raised ``TypeError``."""
        with pytest.raises(BudgetError, match=rf"^budget {re.escape(repr(budget))} is not an integer$"):
            AllocationPlan(budget, (0.5, 0.5))
        assert AllocationPlan(np.int64(6), (0.5, 0.5)).budget == 6

    @given(
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=16),
        st.integers(min_value=0, max_value=64),
        st.floats(min_value=0.01, max_value=50.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_invariants(self, sims, extra, scale):
        budget = len(sims) + extra
        plan = allocate(sims, budget)
        assert sum(plan.new_experts) == budget
        assert all(c >= 1 for c in plan.new_experts)
        # ceiling preserves inverse ordering
        for i in range(len(sims)):
            for j in range(len(sims)):
                if sims[i] <= sims[j]:
                    assert plan.pre_reconciliation[i] >= plan.pre_reconciliation[j]
        # at most (sum of ceilings - budget) single-step decrements
        drops = sum(plan.pre_reconciliation) - budget
        diffs = [pre - post for pre, post in zip(plan.pre_reconciliation, plan.new_experts)]
        assert all(d >= 0 for d in diffs) and sum(diffs) == drops
        scaled = allocate([scale * s for s in sims], budget)
        assert scaled.new_experts == plan.new_experts
        assert validate(plan, len(sims)) == []

    def test_a_share_below_the_rounding_slack_keeps_one_expert(self):
        """The share 2e-10 used to round to 0 experts, against the docstring."""
        plan = allocate([1e-10, 1.0], 2)
        assert plan.pre_reconciliation == (2, 1) and plan.new_experts == (1, 1)
        assert plan.new_experts == tuple(reference_reconcile([1e-10, 1.0], 2))

    @pytest.mark.parametrize("budget", [10**23, 10**24])
    def test_a_budget_float64_cannot_split_is_rejected(self, budget):
        """10**23 gave a plan 4,194,304 experts short of its budget, and
        10**24 did not return: reconciliation stepped once per excess expert."""
        with pytest.raises(BudgetError, match=f"^budget {budget} cannot be split exactly"):
            allocate([0.3, 0.55, 0.71], budget)

    @given(st.lists(st.floats(min_value=1e-12, max_value=1.0), min_size=1, max_size=12),
           st.data())
    @settings(max_examples=200, deadline=None)
    def test_every_layer_keeps_an_expert_and_the_total_is_the_budget(self, sims, data):
        budget = data.draw(st.integers(min_value=len(sims), max_value=10**12))
        plan = allocate(sims, budget)
        assert min(plan.new_experts) >= 1 and sum(plan.new_experts) == budget
        for i, j in itertools.permutations(range(len(sims)), 2):
            if sims[i] < sims[j]:  # layer j is more similar, so it gets no more
                assert plan.new_experts[i] >= plan.new_experts[j]
        # Beyond float64's reach a plan keeps its contract or is refused, at once.
        for huge in (10**23, 10**24):
            try:
                plan = allocate(sims, huge)
            except BudgetError:
                continue
            assert min(plan.new_experts) >= 1 and sum(plan.new_experts) == huge

    def test_equal_similarities_split_evenly_at_a_large_budget(self):
        """Each share, 281,608,568, came out one ulp high, above the absolute
        rounding slack, and rounded up; reconciliation then took all three
        surplus experts from layer 0: (281608566, 281608569, 281608569)."""
        plan = allocate([0.7] * 3, 844_825_704)
        assert plan.pre_reconciliation == plan.new_experts == (281_608_568,) * 3

    @given(st.integers(min_value=1, max_value=12), st.floats(min_value=1e-12, max_value=1.0),
           st.integers(min_value=12, max_value=10**12))
    @example(layers=3, sim=0.7, budget=844_825_704)
    @settings(max_examples=300, deadline=None)
    def test_equal_similarities_get_equal_shares(self, layers, sim, budget):
        """Every layer's share rounds up to the same whole number, and
        reconciliation takes the surplus from the lowest layers down to one
        expert each (ties go to the lower index), so a budget the layers
        divide splits evenly."""
        plan = allocate([sim] * layers, budget)
        share = -(-budget // layers)
        assert plan.pre_reconciliation == (share,) * layers
        want, surplus = [share] * layers, share * layers - budget
        for i in range(layers):
            taken = min(surplus, share - 1)
            want[i], surplus = share - taken, surplus - taken
        assert plan.new_experts == tuple(want)


def plan_faults(directory, plan, **changes) -> list[str]:
    """What ``load_plan`` refuses in ``plan``'s file with ``changes`` written
    in: ``budget``, or a per-layer column (``similarity``, ``raw``,
    ``pre_reconciliation``, ``new_experts``) given one value per layer."""
    path = directory / "plan.json"
    save_plan(plan, path)
    record = json.loads(path.read_text())
    for name, values in changes.items():
        if name == "budget":
            record["budget"] = values
        else:
            for row, value in zip(record["layers"], values):
                row[name] = value
    path.write_text(json.dumps(record))
    with pytest.raises(FormatError) as caught:
        load_plan(path)
    prefix = f"{path}: invalid plan: "
    assert str(caught.value).startswith(prefix)
    return str(caught.value)[len(prefix):].split("; ")


class TestValidate:
    """A plan file is valid if and only if it holds what ``allocate`` gives
    for its own similarities and budget; a plan object cannot hold anything
    else, so ``validate`` checks only its layer count."""

    def test_detects_budget_violation(self, tmp_path):
        plan = allocate([0.5, 0.4], 5)
        found = plan_faults(tmp_path, plan, new_experts=(1, 1))
        assert found == ["new_experts at layer 0 is 1, allocate gives 2"]

    def test_detects_monotonicity_violation(self, tmp_path):
        plan = allocate([0.5, 0.4], 5)
        found = plan_faults(tmp_path, plan, pre_reconciliation=(1, 3), similarity=(0.4, 0.5))
        assert "pre_reconciliation at layer 0 is 1, allocate gives 3" in found

    def test_names_the_first_layer_of_each_field_that_differs(self, tmp_path):
        plan = allocate([0.5, 0.4, 0.3], 6)
        nudged = plan.raw[1] + 1e-15  # a few ulps off, with every count unchanged
        assert plan_faults(tmp_path, plan, raw=(plan.raw[0], nudged, plan.raw[2])) == [
            f"raw at layer 1 is {nudged!r}, allocate gives {plan.raw[1]!r}"
        ]
        found = plan_faults(tmp_path, plan, pre_reconciliation=(2, 1, 3), new_experts=(1, 3, 2))
        assert found == [
            "pre_reconciliation at layer 1 is 1, allocate gives 2",
            "new_experts at layer 1 is 3, allocate gives 2",
        ]

    def test_reports_what_allocate_rejects(self, tmp_path):
        plan = allocate([0.5, 0.4, 0.3], 6)
        assert plan_faults(tmp_path, plan, budget=2) == [
            "budget 2 cannot give 3 layers one expert each"
        ]
        found = plan_faults(tmp_path, plan, similarity=(0.5, -7.0, 0.3))
        assert len(found) == 1 and found[0].endswith("layer 1 has similarity -7.0")

    def test_detects_layer_count_mismatch(self):
        plan = allocate([0.5, 0.4], 5)
        assert validate(plan, 3) == ["plan covers 2 layers, expected 3"]

    def test_detects_sub_one_layer(self, tmp_path):
        plan = allocate([0.5, 0.4], 5)
        found = plan_faults(tmp_path, plan, new_experts=(5, 0))
        assert found == ["new_experts at layer 0 is 5, allocate gives 2"]


class TestPlanIO:
    def test_roundtrip(self, tmp_path):
        """A plan is one JSON file: no CSV mirror is written beside it."""
        plan = allocate([0.9, 0.45, 0.3], 11)
        path = tmp_path / "plan.json"
        assert save_plan(plan, path) is None
        assert load_plan(path) == plan
        assert list(tmp_path.iterdir()) == [path]


# A structural fault of a plan file, as an edit of its budget and similarities.
PLAN_FAULTS = {
    "budget-below-layers": lambda budget, sims: (len(sims) - 1, sims),
    "zero-similarity": lambda budget, sims: (budget, [0.0, *sims[1:]]),
    "negative-similarity": lambda budget, sims: (budget, [*sims[:-1], -sims[-1]]),
    "nan-similarity": lambda budget, sims: (budget, [math.nan, *sims[1:]]),
    "infinite-similarity": lambda budget, sims: (budget, [*sims[:-1], math.inf]),
    "no-layer": lambda budget, sims: (budget, []),
    "fractional-budget": lambda budget, sims: (budget + 0.5, sims),
}


@given(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=8),
       st.integers(min_value=0, max_value=10**6), st.sampled_from(sorted(PLAN_FAULTS)))
@example([0.5, 0.5], 3, "fractional-budget")  # its constructor used to truncate the budget to 5
@settings(max_examples=40, deadline=None)
def test_a_plan_saves_what_it_loads_and_builds_nothing_its_loader_refuses(sims, extra, fault):
    """A plan saves, loads back equal and saves the same bytes. A budget or
    similarities that ``load_plan`` refuses, the constructor refuses; the
    derived fields are not the constructor's to take."""
    plan = AllocationPlan(len(sims) + extra, tuple(sims))
    budget, broken = PLAN_FAULTS[fault](plan.budget, list(plan.similarities))
    with tempfile.TemporaryDirectory() as scratch:
        first, second = Path(scratch, "a.json"), Path(scratch, "b.json")
        save_plan(plan, first)
        assert load_plan(first) == plan
        save_plan(load_plan(first), second)
        assert first.read_bytes() == second.read_bytes()
        record = json.loads(first.read_text())
        record["budget"] = budget
        record["layers"] = [{**row, "similarity": s} for row, s in zip(record["layers"], broken)]
        first.write_text(json.dumps(record))
        with pytest.raises(FormatError):
            load_plan(first)
    with pytest.raises((BudgetError, UnsupportedSimilarityError)):
        AllocationPlan(budget, tuple(broken))
    with pytest.raises(TypeError):
        AllocationPlan(plan.budget, plan.similarities, new_experts=plan.new_experts)
