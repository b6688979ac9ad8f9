"""Golden-result conformance pack: every bundled domain, exact costs.

Each test re-synthesizes one registry case
(:mod:`repro.domains.conformance`) and compares against the committed
fixture.  A mismatch means the algorithm's *answers* changed — a
correctness regression unless you meant it.  If the change is
intentional (better pruning, edited instance), refresh the fixture:

    PYTHONPATH=src python tools/regenerate_results.py --conformance

review the diff, and commit it together with the change.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.domains.conformance import CONFORMANCE_CASES, conformance_record

FIXTURE = Path(__file__).parent / "fixtures" / "conformance.json"

_REGEN = (
    "\n\nGolden conformance mismatch: the synthesis result for this domain "
    "changed. If intentional, regenerate the fixture with\n"
    "    PYTHONPATH=src python tools/regenerate_results.py --conformance\n"
    "and commit the reviewed diff."
)


@pytest.fixture(scope="module")
def golden():
    assert FIXTURE.exists(), f"missing fixture {FIXTURE}{_REGEN}"
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_domain(golden):
    assert set(golden) == set(CONFORMANCE_CASES), (
        f"fixture domains {sorted(golden)} != registry {sorted(CONFORMANCE_CASES)}{_REGEN}"
    )


@pytest.mark.parametrize("name", list(CONFORMANCE_CASES))
def test_domain_matches_golden_record(name, golden):
    pinned = golden[name]
    live = conformance_record(name)

    assert live["total_cost"] == pytest.approx(pinned["total_cost"], rel=1e-9), (
        f"{name}: optimal cost drifted from {pinned['total_cost']} "
        f"to {live['total_cost']}{_REGEN}"
    )
    assert live["point_to_point_cost"] == pytest.approx(
        pinned["point_to_point_cost"], rel=1e-9
    ), f"{name}: point-to-point baseline drifted{_REGEN}"

    live_sel = [(e["label"], e["cost"]) for e in live["selected"]]
    pinned_sel = [(e["label"], e["cost"]) for e in pinned["selected"]]
    assert [l for l, _ in live_sel] == [l for l, _ in pinned_sel], (
        f"{name}: selected cover changed{_REGEN}"
    )
    for (label, live_cost), (_, pinned_cost) in zip(live_sel, pinned_sel):
        assert live_cost == pytest.approx(pinned_cost, rel=1e-9), (
            f"{name}: cost of {label} drifted{_REGEN}"
        )

    for key in ("max_arity", "candidate_counts", "communication_vertices",
                "link_instances"):
        assert live[key] == pinned[key], f"{name}: {key} drifted{_REGEN}"


@pytest.mark.parametrize("name", list(CONFORMANCE_CASES))
@pytest.mark.parametrize("strategy", ["decompose"])
def test_scalable_strategies_reproduce_golden_optimum(name, strategy, golden):
    # the decomposition certificate claims gap 0 on small instances —
    # hold it to that: every pinned exact optimum must be reproduced,
    # bit for bit on cost, by the scalable strategy
    from repro import SynthesisOptions, synthesize

    builder, max_arity = CONFORMANCE_CASES[name]
    graph, library = builder()
    result = synthesize(
        graph, library, SynthesisOptions(strategy=strategy, max_arity=max_arity)
    )
    assert result.total_cost == pytest.approx(golden[name]["total_cost"], rel=1e-9), (
        f"{name}/{strategy}: cost {result.total_cost} != pinned exact optimum "
        f"{golden[name]['total_cost']}{_REGEN}"
    )
    assert result.decomposition is not None
    assert result.decomposition.certified
    assert result.decomposition.gap_bound == 0.0
