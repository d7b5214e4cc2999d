"""Golden corpus: the simulator's observable output across the zoo, as data.

Every case runs one ``run_policy`` workload with an event tracer and a
metrics registry attached and reduces it to three sha256 digests:

* ``trace`` — the canonical JSONL trace digest (every event of every step);
* ``metrics`` — the ``RunMetrics`` dataclass, extras included, as sorted
  JSON;
* ``prometheus`` — the metrics registry's text exposition.

One extra case digests an insight report.  The digests live in
``tests/golden/corpus.json``; under pytest each case is re-run and must
reproduce its stored digests byte for byte.  A mismatch means a simulated
number moved: fix the change, or — if the move is intended — refresh the
corpus and say why in the commit.

Refresh the corpus by running this file as a script::

    PYTHONPATH=src python tests/integration/test_golden_corpus.py

The corpus was first recorded while the simulator still kept a scalar
reference implementation of its hot paths next to the vectorized one;
both produced exactly these digests, so the reference lives on as data.
"""

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Dict

import pytest

from repro.chaos import ChaosConfig
from repro.harness.runner import run_policy
from repro.harness.tournament import TOURNAMENT_PRESSURE
from repro.mem.platforms import GPU_HM
from repro.mem.ras import RASConfig
from repro.obs import (
    EventTracer,
    InsightCollector,
    MetricsRegistry,
    canonical_digest,
    insight_json,
)

CORPUS = Path(__file__).resolve().parent.parent / "golden" / "corpus.json"

#: The ``zoo-sweep`` benchmark's models.
ZOO = (
    "dcgan",
    "lstm",
    "resnet32",
    "bert-base",
    "gpt-small",
    "resnet200",
    "mobilenet",
)

#: Sentinel and two baselines from different families.
POLICIES = ("sentinel", "ial", "autotm")

#: The UE storm of ``test_ras_resilience.py``: every model takes
#: uncorrectable errors on live activations, with scrubbing and remat.
STORM = RASConfig(
    seed=1337,
    ue_rate=1e-9,
    ce_rate=1e-8,
    scrub_bandwidth=256 * 1024**2,
    recovery="remat",
)

#: Machine features layered onto the plain run, one at a time.  The
#: pressure variant uses the tournament's watermarks: a default
#: ``PressureConfig()`` is disabled and would repeat the plain run.
VARIANTS = {
    "chaos": {"chaos": ChaosConfig.uniform(0.2, seed=99)},
    "pressure": {"pressure": TOURNAMENT_PRESSURE},
    "ras": {"ras": STORM},
    "feedback": {"admission": "feedback"},
}

#: (model, policy, fast fraction) points outside the matrix above.
EXTRA_POINTS = (
    ("dcgan", "slow-only", 0.3),
    ("lstm", "first-touch", 0.3),
    ("dcgan", "memory-mode", 0.5),
    ("dcgan", "vdnn", 0.4),
    ("dcgan", "capuchin", 0.5),
)

#: The one insight-report case: (model, policy, fast fraction).
INSIGHT_CASE = ("dcgan", "sentinel", 0.3)


def _case_table() -> Dict[str, Dict]:
    """Case id -> ``run_policy`` keywords."""
    cases: Dict[str, Dict] = {}

    def add(model, policy, fraction, variant="plain", **extra):
        cases[f"{model}/{policy}/{fraction}/{variant}"] = dict(
            policy_name=policy, model=model, fast_fraction=fraction, **extra
        )

    for model in ZOO:
        for policy in POLICIES:
            add(model, policy, 0.3)
    for model in ("dcgan", "lstm"):
        for policy in POLICIES:
            for variant, extra in VARIANTS.items():
                add(model, policy, 0.3, variant, **extra)
    for model, policy, fraction in EXTRA_POINTS:
        add(model, policy, fraction)
    add("dcgan", "sentinel-gpu", 0.2, "gpu-hm", platform=GPU_HM)
    return cases


CASES = _case_table()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_digests(kwargs: Dict) -> Dict[str, str]:
    """Run one case and reduce its output to the three digests."""
    tracer = EventTracer()
    registry = MetricsRegistry()
    metrics = run_policy(tracer=tracer, metrics=registry, **kwargs)
    return {
        "trace": canonical_digest(tracer.events),
        "metrics": _sha256(json.dumps(dataclasses.asdict(metrics), sort_keys=True)),
        "prometheus": _sha256(registry.to_prometheus()),
    }


def insight_digest() -> str:
    """Digest of the insight report of :data:`INSIGHT_CASE`."""
    model, policy, fraction = INSIGHT_CASE
    collector = InsightCollector()
    run_policy(policy, model=model, fast_fraction=fraction, insight=collector)
    return _sha256(insight_json(collector.report()))


def insight_case_id() -> str:
    model, policy, fraction = INSIGHT_CASE
    return f"{model}/{policy}/{fraction}/insight"


@pytest.fixture(scope="module")
def corpus():
    return json.loads(CORPUS.read_text())


def test_corpus_holds_exactly_the_case_table(corpus):
    assert sorted(corpus["cases"]) == sorted(CASES)
    assert sorted(corpus["insight"]) == [insight_case_id()]


@pytest.mark.parametrize("case", sorted(CASES))
def test_case_matches_corpus(corpus, case):
    assert run_digests(CASES[case]) == corpus["cases"][case]


def test_insight_report_matches_corpus(corpus):
    assert insight_digest() == corpus["insight"][insight_case_id()]


def record() -> Dict:
    """Recompute every case's digests (the corpus file's content)."""
    cases = {case: run_digests(CASES[case]) for case in sorted(CASES)}
    return {"cases": cases, "insight": {insight_case_id(): insight_digest()}}


if __name__ == "__main__":
    CORPUS.write_text(json.dumps(record(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {CORPUS} ({len(CASES) + 1} cases)")
