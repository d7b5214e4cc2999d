"""Golden serve report: the overload preset's canonical report is pinned.

The serving hot path shares one graph per template across every job,
walks the page table in vpn order from its interval index and bins arena
chunks by integer size class.  None of that may move a simulated number,
so the canonical report of a short seeded overload run (the CLI's
``serve --scenario overload`` mix and server) is pinned by digest.

To refresh the golden after an intentional change::

    PYTHONPATH=src python - <<'EOF'
    import hashlib, sys
    sys.path.insert(0, "tests/serve")
    from test_serve_golden import overload_server
    print(hashlib.sha256(overload_server().run().to_json().encode()).hexdigest())
    EOF
"""

import hashlib
from pathlib import Path

from repro.serve import JobTemplate, PoissonArrivals, ServeConfig, Server

GOLDEN = Path(__file__).resolve().parent.parent / "golden" / "serve_overload_report.sha256"

#: The CLI overload preset's rate, over a horizon short enough for tier-1.
RATE = 1.0
HORIZON = 30.0
SEED = 7


def overload_mix():
    """The CLI's serving mix: many short inference jobs, some training."""
    return (
        JobTemplate(name="infer", model="mobilenet", policy="ial", steps=1, slo=15.0, weight=4.0),
        JobTemplate(name="train", model="dcgan", policy="ial", steps=2, slo=60.0),
    )


def overload_server():
    """``repro serve --scenario overload`` defaults: EDF, 2 slots, queue 4."""
    config = ServeConfig(
        seed=SEED,
        slots=2,
        admission="edf",
        queue_limit=4,
        timeout=240.0,
        max_attempts=3,
        restart_budget=2,
    )
    arrivals = PoissonArrivals(rate=RATE, horizon=HORIZON, templates=overload_mix(), seed=SEED)
    return Server(arrivals, config, fast_fraction=0.5)


def test_overload_report_matches_checked_in_golden():
    digest = hashlib.sha256(overload_server().run().to_json().encode()).hexdigest()
    assert digest == GOLDEN.read_text().strip()


def test_each_template_graph_is_built_once_per_run(monkeypatch):
    import repro.models.zoo as zoo
    import repro.serve.arrivals as arrivals

    built = []
    original = zoo.build_model

    def counting_build_model(name, *args, **kwargs):
        built.append(name)
        return original(name, *args, **kwargs)

    # ``arrivals`` imported the function by name, so patch both bindings.
    monkeypatch.setattr(zoo, "build_model", counting_build_model)
    monkeypatch.setattr(arrivals, "build_model", counting_build_model)
    server = overload_server()
    report = server.run()
    assert report.completed > len(overload_mix())  # templates really repeat
    assert sorted(built) == sorted(t.model for t in overload_mix())
