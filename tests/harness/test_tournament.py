"""Tournament harness: schema, byte-stable artifacts, pooled determinism,
and the feedback controller's headline win.

Tournaments are the acceptance surface for the admission layer: a ranked
leaderboard over {model x policy x admission x governor} whose JSON
artifact must be byte-identical across reruns (and across worker counts),
and in which the feedback controller must actually *win* at least one
constrained-memory cell by cutting the migration-stall share.
"""

import json

import pytest

from repro.harness.tournament import (
    DEFAULT_ADMISSIONS,
    TOURNAMENT_SCHEMA,
    _enumerate_cells,
    format_leaderboard,
    run_tournament,
    tournament_json,
)
from repro.mem.platforms import OPTANE_HM


@pytest.fixture(scope="module")
def small():
    """One dcgan x {sentinel, ial} x all controllers grid, governor off."""
    return run_tournament(
        models=("dcgan",),
        policies=("sentinel", "ial"),
        governors=(False,),
        fast_fraction=0.2,
    )


class TestArtifact:
    def test_schema_and_config(self, small):
        assert small["schema"] == TOURNAMENT_SCHEMA
        assert small["config"]["models"] == ["dcgan"]
        assert small["config"]["platform"] == OPTANE_HM.name
        assert small["config"]["admissions"] == list(DEFAULT_ADMISSIONS)

    def test_baselines_anchor_slowdown(self, small):
        baseline = small["baselines"]["dcgan"]
        assert baseline > 0
        for cell in small["cells"]:
            if cell["failure"] is None:
                assert cell["slowdown"] == pytest.approx(
                    cell["step_time"] / baseline
                )

    def test_every_combo_has_a_cell(self, small):
        combos = {
            (c["policy"], c["admission"], c["governor"])
            for c in small["cells"]
        }
        assert len(combos) == 2 * len(DEFAULT_ADMISSIONS)

    def test_cells_carry_admission_counters(self, small):
        for cell in small["cells"]:
            if cell["failure"] is None:
                assert "admission.admitted" in cell["admission_counters"]

    def test_leaderboard_is_ranked_and_sorted(self, small):
        board = small["leaderboard"]
        assert [e["rank"] for e in board] == list(range(1, len(board) + 1))
        slowdowns = [e["mean_slowdown"] for e in board]
        assert slowdowns == sorted(slowdowns)

    def test_json_is_byte_stable_across_reruns(self, small):
        rerun = run_tournament(
            models=("dcgan",),
            policies=("sentinel", "ial"),
            governors=(False,),
            fast_fraction=0.2,
        )
        assert tournament_json(rerun) == tournament_json(small)

    def test_json_round_trips(self, small):
        assert json.loads(tournament_json(small)) == small

    def test_format_leaderboard_lists_every_entry(self, small):
        text = format_leaderboard(small)
        assert "tournament leaderboard" in text
        for entry in small["leaderboard"]:
            assert entry["admission"] in text


class TestPooledDeterminism:
    def test_workers_byte_identical(self, small):
        pooled = run_tournament(
            models=("dcgan",),
            policies=("sentinel", "ial"),
            governors=(False,),
            fast_fraction=0.2,
            workers=3,
        )
        assert tournament_json(pooled) == tournament_json(small)


class TestEnumeration:
    def test_baselines_first_then_grid_in_serial_order(self):
        specs = _enumerate_cells(
            ("dcgan", "lstm"), ("sentinel",), ("always", "feedback"),
            (False, True), 0.2, OPTANE_HM, None,
        )
        assert [(s.model, s.policy) for s in specs[:2]] == [
            ("dcgan", "fast-only"),
            ("lstm", "fast-only"),
        ]
        # Then models, policies, admissions, governors, innermost last.
        assert [
            (s.model, s.scenario.admission, s.scenario.pressure is not None)
            for s in specs[2:]
        ] == [
            (model, admission, governor)
            for model in ("dcgan", "lstm")
            for admission in ("always", "feedback")
            for governor in (False, True)
        ]
        assert all(s.scenario.admission is None for s in specs[:2])
        assert all(s.scenario.fast_fraction is None for s in specs[:2])

    def test_admission_args_reach_only_their_controller(self):
        specs = _enumerate_cells(
            ("dcgan",), ("sentinel",), ("always", "feedback"), (False,),
            0.2, OPTANE_HM, {"feedback": {"stall_target": 0.02}},
        )
        by_admission = {s.scenario.admission: s.scenario for s in specs[1:]}
        assert by_admission["feedback"].admission_args == {"stall_target": 0.02}
        assert by_admission["always"].admission_args is None


class TestValidation:
    def test_empty_axis_raises(self):
        with pytest.raises(ValueError):
            run_tournament(models=())

    def test_zero_workers_raises(self):
        with pytest.raises(ValueError):
            run_tournament(models=("dcgan",), workers=0)

    def test_non_bool_governor_raises(self):
        with pytest.raises(ValueError):
            run_tournament(models=("dcgan",), governors=("on",))


class TestFeedbackWins:
    def test_feedback_cuts_stall_share_under_constrained_fast(self):
        # The acceptance cell: at fast_fraction=0.1 the always-admit run
        # spends a visible share of each resnet32 step stalled on
        # migration; the feedback controller's stall-share throttle must
        # beat it, not merely tie.
        result = run_tournament(
            models=("resnet32",),
            policies=("sentinel",),
            admissions=("always", "feedback"),
            governors=(False,),
            fast_fraction=0.1,
        )
        by_admission = {
            cell["admission"]: cell
            for cell in result["cells"]
            if cell["failure"] is None
        }
        always = by_admission["always"]
        feedback = by_admission["feedback"]
        assert always["stall_share"] > 0.0
        assert feedback["stall_share"] < always["stall_share"]
        # Less admitted traffic is *how* it wins, not a side effect.
        assert feedback["migrated_bytes"] < always["migrated_bytes"]


class TestExperimentWorkers:
    """The remaining serial experiments ride the shared pool helper."""

    def test_fig5_workers_byte_identical(self):
        from repro.harness.experiments import fig5_interval_sweep

        serial = fig5_interval_sweep(model="dcgan", lengths=(1, 2, 3))
        pooled = fig5_interval_sweep(model="dcgan", lengths=(1, 2, 3), workers=2)
        assert pooled == serial

    def test_table4_workers_byte_identical(self):
        from repro.harness.experiments import table4_migrated

        serial = table4_migrated(models=("dcgan",))
        pooled = table4_migrated(models=("dcgan",), workers=2)
        assert pooled == serial
