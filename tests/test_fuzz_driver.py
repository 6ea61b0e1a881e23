"""The differential campaign driver, including the injected-bug self-test.

The harness is only trustworthy if it demonstrably *catches* bugs, so the
centrepiece here plants a real soundness bug in the online theory solver
(``REPRO_INJECT_THEORY_BUG=strict-bounds`` un-tightens strict upper
bounds) and requires the campaign to find it, shrink the repro to a
handful of functions, and persist a replayable corpus entry.
"""

import pytest

from repro.fuzz.driver import FuzzConfig, run_fuzz
from repro.fuzz.generator import crate_seed, generate_crate
from repro.fuzz.oracles import ORACLES, compare_verdicts, resolve_oracles, run_oracle
from repro.obs import ObsContext, use_obs


def _campaign(config):
    obs = ObsContext.create()
    with use_obs(obs):
        report = run_fuzz(config)
    return report, obs.registry.snapshot()


def _counter(snapshot, name):
    entry = snapshot.get(name)
    return entry["value"] if entry else 0


class TestCleanCampaign:
    def test_small_campaign_has_no_divergences(self):
        config = FuzzConfig(
            seed=0,
            budget=4,
            profile="tiny",
            oracles=tuple(resolve_oracles(["baseline", "naive", "offline"])),
        )
        report, snapshot = _campaign(config)
        assert report.ok, [d.detail for d in report.divergences]
        assert _counter(snapshot, "fuzz.crates") == 4
        assert _counter(snapshot, "fuzz.oracle_runs") == 12
        crates = [generate_crate(crate_seed(0, index), "tiny") for index in range(4)]
        generated = sum(len(crate.functions) for crate in crates)
        assert _counter(snapshot, "fuzz.functions") == generated > 0

    def test_budget_seconds_stops_early(self):
        config = FuzzConfig(
            seed=0,
            budget=10_000,
            budget_seconds=0.0,
            profile="tiny",
            oracles=tuple(resolve_oracles(["baseline", "naive"])),
        )
        _, snapshot = _campaign(config)
        assert _counter(snapshot, "fuzz.crates") == 0


class TestOracleComparison:
    def test_same_crate_verdicts_compare_equal(self):
        crate = generate_crate(crate_seed(1, 0), "tiny")
        a = run_oracle(crate.source, "a", ORACLES["baseline"])
        b = run_oracle(crate.source, "b", ORACLES["naive"])
        assert compare_verdicts(a, b) is None

    def test_status_difference_is_reported(self):
        from repro.fuzz.oracles import CrateVerdict, Verdict

        left = CrateVerdict(
            oracle="a", engine="online", functions=(Verdict("f", "ok", ()),)
        )
        right = CrateVerdict(
            oracle="b", engine="online", functions=(Verdict("f", "error", ("t",)),)
        )
        mismatch = compare_verdicts(left, right)
        assert mismatch is not None and "status" in mismatch

    def test_detail_difference_only_matters_same_engine(self):
        from repro.fuzz.oracles import CrateVerdict, Verdict

        left = CrateVerdict(
            oracle="a", engine="online",
            functions=(Verdict("f", "error", ("t",), ("model x=1",)),),
        )
        right_other_engine = CrateVerdict(
            oracle="b", engine="offline",
            functions=(Verdict("f", "error", ("t",), ("model x=2",)),),
        )
        right_same_engine = CrateVerdict(
            oracle="b", engine="online",
            functions=(Verdict("f", "error", ("t",), ("model x=2",)),),
        )
        assert compare_verdicts(left, right_other_engine) is None
        assert compare_verdicts(left, right_same_engine) is not None


class TestInjectedBugSelfTest:
    """Acceptance criterion: a planted solver bug must be caught and shrunk
    to at most 5 functions, fully automatically."""

    @pytest.fixture
    def _planted_bug(self, monkeypatch):
        monkeypatch.setenv("REPRO_INJECT_THEORY_BUG", "strict-bounds")

    def test_campaign_catches_and_minimizes(self, _planted_bug, tmp_path):
        corpus_dir = tmp_path / "corpus"
        config = FuzzConfig(
            seed=0,
            budget=20,
            profile="small",
            oracles=tuple(resolve_oracles(["baseline", "offline"])),
            corpus_dir=str(corpus_dir),
            stop_on_divergence=True,
        )
        report, snapshot = _campaign(config)
        assert not report.ok, "planted solver bug went undetected"
        verdicts = [d for d in report.divergences if d.kind == "verdict"]
        assert verdicts, [d.kind for d in report.divergences]
        finding = verdicts[0]
        assert finding.minimized is not None
        stats = finding.minimize_stats
        assert stats is not None
        assert stats.functions_after <= 5, (
            f"minimizer left {stats.functions_after} functions"
        )
        assert finding.corpus_id is not None
        assert (corpus_dir / f"{finding.corpus_id}.rs").exists()
        assert _counter(snapshot, "fuzz.divergences.verdict") >= 1
        assert _counter(snapshot, "fuzz.minimize.runs") >= 1
        assert _counter(snapshot, "fuzz.corpus.writes") >= 1

    def test_clean_run_finds_nothing_on_same_seeds(self):
        config = FuzzConfig(
            seed=0,
            budget=5,
            profile="small",
            oracles=tuple(resolve_oracles(["baseline", "offline"])),
        )
        report, _ = _campaign(config)
        assert report.ok, [d.detail for d in report.divergences]
