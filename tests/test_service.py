"""The verification service: sessions, result cache, scheduler, API, CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import FluxError
from repro.core.pipeline import FunctionResult, VerificationResult
from repro.obs import ObsContext, use_obs
from repro.service import (
    VerifyJob,
    VerifySession,
    verify_job,
    verify_jobs,
    verify_source,
)
from repro.service.cache import ResultCache
from repro.service.cli import main as cli_main
from repro.smt import AnswerCache
from repro.smt.result import SatResult, SolverAnswer


INC = """
#[flux::sig(fn(i32[@x]) -> i32{v: v > x})]
fn inc(x: i32) -> i32 { x + 1 }
"""

INC2 = """
#[flux::sig(fn(i32[@x]) -> i32{v: v > x})]
fn inc2(x: i32) -> i32 { inc(inc(x)) }
"""

SUM = """
#[flux::sig(fn(usize[@n]) -> usize[n])]
fn fill_len(n: usize) -> usize {
    let mut v = RVec::new();
    let mut i = 0;
    while i < n {
        v.push(i);
        i += 1;
    }
    v.len()
}
"""

BAD = """
#[flux::sig(fn(i32[@x]) -> i32[x])]
fn bad(x: i32) -> i32 { x + 1 }
"""


# ---------------------------------------------------------------------------
# The SMT answer cache (satellite: LRU instead of stop-inserting)
# ---------------------------------------------------------------------------


def _answer() -> SolverAnswer:
    return SolverAnswer(result=SatResult.UNSAT)


def _queries(registry) -> int:
    """SMT checks recorded in ``registry``, one-shot plus incremental."""
    return registry.value("smt.queries.oneshot") + registry.value("smt.queries.incremental")


def _cache_traffic(registry):
    """``(cache.hits, cache.misses)`` recorded in ``registry``."""
    return registry.value("cache.hits"), registry.value("cache.misses")


class TestAnswerCache:
    def test_hit_and_miss_counts(self):
        cache = AnswerCache(limit=4)
        assert cache.get("a") is None
        cache.put("a", _answer())
        assert cache.get("a") is not None
        assert cache.hits == 1 and cache.misses == 1

    def test_eviction_is_lru_not_stop_inserting(self):
        cache = AnswerCache(limit=2)
        cache.put("a", _answer())
        cache.put("b", _answer())
        cache.get("a")  # "a" is now most recently used
        cache.put("c", _answer())  # evicts "b", the LRU entry
        assert cache.get("a") is not None
        assert cache.get("c") is not None
        assert cache.get("b") is None
        assert len(cache) == 2

    def test_contexts_isolate_caches(self):
        first, second = VerifySession(), VerifySession()
        verify_source(INC, session=first)
        assert _queries(first.metrics) > 0
        assert len(first.smt.cache) > 0
        assert _queries(second.metrics) == 0
        assert len(second.smt.cache) == 0


# ---------------------------------------------------------------------------
# VerificationResult lookups and duplicate detection (pipeline satellites)
# ---------------------------------------------------------------------------


class TestVerificationResult:
    def test_function_lookup(self):
        result = VerificationResult()
        result.add(FunctionResult(name="f", ok=True))
        result.add(FunctionResult(name="g", ok=False))
        assert result.function("g").ok is False
        with pytest.raises(KeyError):
            result.function("missing")

    def test_function_lookup_after_direct_mutation(self):
        result = VerificationResult()
        result.functions.append(FunctionResult(name="f", ok=True))
        assert result.function("f").ok is True

    def test_function_lookup_after_same_length_replacement(self):
        result = VerificationResult()
        result.add(FunctionResult(name="f", ok=True))
        result.add(FunctionResult(name="g", ok=True))
        result.functions[0] = FunctionResult(name="h", ok=False)
        assert result.function("h").ok is False
        with pytest.raises(KeyError):
            result.function("f")

    def test_duplicate_function_names_rejected(self):
        with pytest.raises(FluxError, match="duplicate function.*inc"):
            verify_source(INC, extra_sources=[INC])

    def test_bodyless_declaration_plus_definition_is_not_a_duplicate(self):
        declaration = """
        #[flux::sig(fn(i32[@x]) -> i32{v: v > x})]
        fn inc(x: i32) -> i32;
        """
        result = verify_source(INC2, extra_sources=[declaration, INC])
        assert result.ok
        # First match wins on the duplicate name.
        assert result.function("inc").trusted is True
        # Same through the service, in either order: the scheduler must pick
        # the bodied definition, not the declaration that shadows it.
        for sources in ([declaration, INC], [INC, declaration]):
            report = verify_job(
                VerifyJob(source=INC2, extra_sources=tuple(sources)),
                VerifySession(),
            )
            assert report.error is None and report.ok

    def test_service_preserves_core_exception_types(self):
        from repro.lang import ParseError

        with pytest.raises(ParseError):
            verify_source("fn broken(", session=VerifySession())

    def test_non_ascii_digit_ends_in_a_structured_error(self):
        from repro.lang import LexError

        source = "fn f() -> i32 { let x = ²; x }"
        report = verify_job(VerifyJob(source=source, name="digit"), VerifySession())
        assert not report.ok
        assert report.error == "unexpected character '²' at line 1, column 25"
        assert report.to_dict()["error"] == report.error
        with pytest.raises(LexError):
            verify_source(source, session=VerifySession())

    def test_deep_call_chains_do_not_overflow_the_scheduler(self):
        depth = 1200
        parts = [
            """
            #[flux::sig(fn(i32[@x]) -> i32{v: v > x})]
            fn f0(x: i32) -> i32 { x + 1 }
            """
        ]
        for i in range(1, depth):
            parts.append(
                f"""
                #[flux::sig(fn(i32[@x]) -> i32{{v: v > x}})]
                fn f{i}(x: i32) -> i32 {{ f{i - 1}(x) + 1 }}
                """
            )
        # Callers first, so the scheduler has to chase the chain down.
        source = "\n".join(reversed(parts))
        report = verify_job(VerifyJob(source=source), VerifySession())
        assert report.error is None
        assert len(report.functions) == depth
        assert report.ok

    def test_duplicate_reported_in_service_job(self):
        report = verify_job(
            VerifyJob(source=INC, extra_sources=(INC,)), VerifySession()
        )
        assert not report.ok
        assert "duplicate" in report.error


# ---------------------------------------------------------------------------
# Result cache: hit / miss / invalidation
# ---------------------------------------------------------------------------


class TestResultCache:
    def test_cold_then_warm(self):
        session = VerifySession()
        cold = verify_source(INC + INC2 + SUM, session=session)
        assert cold.ok
        assert _cache_traffic(session.metrics) == (0, 3)
        queries_after_cold = _queries(session.metrics)

        warm = verify_source(INC + INC2 + SUM, session=session)
        assert warm.ok
        assert _cache_traffic(session.metrics) == (3, 3), "warm run must be served from cache"
        assert _queries(session.metrics) == queries_after_cold, "no SMT work on warm run"
        assert [fn.name for fn in warm.functions] == [fn.name for fn in cold.functions]

    def test_editing_a_body_only_reverifies_that_function(self):
        session = VerifySession()
        verify_source(INC + INC2 + SUM, session=session)
        # New body for inc, same signature: inc2 still depends only on the
        # (unchanged) signature, so only inc itself re-verifies.
        edited_inc = """
        #[flux::sig(fn(i32[@x]) -> i32{v: v > x})]
        fn inc(x: i32) -> i32 { x + 2 }
        """
        report = verify_job(
            VerifyJob(source=edited_inc + INC2 + SUM), session
        )
        assert report.ok
        assert report.cache_hits == 2  # inc2 and fill_len
        assert report.cache_misses == 1  # the edited inc
        cached = {fn.name: fn.cached for fn in report.functions}
        assert cached == {"inc": False, "inc2": True, "fill_len": True}

    def test_editing_a_signature_reverifies_dependents(self):
        session = VerifySession()
        verify_source(INC + INC2 + SUM, session=session)
        # Stronger signature for inc: inc's callers must be re-checked too;
        # the unrelated fill_len stays cached.
        edited_inc = """
        #[flux::sig(fn(i32[@x]) -> i32{v: v == x + 1})]
        fn inc(x: i32) -> i32 { x + 1 }
        """
        report = verify_job(
            VerifyJob(source=edited_inc + INC2 + SUM), session
        )
        assert report.ok
        cached = {fn.name: fn.cached for fn in report.functions}
        assert cached == {"inc": False, "inc2": False, "fill_len": True}

    def test_shuffling_unrelated_code_keeps_cache_valid(self):
        session = VerifySession()
        verify_source(INC + SUM, session=session)
        report = verify_job(VerifyJob(source=SUM + INC), session)
        assert report.cache_hits == 2 and report.cache_misses == 0

    def test_failing_results_are_cached_too(self):
        session = VerifySession()
        first = verify_source(BAD, session=session)
        assert not first.ok
        second = verify_source(BAD, session=session)
        assert not second.ok
        assert _cache_traffic(session.metrics) == (1, 1)
        assert [str(d) for d in second.diagnostics] == [
            str(d) for d in first.diagnostics
        ]

    def test_no_cache_disables_reuse(self):
        session = VerifySession(use_cache=False)
        verify_source(INC, session=session)
        verify_source(INC, session=session)
        assert _cache_traffic(session.metrics) == (0, 0)

    def test_disk_persistence_across_sessions(self, tmp_path):
        cache_dir = str(tmp_path / "flux-cache")
        first = VerifySession(cache_dir=cache_dir)
        verify_source(INC + INC2, session=first)
        assert _cache_traffic(first.metrics) == (0, 2)

        fresh = VerifySession(cache_dir=cache_dir)
        result = verify_source(INC + INC2, session=fresh)
        assert result.ok
        assert _cache_traffic(fresh.metrics) == (2, 0)

    def test_non_numeric_metric_entry_is_a_miss(self, tmp_path):
        cache_dir = str(tmp_path / "flux-cache")
        session = VerifySession(cache_dir=cache_dir)
        verify_source(INC, session=session)
        (entry,) = [name for name in os.listdir(cache_dir) if name.endswith(".json")]
        path = os.path.join(cache_dir, entry)
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["metrics"] = {"fixpoint.smt_queries": "3"}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        obs = ObsContext.create()
        with use_obs(obs):
            assert ResultCache(cache_dir=cache_dir).get(entry[: -len(".json")]) is None
        assert _cache_traffic(obs.registry) == (0, 1)

    def test_editing_adt_reached_only_via_callee_signature_invalidates(self):
        # ``use_mk`` never names S itself — it only calls ``mk() -> S`` — but
        # S's refined field definition still shapes its obligations, so
        # editing S must invalidate ``use_mk``'s cached verdict.
        def program(field_type):
            return f"""
            #[flux::refined_by(n: int)]
            struct S {{
                #[flux::field({field_type})]
                val: i32,
            }}

            #[flux::sig(fn() -> S[3])]
            fn mk() -> S {{ S {{ val: 3 }} }}

            #[flux::sig(fn() -> i32[3])]
            fn use_mk() -> i32 {{
                let s = mk();
                s.val
            }}
            """

        session = VerifySession()
        first = verify_source(program("i32[n]"), session=session)
        assert first.ok
        # Weaken the field: val is now only known to be >= n, so ``use_mk``
        # can no longer return exactly i32[3].  A stale cache would keep
        # serving the old "ok" verdict.
        second = verify_source(program("i32{v: v >= n}"), session=session)
        use_mk = second.function("use_mk")
        assert not use_mk.ok, "stale cached verdict served after editing struct S"

    def test_trusted_functions_bypass_the_cache(self):
        trusted = """
        #[flux::trusted]
        #[flux::sig(fn(i32[@x]) -> i32[x + 1])]
        fn magic(x: i32) -> i32 { x + 1 }
        """
        session = VerifySession()
        report = verify_job(VerifyJob(source=trusted + INC), session)
        assert report.ok
        statuses = {fn.name: fn.status for fn in report.functions}
        assert statuses == {"magic": "trusted", "inc": "ok"}
        assert report.cache_misses == 1  # only inc touches the cache


# ---------------------------------------------------------------------------
# Scheduler: parallel mode equals serial mode
# ---------------------------------------------------------------------------


class TestScheduler:
    PROGRAM = INC + INC2 + SUM + BAD

    def test_parallel_diagnostics_match_serial(self):
        serial = verify_source(
            self.PROGRAM, session=VerifySession(jobs=1, use_cache=False)
        )
        parallel = verify_source(
            self.PROGRAM, session=VerifySession(jobs=2, use_cache=False)
        )
        assert [fn.name for fn in parallel.functions] == [
            fn.name for fn in serial.functions
        ]
        assert [(fn.name, fn.ok, fn.trusted) for fn in parallel.functions] == [
            (fn.name, fn.ok, fn.trusted) for fn in serial.functions
        ]
        assert [
            (d.function, d.tag, d.message) for d in parallel.diagnostics
        ] == [(d.function, d.tag, d.message) for d in serial.diagnostics]

    def test_parallel_populates_cache_and_session_stats(self):
        session = VerifySession(jobs=2)
        verify_source(self.PROGRAM, session=session)
        assert _queries(session.metrics) > 0  # worker deltas merged back
        warm = verify_source(self.PROGRAM, session=session)
        assert _cache_traffic(session.metrics) == (4, 4)
        assert not warm.ok  # BAD stays rejected from cache


# ---------------------------------------------------------------------------
# Batch API
# ---------------------------------------------------------------------------


class TestBatchApi:
    def test_jobs_share_one_cache(self):
        report = verify_jobs(
            [VerifyJob(source=INC, name="a"), VerifyJob(source=INC + INC2, name="b")]
        )
        assert report.ok
        by_name = {job.name: job for job in report.jobs}
        assert by_name["a"].cache_misses == 1
        # Job b re-uses a's result for inc and only checks inc2.
        assert by_name["b"].cache_hits == 1 and by_name["b"].cache_misses == 1
        assert report.cache_hits == 1 and report.cache_misses == 2
        assert report.smt["queries"] > 0

    def test_report_round_trips_through_json(self):
        report = verify_jobs([VerifyJob(source=BAD, name="bad")])
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["ok"] is False
        (job,) = payload["jobs"]
        (fn,) = job["functions"]
        assert fn["name"] == "bad" and fn["status"] == "error"
        assert fn["diagnostics"] and "refinement error" in fn["diagnostics"][0]


# ---------------------------------------------------------------------------
# CLI (python -m repro)
# ---------------------------------------------------------------------------


class TestCli:
    def _write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_json_report_golden(self, tmp_path, capsys):
        prog = self._write(tmp_path, "prog.rs", INC + INC2)
        exit_code = cli_main([prog])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        # Golden structure: stable keys and values (timings vary).
        assert payload["ok"] is True
        assert payload["cache_hits"] == 0 and payload["cache_misses"] == 2
        (job,) = payload["jobs"]
        assert job["name"] == "prog.rs" and job["ok"] is True
        assert [fn["name"] for fn in job["functions"]] == ["inc", "inc2"]
        assert all(
            fn["status"] == "ok" and fn["cached"] is False and fn["diagnostics"] == []
            for fn in job["functions"]
        )
        assert payload["smt"]["queries"] >= 4

    def test_failure_sets_exit_code(self, tmp_path, capsys):
        prog = self._write(tmp_path, "bad.rs", BAD)
        exit_code = cli_main([prog])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 1
        assert payload["ok"] is False

    def test_cache_dir_warms_across_invocations(self, tmp_path, capsys):
        prog = self._write(tmp_path, "prog.rs", INC + INC2)
        cache_dir = str(tmp_path / "cache")
        assert cli_main(["--cache-dir", cache_dir, prog]) == 0
        capsys.readouterr()
        assert cli_main(["--cache-dir", cache_dir, prog]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cache_hits"] == 2 and payload["cache_misses"] == 0

    def test_only_and_lib_flags(self, tmp_path, capsys):
        lib = self._write(tmp_path, "lib.rs", INC)
        prog = self._write(tmp_path, "prog.rs", INC2)
        exit_code = cli_main(["--lib", lib, "--only", "inc2", prog])
        payload = json.loads(capsys.readouterr().out)
        assert exit_code == 0
        (job,) = payload["jobs"]
        assert [fn["name"] for fn in job["functions"]] == ["inc2"]

    def test_summary_output(self, tmp_path, capsys):
        prog = self._write(tmp_path, "prog.rs", INC)
        exit_code = cli_main(["--summary", prog])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "prog.rs: ok" in out and "inc" in out

    def test_jobs_flag_matches_serial(self, tmp_path, capsys):
        prog = self._write(tmp_path, "prog.rs", INC + INC2 + BAD)
        assert cli_main(["--no-cache", prog]) == 1
        serial = json.loads(capsys.readouterr().out)
        assert cli_main(["--no-cache", "--jobs", "2", prog]) == 1
        parallel = json.loads(capsys.readouterr().out)
        strip = lambda payload: [
            {
                k: (
                    {m: n for m, n in v.items() if not m.endswith("_seconds")}
                    if k == "metrics"
                    else v
                )
                for k, v in fn.items()
                if k != "time"
            }
            for job in payload["jobs"]
            for fn in job["functions"]
        ]
        assert strip(serial) == strip(parallel)


# ---------------------------------------------------------------------------
# Input nested deeper than the stack: a structured report, never a traceback
# ---------------------------------------------------------------------------

_SRC = str(Path(__file__).resolve().parent.parent / "src")

#: (source, boundary): each input exhausts the stack in a different pass —
#: the spec parser, the body parser, the simplifier, MIR lowering and the
#: dependency walk.  ``job`` inputs fail before any function is verified.
_DEEP_INPUTS = {
    "spec-parens": (
        "#[flux::sig(fn(i32[@x]) -> i32{v: " + "(" * 100 + "v > x" + ")" * 100 + "})]\n"
        "fn f(x: i32) -> i32 { x + 1 }\n",
        "job",
    ),
    "body-parens": (
        "#[flux::sig(fn(i32[@x]) -> i32[x])]\n"
        "fn f(x: i32) -> i32 { " + "(" * 120 + "x" + ")" * 120 + " }\n",
        "job",
    ),
    "spec-sum": (
        "#[flux::sig(fn(i32[@x]) -> i32{v: " + " + ".join(["v"] * 600) + " >= x})]\n"
        "fn f(x: i32) -> i32 { x }\n",
        "function",
    ),
    "body-sum": (
        "#[flux::sig(fn(i32) -> i32)]\nfn f(x: i32) -> i32 { " + " + ".join(["x"] * 600) + " }\n",
        "function",
    ),
    "body-sum-2000": (
        "#[flux::sig(fn(i32) -> i32)]\nfn f(x: i32) -> i32 { " + " + ".join(["x"] * 2000) + " }\n",
        "job",
    ),
}


@pytest.mark.parametrize("name", sorted(_DEEP_INPUTS))
def test_deep_input_gives_structured_report(tmp_path, name):
    # A fresh interpreter each time: the recursion limit this process runs
    # under depends on what it verified before.
    source, boundary = _DEEP_INPUTS[name]
    path = tmp_path / "deep.rs"
    path.write_text(source)
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "--no-cache", str(path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": _SRC},
        timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    (job,) = json.loads(proc.stdout)["jobs"]
    if boundary == "job":
        assert job["error"] == "input nests too deeply to verify"
        assert job["functions"] == []
    else:
        assert "error" not in job
        (fn,) = job["functions"]
        assert fn["status"] == "error"
        assert [failure["tag"] for failure in fn["failures"]] == ["resource-exhausted"]


def test_fault_verdict_is_not_rendered_as_a_refinement_error(tmp_path):
    # The 600-term body costs ``f`` a resource-exhausted verdict: an
    # execution fault, which refutes no obligation of the program.
    path = tmp_path / "deep.rs"
    path.write_text(_DEEP_INPUTS["body-sum"][0])

    def run(*flags: str) -> str:
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "--no-cache", *flags, str(path)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": _SRC},
            timeout=120,
        )
        assert proc.returncode == 1, proc.stderr
        return proc.stdout

    (fn,) = json.loads(run())["jobs"][0]["functions"]
    assert fn["diagnostics"] == [
        "f: execution fault (resource-exhausted): input nests too deeply to verify"
    ]
    assert fn["failures"] == [
        {
            "function": "f",
            "tag": "resource-exhausted",
            "message": "input nests too deeply to verify",
        }
    ]
    explained = run("--explain")
    assert explained.splitlines()[0] == (
        "error[fault]: `resource-exhausted` while verifying `f`: input nests too deeply to verify"
    )
    assert "cannot prove" not in explained and "refinement error" not in explained


# ---------------------------------------------------------------------------
# Bench integration: run_flux reports cache hits when given a session
# ---------------------------------------------------------------------------


def test_bench_run_flux_with_session_reports_cache_stats():
    from repro.bench.suite import all_benchmarks

    case = next(c for c in all_benchmarks() if c.name == "rmat")
    session = VerifySession()
    cold = case.run_flux(session=session)
    warm = case.run_flux(session=session)
    assert cold.cache_misses > 0 and cold.cache_hits == 0
    assert warm.cache_hits == cold.cache_misses and warm.cache_misses == 0
    assert warm.verified == cold.verified
