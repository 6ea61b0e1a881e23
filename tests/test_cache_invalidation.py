"""Cache-key invalidation properties (ROADMAP cache item, fuzz satellite).

The content-addressed result cache must invalidate *exactly* what an edit
can affect:

* a **body** edit re-keys only the edited function — callers depend on the
  callee's interface, not its proof;
* an **interface** edit (signature/spec) re-keys the function and every
  direct caller, and nothing else;
* an **ADT** edit re-keys every function whose obligations can mention the
  type;
* a **schema bump** re-keys everything, so stale on-disk entries from an
  older encoder are never replayed.
"""

import repro.service.cache as cache_mod
from repro.core.genv import GlobalEnv
from repro.core.pipeline import FunctionResult
from repro.lang.parser import parse_program
from repro.service.cache import KeyTables, ResultCache, function_key
from repro.service.api import VerifyJob, verify_job
from repro.service.session import VerifySession


BASE = """
#[flux::sig(fn ( x : i32 [ @ x ] ) -> i32 [ x + 1 ])]
fn leaf(x: i32) -> i32 {
    x + 1
}

#[flux::sig(fn ( x : i32 [ @ x ] ) -> i32 [ x + 2 ])]
fn caller(x: i32) -> i32 {
    leaf(x) + 1
}

#[flux::sig(fn ( x : i32 [ @ x ] ) -> i32 [ x ])]
fn bystander(x: i32) -> i32 {
    x
}
"""

BODY_EDIT = BASE.replace("    x + 1\n}", "    1 + x\n}", 1)
INTERFACE_EDIT = BASE.replace("i32 [ x + 1 ]", "i32 { v : v >= x + 1 }", 1)


def _keys(source):
    program = parse_program(source)
    genv = GlobalEnv()
    genv.register_program(program)
    tables = KeyTables(program, genv)
    return {
        fn.name: function_key(program, fn, genv, tables=tables)
        for fn in program.functions
    }


class TestEditLocality:
    def test_keys_are_deterministic_and_distinct(self):
        first, second = _keys(BASE), _keys(BASE)
        assert first == second
        assert len(set(first.values())) == len(first)

    def test_body_edit_rekeys_only_the_edited_function(self):
        before, after = _keys(BASE), _keys(BODY_EDIT)
        assert before["leaf"] != after["leaf"]
        assert before["caller"] == after["caller"]
        assert before["bystander"] == after["bystander"]

    def test_interface_edit_rekeys_exactly_the_dependents(self):
        before, after = _keys(BASE), _keys(INTERFACE_EDIT)
        assert before["leaf"] != after["leaf"]
        assert before["caller"] != after["caller"], (
            "caller depends on leaf's spec and must be re-verified"
        )
        assert before["bystander"] == after["bystander"]

    def test_generated_crates_have_stable_distinct_keys(self):
        from repro.fuzz.generator import crate_seed, generate_crate

        for index in range(3):
            crate = generate_crate(crate_seed(21, index), "small")
            first, second = _keys(crate.source), _keys(crate.source)
            assert first == second
            assert len(set(first.values())) == len(first)


STRUCT_BASE = """
#[flux::refined_by(n: int)]
struct Counter {
    #[flux::field(i32[n])]
    value: i32,
}

#[flux::sig(fn ( c : Counter [ @ n ] ) -> i32 [ n ])]
fn read(c: Counter) -> i32 {
    c.value
}

#[flux::sig(fn ( x : i32 [ @ x ] ) -> i32 [ x ])]
fn unrelated(x: i32) -> i32 {
    x
}
"""


class TestAdtEdits:
    def test_struct_edit_rekeys_users_not_bystanders(self):
        edited = STRUCT_BASE.replace("value: i32", "amount: i32").replace(
            "c.value", "c.amount"
        )
        before, after = _keys(STRUCT_BASE), _keys(edited)
        assert before["read"] != after["read"]
        assert before["unrelated"] == after["unrelated"]


class TestSchemaVersion:
    def test_bump_rekeys_every_function(self, monkeypatch):
        before = _keys(BASE)
        monkeypatch.setattr(
            cache_mod, "SCHEMA_VERSION", cache_mod.SCHEMA_VERSION + 1
        )
        after = _keys(BASE)
        for name in before:
            assert before[name] != after[name]

    def test_stale_disk_entries_are_not_replayed(self, monkeypatch, tmp_path):
        (key,) = [_keys(BASE)["leaf"]]
        cache = ResultCache(cache_dir=str(tmp_path))
        cache.put(key, FunctionResult(name="leaf", ok=True))
        fresh = ResultCache(cache_dir=str(tmp_path))
        assert fresh.get(key) is not None

        monkeypatch.setattr(
            cache_mod, "SCHEMA_VERSION", cache_mod.SCHEMA_VERSION + 1
        )
        bumped_key = _keys(BASE)["leaf"]
        assert bumped_key != key
        stale_aware = ResultCache(cache_dir=str(tmp_path))
        assert stale_aware.get(bumped_key) is None

    def test_session_warm_cache_discarded_after_bump(self, monkeypatch, tmp_path):
        def run():
            session = VerifySession(cache_dir=str(tmp_path), use_cache=True)
            with session.activate():
                return verify_job(VerifyJob(source=BASE, name="warmth"), session)

        cold = run()
        assert cold.cache_hits == 0 and cold.cache_misses > 0
        warm = run()
        assert warm.cache_misses == 0 and warm.cache_hits == cold.cache_misses

        monkeypatch.setattr(
            cache_mod, "SCHEMA_VERSION", cache_mod.SCHEMA_VERSION + 1
        )
        rekeyed = run()
        assert rekeyed.cache_hits == 0, (
            "entries written under the old schema must not satisfy new keys"
        )
        for fn in rekeyed.functions:
            assert fn.status == "ok"


FAILING = BASE + """
#[flux::sig(fn ( x : i32 [ @ x ] ) -> i32 [ x ])]
fn wrong(x: i32) -> i32 {
    x + 1
}
"""

#: Two ways to push ``wrong`` one line down without editing it: a line in
#: an earlier function's body, and a comment line right above it.
SHIFTED = {
    "earlier body": FAILING.replace("    leaf(x) + 1\n", "    let pad = 0;\n    leaf(x) + 1\n", 1),
    "line above": FAILING.replace("\n#[flux::sig(fn ( x : i32 [ @ x ] ) -> i32 [ x ])]", "\n// moved\n#[flux::sig(fn ( x : i32 [ @ x ] ) -> i32 [ x ])]", 1),
}


class TestCachedSpans:
    """A cached verdict reports the lines the function has now."""

    @staticmethod
    def _wrong(report):
        return next(fn for fn in report.functions if fn.name == "wrong")

    def _check_moved(self, first, second, cold):
        before, after = self._wrong(first), self._wrong(second)
        assert after.cached and after.status == "error"
        for old, new in zip(before.failures, after.failures):
            for key in ("span", "sig_span"):
                assert new[key]["line"] == old[key]["line"] + 1
                assert new[key]["end_line"] == old[key]["end_line"] + 1
                assert new[key]["column"] == old[key]["column"]
        assert after.failures == self._wrong(cold).failures
        assert after.diagnostics == self._wrong(cold).diagnostics

    def test_warm_session(self):
        for source in SHIFTED.values():
            session = VerifySession()
            first = verify_job(VerifyJob(source=FAILING), session)
            second = verify_job(VerifyJob(source=source), session)
            cold = verify_job(VerifyJob(source=source), VerifySession(use_cache=False))
            self._check_moved(first, second, cold)

    def test_on_disk_cache(self, tmp_path):
        for name, source in SHIFTED.items():
            cache_dir = str(tmp_path / name.replace(" ", "_"))
            first = verify_job(VerifyJob(source=FAILING), VerifySession(cache_dir=cache_dir))
            # A new session reads the entry from disk, with no memo of the
            # first job's items.
            second = verify_job(VerifyJob(source=source), VerifySession(cache_dir=cache_dir))
            cold = verify_job(VerifyJob(source=source), VerifySession(use_cache=False))
            self._check_moved(first, second, cold)
