"""A job report's JSON text, and the report rows a warm session reuses.

:meth:`~repro.service.api.JobReport.to_json` splices each row's own
encoding into the report's text, and a warm session keeps the rows of the
functions its last job served from the result cache
(:class:`~repro.service.api.CachedRow`), reusing a row, text included,
when the cache returns the same result moved by the same lines.  These
tests pin that the reuse is invisible: over warm edit sequences the text
is exactly ``json.dumps(report.to_dict())``, and every row is the row a
cold run reports; and that a one-function body edit builds and encodes
that function's row only.
"""

import dataclasses
import json

import pytest

from repro.service import VerifyJob, VerifySession, verify_job
from repro.service import api

HELPERS = """
#[flux::sig(fn(i32[@x]) -> i32[x + 1])]
fn inc(x: i32) -> i32 {
    x + 1
}

#[flux::sig(fn(i32[@x]) -> i32{v: v > x})]
fn bump(x: i32) -> i32 {
    inc(x)
}

#[flux::trusted]
#[flux::sig(fn(i32[@x]) -> i32[x + 2])]
fn magic(x: i32) -> i32 {
    x + 2
}
"""

BROKEN = """
#[flux::sig(fn(i32[@x]) -> i32[x])]
fn wrong(x: i32) -> i32 {
    x + 1
}
"""

FIXED = BROKEN.replace("i32[x])]", "i32[x + 1])]")

TAIL = """
#[flux::sig(fn(i32[@x]) -> i32{v: v > x + 1})]
fn twice(x: i32) -> i32 {
    bump(bump(x))
}
"""


def _source(wrong: str = BROKEN, above: int = 0, padded: bool = False) -> str:
    """The program: ``above`` comment lines right above ``wrong`` and, when
    ``padded``, a ``let`` line in ``bump``'s body."""
    helpers = HELPERS
    if padded:
        helpers = HELPERS.replace("    inc(x)\n", "    let pad = 0;\n    inc(x)\n")
    return helpers + "".join(f"// moved {k}\n" for k in range(above)) + wrong + TAIL


#: A warm edit sequence: lines inserted above the failing function (its
#: diagnostic spans move), a body edit elsewhere, the failing function
#: fixed and broken again, a repeat, and a parse error in between.
EDITS = [
    VerifyJob(source=_source()),
    VerifyJob(source=_source(above=1)),
    VerifyJob(source=_source(above=2)),
    VerifyJob(source=_source(above=2, padded=True)),
    VerifyJob(source=_source(FIXED, above=2, padded=True)),
    VerifyJob(source=_source(above=2, padded=True)),
    VerifyJob(source=_source(above=3, padded=True)),
    VerifyJob(source=_source(above=3, padded=True), only=("wrong", "magic")),
    VerifyJob(source=_source(above=3, padded=True), only=("twice",)),
    VerifyJob(source=_source(above=3, padded=True).replace("fn twice(", "fn twice((")),
    VerifyJob(source=_source(above=4, padded=True)),
    VerifyJob(source=_source(above=4, padded=True)),
]


def _rows_without_cache_traffic(report):
    skipped = ("cached", "time", "metrics")
    return [
        {key: value for key, value in row.to_dict().items() if key not in skipped}
        for row in report.functions
    ]


@pytest.mark.parametrize("use_cache", [True, False], ids=["warm", "no-cache"])
def test_report_text_is_the_encoded_dict_over_an_edit_sequence(use_cache):
    session = VerifySession(use_cache=use_cache)
    reused, errors = 0, []
    previous = []
    for job in EDITS:
        report = verify_job(job, session)
        assert report.to_json() == json.dumps(report.to_dict())
        cold = verify_job(job, VerifySession(use_cache=False))
        assert (report.error, report.ok) == (cold.error, cold.ok)
        assert _rows_without_cache_traffic(report) == _rows_without_cache_traffic(cold)
        reused += sum(1 for row in report.functions if any(row is old for old in previous))
        previous = report.functions
        errors.append(report.error is not None)
    assert errors == [job is EDITS[9] for job in EDITS]
    if use_cache:
        assert reused > 0
    else:
        assert reused == 0
        assert session.memo.rows == {}


def test_moved_diagnostics_rebuild_only_the_moved_row():
    # A line above ``wrong`` moves its diagnostics; the rows of the
    # functions above it, and of ``twice``, which has none, stay.
    session = VerifySession()
    verify_job(EDITS[0], session)
    first = verify_job(EDITS[0], session)  # every verifiable function cached
    first.to_json()
    moved = verify_job(EDITS[1], session)
    by_name = {row.name: row for row in first.functions}
    for row in moved.functions:
        if row.name == "wrong":
            assert row is not by_name["wrong"]
            before = by_name["wrong"].failures[0]["span"]["line"]
            assert row.failures[0]["span"]["line"] == before + 1
        elif row.status != "trusted":
            assert row is by_name[row.name]
    assert moved.to_json() == json.dumps(moved.to_dict())


def test_a_body_edit_builds_and_encodes_only_the_changed_row(monkeypatch):
    session = VerifySession()
    verify_job(VerifyJob(source=_source()), session)
    warm = verify_job(VerifyJob(source=_source()), session)
    warm.to_json()

    built, encoded = [], []
    report_row, to_dict = api._report_row, api.FunctionReport.to_dict

    def counting_row(name, result, cached):
        built.append(name)
        return report_row(name, result, cached)

    def counting_to_dict(row):
        encoded.append(row.name)
        return to_dict(row)

    monkeypatch.setattr(api, "_report_row", counting_row)
    monkeypatch.setattr(api.FunctionReport, "to_dict", counting_to_dict)
    # ``bump``'s body changes on its line, so no later function moves.
    source = _source().replace("    inc(x)\n", "    let pad = 0; inc(x)\n")
    edited = verify_job(VerifyJob(source=source), session)
    text = edited.to_json()
    # ``magic`` is trusted, so its row is not a cached function's and is
    # built each job.
    assert sorted(built) == ["bump", "magic"]
    assert sorted(encoded) == ["bump", "magic"]
    monkeypatch.undo()
    assert text == json.dumps(edited.to_dict())
    assert edited.cache_misses == 1


def test_a_changed_cache_entry_rebuilds_its_row():
    # A row is reused only while the cache returns the very result it was
    # built from.
    session = VerifySession()
    verify_job(EDITS[0], session)
    warm = verify_job(EDITS[0], session)
    key, kept = next(
        (key, kept) for key, kept in session.memo.rows.items() if kept.row.name == "inc"
    )
    changed = dataclasses.replace(kept.cached, num_constraints=kept.cached.num_constraints + 1)
    session.cache.put(key, changed)
    again = verify_job(EDITS[0], session)
    (row,) = [row for row in again.functions if row.name == "inc"]
    (old,) = [row for row in warm.functions if row.name == "inc"]
    assert row.num_constraints == old.num_constraints + 1
    assert again.to_json() == json.dumps(again.to_dict())
