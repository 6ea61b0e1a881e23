"""The warm edit path: item runs, their reuse, and what is derived from them.

A :class:`~repro.service.VerifySession` keeps the last job's top-level
items keyed by their exact text, parses each new or changed item run
alone, and reuses an unchanged item's signature, its dependencies and
the fingerprints its cache key hashes.  These tests pin that the reuse is
invisible:

* parsing run by run gives the whole source's program, its spans moved by
  each run's line offset, and exactly the whole source's errors;
* a warm session reports what a cold one reports on the same source;
* method resolution through the per-environment index finds exactly what
  the old scan over every signature name found, and dependencies and key
  fingerprints carry over only while what they read is unchanged;
* verifying the same source twice interns no new term.
"""

import dataclasses
import json
import random
import re
import sys
from pathlib import Path

import pytest

from repro.bench.programs import benchmark_programs
from repro.core.genv import GlobalEnv
from repro.fuzz.generator import crate_seed, generate_crate
from repro.lang import LexError, ParseError, ast, parse_program, split_items
from repro.lang.span import Span
from repro.logic import intern_stats
from repro.service import VerifyJob, VerifySession, verify_jobs, verify_source
from repro.service import api
from repro.service.cache import KeyTables, function_key
from repro.service.session import ItemMemo

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from perfbench.inputs import EditSequence  # noqa: E402

TESTS = Path(__file__).resolve().parent


def _small_sources():
    sources = [program.flux_source for program in benchmark_programs()]
    sources += [path.read_text() for path in sorted((TESTS / "golden").glob("*.rs"))]
    sources += [path.read_text() for path in sorted((TESTS / "corpus").glob("*.rs"))]
    return sources


def _stress_crate():
    return generate_crate(crate_seed(0, 0), "stress")


# -- run by run equals whole --------------------------------------------------


def _spans(node, found):
    """Every span and ``FnDef.line`` under ``node``, in a fixed order."""
    if isinstance(node, Span):
        found.append(node)
    elif isinstance(node, (tuple, list)):
        for child in node:
            _spans(child, found)
    elif dataclasses.is_dataclass(node):
        if isinstance(node, ast.FnDef):
            found.append(node.line)
        for item in dataclasses.fields(node):
            _spans(getattr(node, item.name), found)
    return found


def _moved_spans(found, lines):
    return [item + lines if isinstance(item, int) else item.moved(lines) for item in found]


def _outcome(parse):
    try:
        return parse()
    except (LexError, ParseError) as error:
        return f"{type(error).__name__}: {error}"


def _assert_runs_equal_whole(source, memo):
    whole = _outcome(lambda: parse_program(source))
    chunked = _outcome(lambda: api.parse_program(source, memo))
    if isinstance(whole, str) or isinstance(chunked, str):
        assert chunked == whole
        return
    program, offsets = chunked
    assert len(offsets) == len(program.functions)
    moved = ast.Program(
        tuple(dataclasses.replace(fn, line=fn.line + lines) for fn, lines in zip(program.functions, offsets)),
        program.structs,
        program.enums,
    )
    assert moved == whole
    # Each function's spans move by its run's offset; structs and enums
    # carry spans only in their attributes, which reuse never reports.
    for fn, lines, expected in zip(program.functions, offsets, whole.functions):
        assert _moved_spans(_spans(fn, []), lines) == _spans(expected, [])


def test_split_items_joins_back_and_cuts_between_items():
    for source in _small_sources():
        pieces = split_items(source)
        assert "".join(text for _, text in pieces) == source
        lines = 0
        for offset, text in pieces:
            assert offset == lines
            lines += text.count("\n")
    crate = _stress_crate()
    assert len(split_items(crate.source)) == len(crate.functions)


def test_runs_parse_like_the_whole_source():
    sources = _small_sources() + [_stress_crate().source]
    for source in sources:
        _assert_runs_equal_whole(source, ItemMemo())


def test_edited_sources_parse_like_the_whole_source():
    functions = _stress_crate().functions[:400]
    edits = EditSequence(functions, 1)
    memo = ItemMemo()
    _assert_runs_equal_whole("\n".join(fn.source for fn in functions), memo)
    for _ in range(30):
        _assert_runs_equal_whole(edits.next().source, memo)


#: Line-level mutations: what an editor buffer looks like mid-edit.
_MUTATIONS = ("delete", "duplicate", "swap", "blank", "{", "}", "/*", '"', "use foo", "fn")


def _mutate(lines, rng):
    lines = list(lines)
    index = rng.randrange(len(lines))
    kind = rng.choice(_MUTATIONS)
    if kind == "delete":
        del lines[index]
    elif kind == "duplicate":
        lines.insert(index, lines[index])
    elif kind == "swap" and index + 1 < len(lines):
        lines[index], lines[index + 1] = lines[index + 1], lines[index]
    elif kind == "blank":
        lines.insert(index, "\n")
    else:
        lines.insert(index, kind + "\n")
    return lines


def test_mutated_sources_parse_like_the_whole_source():
    rng = random.Random(0)
    sources = _small_sources()
    for round_ in range(1000):
        source = sources[round_ % len(sources)]
        memo = ItemMemo()
        # Warm the memo with the unmutated source, as an editor session would.
        api.parse_program(source, memo)
        lines = source.splitlines(keepends=True)
        for _ in range(rng.randrange(1, 4)):
            lines = _mutate(lines, rng)
        _assert_runs_equal_whole("".join(lines), memo)


def test_extra_sources_parse_like_their_whole_sources():
    library, main = _small_sources()[0], _small_sources()[1]
    memo = ItemMemo()
    for _ in range(2):  # cold, then with every item reused
        program, offsets = api.parse_program(main, memo, (library,))
        whole = [parse_program(library), parse_program(main)]
        expected = whole[0].functions + whole[1].functions
        assert len(offsets) == len(expected)
        moved = tuple(dataclasses.replace(fn, line=fn.line + lines) for fn, lines in zip(program.functions, offsets))
        assert moved == expected
        assert program.structs == whole[0].structs + whole[1].structs


def test_a_failing_run_reports_the_whole_source_error():
    source = "fn a() {\n}\nfn b( {\n}\nfn c() {}\n"
    with pytest.raises(ParseError) as chunked:
        api.parse_program(source, ItemMemo())
    with pytest.raises(ParseError) as whole:
        parse_program(source)
    assert str(chunked.value) == str(whole.value)


def test_unchanged_runs_are_not_parsed_again():
    source = "fn a() -> i32 {\n    1\n}\n\nfn b() -> i32 {\n    2\n}\n"
    memo = ItemMemo()
    first, _ = api.parse_program(source, memo)
    edited = source.replace("    2", "    3")
    second, offsets = api.parse_program("// note\n" + edited, memo)
    assert second.functions[0] is not first.functions[0]  # its run gained the comment
    assert second.functions[1] is not first.functions[1]
    third, offsets = api.parse_program("// note\n" + edited + "\nfn c() {}\n", memo)
    assert third.functions[0] is second.functions[0]
    assert third.functions[1] is second.functions[1]
    assert offsets == [0, 4, 8]


# -- warm equals cold ----------------------------------------------------------

_FRESH = re.compile(r"%f?\d+")


def _comparable(job):
    """Every function's verdict, diagnostics and failures, spans included,
    with fresh-name indices blanked in counterexample raw names."""
    assert job.error is None, job.error
    rows = []
    for fn in job.functions:
        row = {key: value for key, value in fn.to_dict().items() if key not in ("time", "metrics", "cached")}
        rows.append(json.loads(_FRESH.sub("%_", json.dumps(row))))
    return rows


def test_warm_session_reports_equal_cold_runs():
    functions = _stress_crate().functions[:60]
    warm = VerifySession()
    verify_jobs([VerifyJob(source="\n".join(fn.source for fn in functions))], warm)
    edits = EditSequence(functions, 7)
    kinds = set()
    for _ in range(10):
        edit = edits.next()
        kinds.add(edit.kind)
        job = VerifyJob(source=edit.source)
        warm_job = verify_jobs([job], warm).jobs[0]
        cold_job = verify_jobs([job], VerifySession(use_cache=False)).jobs[0]
        assert _comparable(warm_job) == _comparable(cold_job)
        assert any(fn.status == "error" for fn in warm_job.functions)
    assert kinds == {"body", "spec"}


def test_second_verification_interns_no_new_term():
    source = "\n".join(fn.source for fn in _stress_crate().functions[:40])
    session = VerifySession(use_cache=False)
    first = verify_source(source, session=session)
    before = intern_stats()["intern_table_size"]
    second = verify_source(source, session=session)
    assert intern_stats()["intern_table_size"] == before
    assert [fn.ok for fn in second.functions] == [fn.ok for fn in first.functions]


# -- dependencies ---------------------------------------------------------------


class _ScanEverySignature:
    """Stands in for the method index: the scan of every signature name
    that method resolution did before the index."""

    def __init__(self, signatures):
        self.signatures = signatures

    def get(self, method, default=()):
        return [name for name in self.signatures if name.endswith(f"::{method}")]


def test_method_index_resolves_like_the_scan():
    sources = [program.flux_source for program in benchmark_programs()]
    sources.append(_stress_crate().source)
    checked = 0
    for source in sources:
        program = parse_program(source)
        genv = GlobalEnv()
        genv.register_program(program)
        indexed = [genv.function_dependencies(fn) for fn in program.functions]
        scanning = GlobalEnv()
        scanning.register_program(program)
        scanning._by_method = _ScanEverySignature(scanning.signatures)
        scanned = [scanning.function_dependencies(fn) for fn in program.functions]
        assert indexed == scanned
        checked += len(indexed)
    assert checked > 1164


def test_registering_a_signature_drops_the_method_index():
    program = parse_program(
        "struct S { x: i32 }\nimpl S {\n    fn get(&self) -> i32 { 1 }\n}\n"
        "fn use_it(s: &S) -> i32 { s.get() }\n"
    )
    genv = GlobalEnv()
    genv.register_program(program)
    user = program.functions[-1]
    assert "S::get" in genv.function_dependencies(user)[0]
    genv.register_program(parse_program("struct T { y: i32 }\nimpl T {\n    fn get(&self) -> i32 { 2 }\n}\n"))
    assert "T::get" in genv.function_dependencies(user)[0]


def test_register_program_reuses_signatures_only_while_adts_are_the_same_objects():
    source = "struct S { x: i32 }\n#[flux::sig(fn(i32[@n]) -> i32[n])]\nfn id(n: i32) -> i32 { n }\n"
    program = parse_program(source)
    first = GlobalEnv()
    first.register_program(program)
    again = GlobalEnv()
    again.register_program(program, previous=first)
    assert again.signatures["id"] is first.signatures["id"]
    reparsed = GlobalEnv()
    reparsed.register_program(
        ast.Program(program.functions, parse_program(source).structs, ()), previous=first
    )
    assert reparsed.signatures["id"] is not first.signatures["id"]
    assert reparsed.signatures["id"] == first.signatures["id"]


def test_dependencies_carry_over_only_while_the_names_are_the_same():
    user_source = "fn use_it(s: &S) -> i32 { s.get() }\n"
    s_source = "struct S { x: i32 }\nimpl S {\n    fn get(&self) -> i32 { 1 }\n}\n"
    memo = ItemMemo()
    program, _ = api.parse_program(s_source + user_source, memo)
    first = GlobalEnv()
    first.register_program(program)
    user = program.functions[-1]
    assert "S::get" in first.function_dependencies(user)[0]
    assert "T::get" not in first.function_dependencies(user)[0]
    again = GlobalEnv()
    again.register_program(program, previous=first)
    assert again._dependencies[id(user)] == (user, first.function_dependencies(user))
    t_source = "impl S {\n    fn set(&self) -> i32 { 2 }\n}\nstruct T { y: i32 }\nimpl T {\n    fn get(&self) -> i32 { 3 }\n}\n"
    grown, _ = api.parse_program(s_source + user_source + t_source, memo)
    assert grown.functions[1] is user
    later = GlobalEnv()
    later.register_program(grown, previous=again)
    assert {"S::get", "T::get"} <= set(later.function_dependencies(user)[0])


# -- cache keys -----------------------------------------------------------------


def test_keys_from_lent_fingerprints_equal_fresh_keys():
    functions = _stress_crate().functions[:60]
    edits = EditSequence(functions, 7)
    memo = ItemMemo()
    previous = None
    sources = ["\n".join(fn.source for fn in functions)] + [edits.next().source for _ in range(12)]
    sources.append("struct S { x: i32 }\n" + sources[-1])
    for source in sources:
        program, _ = api.parse_program(source, memo)
        genv = GlobalEnv()
        genv.register_program(program)
        tables = KeyTables(program, genv, previous=previous)
        fresh = KeyTables(program, genv)
        for fn in program.functions:
            assert function_key(program, fn, genv, tables=tables) == function_key(program, fn, genv, tables=fresh)
        previous = tables
    # Only the definitions of the current program keep their fingerprints.
    live = {id(fn) for fn in program.functions}
    assert {ident for _, ident in previous._fingerprints} <= live
