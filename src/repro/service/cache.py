"""Content-addressed per-function result cache.

The key for a function is a hash of

* the function's own AST (with source line numbers normalised away, so
  shuffling unrelated code does not invalidate it),
* the *interface* — attributes, generics, parameter/return types, but not the
  body — of every callee it can reach, and
* the full refined definition of every ADT it mentions, closed transitively
  (a struct whose field type names another refined struct pulls that one in
  too).

Because checking is modular (§4: callee *signatures* only), this is exactly
the information a function's verification result depends on.  Editing a
function's body re-verifies that function alone; editing its signature also
re-verifies its callers; everything else is served from cache.

Values are :class:`repro.core.FunctionResult` records whose diagnostic
spans count lines from the function's ``fn`` line (``FnDef.line`` is line
0; a ``#[flux::sig]`` above it has a negative line), so a function moved
around a file without being edited hits the cache and still reports where
it is now: :func:`repro.service.api.verify_job` adds the function's
current line.  With a ``cache_dir`` they persist as one JSON file per key
and survive across processes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import threading
from typing import Callable, Dict, FrozenSet, Iterable, Optional, Tuple

from repro import faults
from repro.core.errors import Diagnostic
from repro.core.genv import GlobalEnv
from repro.core.pipeline import FunctionResult, definition_map
from repro.lang import ast
from repro.obs import current_obs

# Bump when the verifier changes in a way that invalidates cached verdicts.
# 2: incremental SMT backend + worklist fixpoint scheduling (new statistics,
#    different query accounting).
# 3: counterexample-carrying diagnostics (spans + structured counterexamples
#    serialised per diagnostic).
# 4: online DPLL(T) engine + core-batched qualifier weakening (new theory
#    statistics, different query accounting).
# 5: per-function solver statistics folded into one ``metrics`` mapping
#    (the typed metrics registry is now the source of truth).
# 6: restart/deletion/phase-saving SAT core + structural Tseitin caching
#    (new SAT-core counters, different conflict/decision accounting).
# 7: restart, clause-deletion and learned-clause counters removed from
#    ``metrics``.
# 8: ``metrics`` is the function's registry counter delta, keyed by metric
#    name (``smt.*``, ``fixpoint.*``) instead of the ``smt_*`` fields.
# 9: diagnostic spans count lines from the function's ``fn`` line, and
#    fresh binder names inside a function are per function (``v%f3``).
SCHEMA_VERSION = 9

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _normalized_repr(node: object) -> str:
    """Deterministic content fingerprint of an AST dataclass tree.

    ``line`` numbers are provenance, not content — zero them so editing one
    function does not shift every later function's key.
    """
    if isinstance(node, ast.FnDef) and node.line != 0:
        node = dataclasses.replace(node, line=0)
    return repr(node)


def _interface_repr(fn: ast.FnDef) -> str:
    """A function's externally visible surface: everything but the body."""
    return repr((fn.name, fn.generics, fn.params, fn.ret, fn.attrs, fn.body is None))


def _adt_closure(names: Iterable[str], tables: "KeyTables") -> Tuple[str, ...]:
    """Close a set of ADT names over the ADT names their definitions mention."""
    closed: set = set()
    frontier = [name for name in names]
    while frontier:
        name = frontier.pop()
        if name in closed:
            continue
        closed.add(name)
        decl = tables.adt_decls.get(name)
        if decl is None:
            continue
        _, idents = tables.fingerprint(decl, repr)
        frontier.extend(idents & tables.known_adts - closed)
    return tuple(sorted(closed))


class KeyTables:
    """Per-program lookup tables shared across ``function_key`` calls.

    Building these is O(program); hoisting them out of the per-function key
    computation keeps ``verify_job`` linear in program size.  The tables
    also remember each definition's fingerprints (``repr`` texts) by
    identity: AST nodes are immutable, so ``previous``, the tables of an
    earlier version of the program, lends the fingerprints of every
    definition that is the same object in both, and an edit re-``repr``s
    only the definitions it changed.
    """

    def __init__(
        self, program: ast.Program, genv: GlobalEnv, previous: Optional["KeyTables"] = None
    ) -> None:
        self.fn_decls: Dict[str, ast.FnDef] = definition_map(program)
        self.adt_decls: Dict[str, object] = {s.name: s for s in program.structs}
        self.adt_decls.update({e.name: e for e in program.enums})
        self.known_adts = frozenset(self.adt_decls) | frozenset(genv.adts)
        #: ``(render, id(node)) -> (node, text, identifiers in text)``.
        self._fingerprints: Dict[Tuple[object, int], Tuple[object, str, FrozenSet[str]]] = {}
        if previous is not None:
            # An id names one live object, and both tables hold theirs.
            live = {id(node) for node in (*program.functions, *program.structs, *program.enums)}
            self._fingerprints = {
                key: entry for key, entry in previous._fingerprints.items() if key[1] in live
            }

    def fingerprint(self, node: object, render: Callable[[object], str]) -> Tuple[str, FrozenSet[str]]:
        """``render(node)`` and the identifiers in it, rendered once per node."""
        key = (render, id(node))
        entry = self._fingerprints.get(key)
        if entry is None:
            text = render(node)
            entry = self._fingerprints[key] = (node, text, frozenset(_IDENT.findall(text)))
        return entry[1], entry[2]


def function_key(
    program: ast.Program,
    fn: ast.FnDef,
    genv: GlobalEnv,
    deps: Optional[Tuple[Tuple[str, ...], Tuple[str, ...]]] = None,
    tables: Optional[KeyTables] = None,
) -> str:
    """The cache key of ``fn`` within ``program``: a sha256 hex digest.

    ``deps`` may carry a precomputed ``genv.function_dependencies(fn)`` and
    ``tables`` the per-program :class:`KeyTables`, so callers looping over a
    whole program do the O(program) work once.
    """
    if tables is None:
        tables = KeyTables(program, genv)
    fn_decls = tables.fn_decls
    adt_decls = tables.adt_decls
    known_adts = tables.known_adts

    callees, adts = deps if deps is not None else genv.function_dependencies(fn)
    adt_seeds = set(adts)
    parts = [f"schema={SCHEMA_VERSION}", tables.fingerprint(fn, _normalized_repr)[0]]
    for callee in callees:
        decl = fn_decls.get(callee)
        if decl is not None:
            interface, idents = tables.fingerprint(decl, _interface_repr)
            parts.append(f"fn {callee}:{interface}")
            # ADTs a callee's signature mentions reach this function's
            # obligations even when the function never names them itself
            # (e.g. calling ``mk() -> S``) — seed the closure with them.
            adt_seeds |= idents & known_adts
        else:
            # Built-in (RVec API, swap, ...): fixed by SCHEMA_VERSION.
            parts.append(f"builtin {callee}")
    for adt in _adt_closure(adt_seeds, tables) if adt_seeds else ():
        decl = adt_decls.get(adt)
        if decl is not None:
            parts.append(f"adt {adt}:{tables.fingerprint(decl, repr)[0]}")
        else:
            parts.append(f"builtin-adt {adt}")
    digest = hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()
    return digest


# -- (de)serialisation -------------------------------------------------------


def result_to_dict(result: FunctionResult) -> Dict[str, object]:
    return {
        "name": result.name,
        "ok": result.ok,
        "diagnostics": [d.to_dict() for d in result.diagnostics],
        "num_constraints": result.num_constraints,
        "num_kvars": result.num_kvars,
        "metrics": dict(result.metrics),
        "time": result.time,
        "trusted": result.trusted,
    }


def result_from_dict(payload: Dict[str, object]) -> FunctionResult:
    metrics = payload.get("metrics", {})
    if not isinstance(metrics, dict):
        raise TypeError("metrics payload must be a mapping")
    for value in metrics.values():
        # bool is an int subclass, but no counter holds one.
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError(f"metric value {value!r} is not a number")
    return FunctionResult(
        name=str(payload["name"]),
        ok=bool(payload["ok"]),
        diagnostics=[Diagnostic.from_dict(d) for d in payload.get("diagnostics", [])],
        num_constraints=int(payload.get("num_constraints", 0)),
        num_kvars=int(payload.get("num_kvars", 0)),
        metrics={str(key): value for key, value in metrics.items()},
        time=float(payload.get("time", 0.0)),
        trusted=bool(payload.get("trusted", False)),
    )


_TMP_SUFFIX = re.compile(r"\.tmp\.(\d+)\.\d+$")


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True  # exists but not ours (EPERM)
    return True


class ResultCache:
    """In-memory (and optionally on-disk) map from function key to result."""

    def __init__(self, cache_dir: Optional[str] = None, enabled: bool = True) -> None:
        self.cache_dir = cache_dir
        self.enabled = enabled
        self._entries: Dict[str, FunctionResult] = {}
        if cache_dir is not None:
            os.makedirs(cache_dir, exist_ok=True)
            self._sweep_stale_tmp()

    def _sweep_stale_tmp(self) -> None:
        """Remove ``{path}.tmp.{pid}.{tid}`` files whose writer died mid-put,
        counting them as ``cache.tmp_swept`` in the ambient registry.

        A writer killed between the tmp write and ``os.replace`` leaves the
        tmp file behind forever; any pid that is no longer alive cannot
        complete its rename, so its tmp files are garbage.  Live pids (a
        concurrent daemon worker over the same cache_dir) are left alone.
        """
        assert self.cache_dir is not None
        removed = 0
        try:
            entries = os.listdir(self.cache_dir)
        except OSError:
            return
        own_pid = os.getpid()
        for entry in entries:
            match = _TMP_SUFFIX.search(entry)
            if match is None:
                continue
            pid = int(match.group(1))
            if pid == own_pid or _pid_alive(pid):
                continue
            try:
                os.unlink(os.path.join(self.cache_dir, entry))
                removed += 1
            except OSError:
                continue
        if removed:
            current_obs().registry.counter(
                "cache.tmp_swept", help="orphaned cache tmp files removed at open"
            ).inc(removed)

    def __len__(self) -> int:
        return len(self._entries)

    def _path(self, key: str) -> str:
        assert self.cache_dir is not None
        return os.path.join(self.cache_dir, f"{key}.json")

    def get(self, key: str) -> Optional[FunctionResult]:
        if not self.enabled:
            return None
        result = self._entries.get(key)
        if result is None and self.cache_dir is not None:
            path = self._path(key)
            if os.path.exists(path):
                try:
                    with open(path, "r", encoding="utf-8") as handle:
                        result = result_from_dict(json.load(handle))
                    self._entries[key] = result
                except (OSError, ValueError, KeyError, TypeError):
                    result = None  # corrupt entry: treat as a miss
        if result is None:
            current_obs().registry.counter(
                "cache.misses", help="function-result cache misses"
            ).inc()
            return None
        current_obs().registry.counter(
            "cache.hits", help="function-result cache hits"
        ).inc()
        return result

    def put(self, key: str, result: FunctionResult) -> None:
        if not self.enabled:
            return
        current_obs().registry.counter(
            "cache.stores", help="function results written to the cache"
        ).inc()
        self._entries[key] = result
        if self.cache_dir is not None:
            path = self._path(key)
            # pid alone is not unique enough: a daemon's session pool runs
            # several sessions (threads) over one shared cache_dir.
            tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
            try:
                with open(tmp, "w", encoding="utf-8") as handle:
                    json.dump(result_to_dict(result), handle)
                # Chaos site: a crash here models a writer dying between
                # the tmp write and the atomic rename — exactly the window
                # the open-time sweep exists for.
                faults.inject("cache.write", key=result.name)
                os.replace(tmp, path)
            except (OSError, faults.InjectedCrash, MemoryError):
                pass  # a read-only cache dir degrades to in-memory
