"""Outside-in tracing of the dicke package's public functions.

`Tracer.install` wraps each function in TARGETS and patches the wrapper
onto every name that refers to it: the defining module (or class), the
package namespace, and the modules that imported it (`cli`,
`entanglement`, `tables`, ...).  Each call records a span in memory with
its thread id, its parent span in the same thread, its self time (duration
minus the time of its child spans) and, for some functions, work counts.
`uninstall` restores every name.  Spans inside the package are a later
change; these wrappers see only calls between the package's functions.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import sys
import threading
from collections import defaultdict
from statistics import median
from time import perf_counter


def _basis_sizes(args, result) -> dict:
    return {"vectors": len(result)}


def _expansion_sizes(args, result) -> dict:
    return {
        "terms": len(result.terms),
        "zeros": sum(1 for _, a in result.terms if a == 0.0),
    }


def _walk_sizes(skip_level: int):
    """Contributions (moves tried) and distinct output vectors of one
    lowering (skip_level=-1) or raising (skip_level=0) application."""

    def sizes(args, result) -> dict:
        terms = args[0].terms
        occs = terms.keys() if isinstance(terms, dict) else (occ for occ, _ in terms)
        moves = 0
        for occ in occs:
            moves += len(occ) - 1 - (occ.count(0) - (occ[skip_level] == 0))
        return {"contributions": moves, "outputs": len(result.terms)}

    return sizes


# (module, attribute, span name, work counts taken from args and result)
TARGETS = (
    ("dicke.basis", "enumerate_basis", "basis.enumerate_basis", _basis_sizes),
    ("dicke.coefficients", "dicke_expansion", "coefficients.dicke_expansion", _expansion_sizes),
    ("dicke.coefficients", "DickeExpansion.amplitude", "coefficients.amplitude", None),
    ("dicke.ladder", "oracle_expansion", "ladder.oracle_expansion", None),
    ("dicke.ladder", "apply_lowering", "ladder.apply_lowering", _walk_sizes(-1)),
    ("dicke.ladder", "apply_raising", "ladder.apply_raising", _walk_sizes(0)),
    ("dicke.ladder", "oracle_squares_exact", "ladder.oracle_squares_exact", None),
    ("dicke.tables", "verify_tables", "tables.verify_tables", None),
    ("dicke.antisym", "enumerate_all_antisym", "antisym.enumerate_all_antisym", None),
    ("dicke.entanglement", "dicke_two_particle_rdm", "entanglement.dicke_two_particle_rdm", None),
    ("dicke.entanglement", "two_body_elements", "entanglement.two_body_elements", None),
    ("dicke.entanglement", "negativity", "entanglement.negativity", None),
    ("dicke.entanglement", "partial_transpose", "entanglement.partial_transpose", None),
    ("dicke.linalg", "symmetric_eigenvalues", "linalg.symmetric_eigenvalues", None),
    ("dicke.linalg", "jacobi_eigh", "linalg.jacobi_eigh", None),
    ("dicke.svg", "write_chart", "svg.write_chart", None),
    ("dicke.cli", "main", "cli.main", None),
)

_MARK = "__perfbench_traced__"


class Tracer:
    """Spans of one process; `case` labels the spans of the current case."""

    def __init__(self, case: str = "") -> None:
        self.case = case
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, sizes):
        tracer = self

        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            parent = stack[-1] if stack else None
            span = {
                "name": name,
                "case": tracer.case,
                "pid": os.getpid(),
                "tid": threading.get_ident(),
                "id": next(tracer._ids),
                "parent": parent["id"] if parent else None,
                "child_s": 0.0,
            }
            stack.append(span)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                if sizes is not None and result is not None:
                    span.update(sizes(args, result))
                span["start"], span["end"] = start, end
                span["self_s"] = end - start - span.pop("child_s")
                with tracer._lock:
                    tracer.spans.append(span)
                if parent is not None:
                    # the parent's self time excludes this span and the
                    # bookkeeping above
                    parent["child_s"] += perf_counter() - start

        traced.__wrapped__ = fn
        setattr(traced, _MARK, True)
        return traced

    def install(self) -> None:
        modules = [importlib.import_module(m) for m, *_ in TARGETS]
        for module, (_, attr, name, sizes) in zip(modules, TARGETS):
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, fn_name)
            wrapper = self._wrap(name, original, sizes)
            holders = {id(owner): owner}
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").split(".")[0] == "dicke":
                    holders.setdefault(id(mod), mod)
            for holder in holders.values():
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> bool:
        """Restore every patched name; True when no wrapper is left."""
        while self._patches:
            holder, key, original = self._patches.pop()
            setattr(holder, key, original)
        return not any(_is_traced(v) for v in _dicke_attributes())


def _is_traced(value) -> bool:
    return getattr(value, _MARK, False) is True


def _dicke_attributes():
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").split(".")[0] == "dicke":
            for value in list(vars(mod).values()):
                yield value
                if isinstance(value, type):
                    yield from list(vars(value).values())


def write_jsonl(spans: list[dict], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")


SELF_TIMES = (
    "basis.enumerate_basis",
    "coefficients.dicke_expansion",
    "coefficients.amplitude",
    "ladder.oracle_expansion",
    "ladder.apply_lowering",
    "ladder.apply_raising",
    "ladder.oracle_squares_exact",
    "tables.verify_tables",
    "antisym.enumerate_all_antisym",
    "entanglement.dicke_two_particle_rdm",
    "entanglement.two_body_elements",
    "entanglement.negativity",
    "linalg.jacobi_eigh",
    "svg.write_chart",
)
CALLS = (
    "basis.enumerate_basis",
    "coefficients.dicke_expansion",
    "coefficients.amplitude",
    "ladder.apply_lowering",
    "entanglement.dicke_two_particle_rdm",
    "entanglement.negativity",
    "entanglement.partial_transpose",
    "linalg.symmetric_eigenvalues",
)


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one pass.  A ratio whose base is 0 (its layer
    did not run) reads 0."""
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    sizes: dict[str, int] = defaultdict(int)
    cli_cases = set()
    for span in spans:
        name = span["name"]
        calls[name] += 1
        self_s[name] += span["self_s"]
        for key in ("vectors", "terms", "zeros", "contributions", "outputs"):
            sizes[key] += span.get(key, 0)
        if name == "cli.main":
            cli_cases.add((span["pid"], span["case"]))
    cli_wall = sum((s["end"] - s["start"] for s in spans if s["name"] == "cli.main"), 0.0)
    cli_busy = sum(s["self_s"] for s in spans if (s["pid"], s["case"]) in cli_cases)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for name in CALLS:
        out[f"{name}.calls"] = calls[name]
    for name in SELF_TIMES:
        out[f"{name}.self_s"] = self_s[name]
    out["basis.vectors"] = sizes["vectors"]
    out["coefficients.terms"] = sizes["terms"]
    out["coefficients.zero_amplitudes"] = sizes["zeros"]
    out["ladder.merge_ratio"] = ratio(sizes["outputs"], sizes["contributions"])
    out["linalg.solves_per_negativity"] = ratio(
        calls["linalg.symmetric_eigenvalues"], calls["entanglement.negativity"]
    )
    out["cli.main.wall_s"] = cli_wall
    out["cli.thread_busy_over_wall"] = ratio(cli_busy, cli_wall)
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {key: median(p[key] for p in per_pass) for key in per_pass[0]}
