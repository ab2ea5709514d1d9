"""Span tracing of the cubesign layers, installed from outside the package.

Each wrapper replaces a function at the place its caller looks it up.
``scheme`` binds ``evaluate_batch`` and ``sample_tuple_chunks`` by name when
it is imported, so those are wrapped as ``cubesign.scheme.evaluate_batch``;
``scheme`` calls ``hashing.message_poly`` through the module, so that one is
wrapped on ``cubesign.hashing``.  Nothing under ``src/`` is edited.

Spans live in memory as ``(name, start, end, parent, op)`` and are written
out once, when the run ends.  A wrapped name that no longer exists is left
out and its metrics are reported as absent.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from pathlib import Path

# Span name -> places where callers look the function up.
TARGETS = {
    "counting.evaluate": ("cubesign.scheme:evaluate_batch", "cubesign.counting:evaluate_batch"),
    "counting.sample": ("cubesign.scheme:sample_tuple_chunks", "cubesign.counting:sample_tuple_chunks"),
    "counting.exact": ("cubesign.counting:exact_value_counts",),
    "scheme.verify": ("cubesign.scheme:verify", "cubesign.scheme:verify_poly"),
    "scheme.parse": (
        "cubesign.scheme:public_key_from_text",
        "cubesign.scheme:signature_from_text",
        "cubesign.scheme:private_key_from_text",
    ),
    "scheme.serialize": (
        "cubesign.scheme:public_key_to_text",
        "cubesign.scheme:signature_to_text",
        "cubesign.scheme:private_key_to_text",
    ),
    "scheme.keygen": ("cubesign.scheme:keygen",),
    "scheme.sign": ("cubesign.scheme:sign", "cubesign.scheme:sign_poly"),
    "poly.substitute": ("cubesign.poly:Poly.substitute",),
    "automorphisms.sample": (
        "cubesign.scheme:sample_automorphism",
        "cubesign.automorphisms:sample_automorphism",
    ),
    "automorphisms.extend": ("cubesign.scheme:extend_for_signing",),
    "hashing.message_poly": ("cubesign.hashing:message_poly",),
}


def _poly_terms(polys) -> int:
    return sum(len(p.terms) for p in polys)


def _parsed_terms(out) -> int:
    if hasattr(out, "base"):  # PublicKey
        return _poly_terms((*out.base, *out.mapped))
    if hasattr(out, "poly"):  # Signature
        return len(out.poly.terms)
    return _poly_terms(out[1].aut.images)  # (params, PrivateKey)


# Span name -> function adding the call's work to the counters.
COUNTERS = {
    "counting.evaluate": lambda c, args, out: c.update(
        evaluate_calls=1, term_points=len(args[0].terms) * len(args[1])
    ),
    "counting.sample": lambda c, args, out: c.update(sample_points=args[1]),
    "counting.exact": lambda c, args, out: c.update(exact_points=1 << args[0].nvars),
    "scheme.parse": lambda c, args, out: c.update(
        parse_terms=_parsed_terms(out), parse_bytes=len(args[-1])
    ),
    "scheme.serialize": lambda c, args, out: c.update(serialize_bytes=len(out)),
    "poly.substitute": lambda c, args, out: c.update(
        substitute_calls=1, substitute_out_terms=len(out.terms)
    ),
}


def _resolve(target: str):
    """(owner, attribute) for "module:Attr.attr", or None if it is gone."""
    import importlib

    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


class Tracer:
    """Records spans and work counts for the wrapped layer functions."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.enabled = True
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for name, targets in TARGETS.items():
            for target in targets:
                found = _resolve(target)
                if found is None:
                    self.missing.append(target)
                    continue
                owner, attr = found
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                setattr(owner, attr, self._wrap(name, original, COUNTERS.get(name)))
                self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, name, fn, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if counter is not None:
                counter(self.counts, args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Inclusive and self seconds per span name.

        Inclusive time counts only spans with no ancestor of the same name,
        so ``verify`` calling ``verify_poly`` is not counted twice.  Self
        time is a span's duration minus the durations of its children.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        inclusive: dict[str, float] = Counter()
        own: dict[str, float] = Counter()
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            own[name] += end - start - child_time[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                inclusive[name] += end - start
        return inclusive, own


def wrapper_cost_s(reps: int = 20000) -> float:
    """Seconds one traced call adds over a plain call, measured here."""
    tracer = Tracer()

    def noop(*args):
        return None

    traced = tracer._wrap("noop", noop, None)
    best = []
    for fn in (noop, traced) * 3:
        start = time.perf_counter()
        for _ in range(reps):
            fn(1)
        best.append(time.perf_counter() - start)
    plain = min(best[0::2])
    wrapped = min(best[1::2])
    return max(wrapped - plain, 0.0) / reps


def layer_metrics(tracer: Tracer, ops: int, op_seconds: float) -> dict[str, tuple[float, str]]:
    """Per-operation layer metrics; names whose wrapper is missing are left out."""
    inclusive, own = tracer.totals()
    c = tracer.counts
    per_op = max(ops, 1)
    present = {name for name, targets in TARGETS.items()
               if any(t not in tracer.missing for t in targets)}
    metrics: dict[str, tuple[float, str]] = {}

    def put(span: str, key: str, value: float, unit: str) -> None:
        if span in present:
            metrics[key] = (value, unit)

    for span, key in (
        ("counting.evaluate", "counting.evaluate_s"),
        ("counting.sample", "counting.sample_s"),
        ("counting.exact", "counting.exact_s"),
        ("scheme.verify", "scheme.verify_s"),
        ("scheme.parse", "scheme.parse_s"),
        ("scheme.serialize", "scheme.serialize_s"),
        ("scheme.keygen", "scheme.keygen_s"),
        ("scheme.sign", "scheme.sign_s"),
        ("poly.substitute", "poly.substitute_s"),
        ("automorphisms.sample", "automorphisms.sample_s"),
        ("automorphisms.extend", "automorphisms.extend_s"),
        ("hashing.message_poly", "hashing.message_poly_s"),
    ):
        put(span, key, inclusive[span] / per_op, "s/op")
    put("scheme.verify", "scheme.verify_self_s", own["scheme.verify"] / per_op, "s/op")
    for span, key, unit in (
        ("counting.evaluate", "evaluate_calls", "calls/op"),
        ("counting.evaluate", "term_points", "term-points/op"),
        ("counting.sample", "sample_points", "points/op"),
        ("counting.exact", "exact_points", "points/op"),
        ("scheme.parse", "parse_terms", "terms/op"),
        ("scheme.parse", "parse_bytes", "bytes/op"),
        ("scheme.serialize", "serialize_bytes", "bytes/op"),
        ("poly.substitute", "substitute_calls", "calls/op"),
        ("poly.substitute", "substitute_out_terms", "terms/op"),
    ):
        put(span, f"{span.split('.')[0]}.{key}", c[key] / per_op, unit)
    evaluate_s = inclusive["counting.evaluate"]
    put("counting.evaluate", "counting.term_points_per_s",
        c["term_points"] / evaluate_s if evaluate_s else 0.0, "1/s")
    overhead = len(tracer.spans) * wrapper_cost_s()
    metrics["trace.overhead_pct"] = (100.0 * overhead / op_seconds if op_seconds else 0.0, "%")
    metrics["trace.spans"] = (len(tracer.spans) / per_op, "spans/op")
    return metrics
