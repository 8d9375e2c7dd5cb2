"""Stable content fingerprints for nets and workload features.

A cache entry must outlive the Python objects that produced it, so keys
cannot use ``id()``, ``hash()`` (salted per process for strings), or
``pickle`` (byte-level output varies across protocol/versions).  Instead we
build a *canonical text encoding* of the net structure and the workload
features, and hash it with SHA-256:

* **Nets** — every place (name, capacity) and transition (arcs, delay,
  guard, servers, priority, timeout) is rendered in sorted order.  Delay and
  guard callables are identified by their DSL source when the net came from
  ``.pnet`` text (the compiled expression's ``.src``), else by their
  compiled bytecode, constants, and closure values — so editing a formula
  *changes the fingerprint* and invalidates cached results.
* **Workload features** — plain data (numbers, strings, containers,
  dataclasses, enums, numpy arrays) is encoded recursively with explicit
  type tags, so ``1`` and ``1.0`` and ``True`` never collide.

Anything we cannot encode stably raises :class:`UncacheableError`; callers
(see :class:`repro.perf.cache.EvalCache`) treat that as "simulate, don't
cache" and count it, rather than guessing a key.
"""

from __future__ import annotations

import enum
import hashlib
from collections.abc import Callable
from dataclasses import fields, is_dataclass
from typing import Any

from repro.petri.net import PetriNet, Transition


class UncacheableError(TypeError):
    """A value has no stable content encoding; do not cache results for it."""


def _encode_dict(value: dict) -> str:
    items = sorted((encode(k), encode(v)) for k, v in value.items())
    return "d(" + ",".join(f"{k}={v}" for k, v in items) + ")"


#: Encoders for the common exact types, looked up by ``type(value)``.
#: Each returns exactly what the general chain in :func:`encode` would,
#: so keys match those written before this table existed; subclasses
#: (``IntEnum``, a ``list`` subclass, ...) take the chain.
_EXACT: dict[type, Callable[[Any], str]] = {
    type(None): lambda value: "N",
    bool: lambda value: "T" if value else "F",
    int: lambda value: f"i{value}",
    float: lambda value: f"f{value.hex()}",
    str: lambda value: f"s{len(value)}:{value}",
    bytes: lambda value: f"b{value.hex()}",
    list: lambda value: "l(" + ",".join(map(encode, value)) + ")",
    tuple: lambda value: "t(" + ",".join(map(encode, value)) + ")",
    dict: _encode_dict,
}


def encode(value: Any) -> str:
    """Canonical text encoding of a workload-feature value.

    Deterministic across processes and sessions; raises
    :class:`UncacheableError` for values with unstable identity.
    """
    exact = _EXACT.get(type(value))
    if exact is not None:
        return exact(value)
    # None and bool are covered by the table (bool cannot be subclassed).
    if isinstance(value, int):
        return f"i{value}"
    if isinstance(value, float):
        return f"f{value.hex()}"
    if isinstance(value, str):
        return f"s{len(value)}:{value}"
    if isinstance(value, bytes):
        return f"b{value.hex()}"
    if isinstance(value, enum.Enum):
        return f"e{type(value).__qualname__}.{value.name}"
    if isinstance(value, (list, tuple)):
        tag = "l" if isinstance(value, list) else "t"
        return tag + "(" + ",".join(encode(v) for v in value) + ")"
    if isinstance(value, (set, frozenset)):
        return "S(" + ",".join(sorted(encode(v) for v in value)) + ")"
    if isinstance(value, dict):
        return _encode_dict(value)
    if is_dataclass(value) and not isinstance(value, type):
        body = ",".join(
            f"{f.name}={encode(getattr(value, f.name))}" for f in fields(value)
        )
        return f"D{type(value).__qualname__}({body})"
    # numpy arrays and scalars, without importing numpy here.
    if hasattr(value, "tobytes") and hasattr(value, "dtype"):
        shape = getattr(value, "shape", ())
        return f"a{value.dtype}{shape}:{value.tobytes().hex()}"
    if callable(value):
        return callable_fingerprint(value)
    raise UncacheableError(
        f"cannot build a stable cache key for {type(value).__qualname__} value {value!r}"
    )


def callable_fingerprint(fn: Any) -> str:
    """Content identity for a guard/delay callable.

    DSL-compiled expressions carry their source (``fn.src``); plain Python
    functions are identified by bytecode + constants + names + closure
    values + defaults.  Builtins / C callables have no inspectable content
    and are rejected.
    """
    src = getattr(fn, "src", None)
    if isinstance(src, str):
        return f"src:{src}"
    code = getattr(fn, "__code__", None)
    if code is None:
        raise UncacheableError(
            f"callable {fn!r} has no source or code object to fingerprint"
        )
    parts = [
        code.co_code.hex(),
        ",".join(encode(c) if not callable(c) else callable_fingerprint(c)
                 for c in code.co_consts
                 if not isinstance(c, type(code))),
        ",".join(code.co_names),
        ",".join(code.co_varnames[: code.co_argcount]),
    ]
    # Nested function constants (comprehensions, inner lambdas): hash their
    # bytecode too, since co_consts skips raw code objects above.
    inner = [c for c in code.co_consts if isinstance(c, type(code))]
    parts.extend(c.co_code.hex() for c in inner)
    closure = getattr(fn, "__closure__", None)
    if closure:
        parts.append("|".join(encode(cell.cell_contents) for cell in closure))
    defaults = getattr(fn, "__defaults__", None)
    if defaults:
        parts.append(encode(defaults))
    return "code:" + ":".join(parts)


def _transition_lines(t: Transition) -> list[str]:
    """Canonical description of one transition.

    The *current* ``delay``/``guard`` objects are authoritative — the
    DSL's ``delay_src``/``guard_src`` attributes are ignored, since they
    go stale if a transition is mutated after parsing.  (DSL-compiled
    expression callables carry their own ``.src``, which
    :func:`callable_fingerprint` prefers, so ``.pnet`` nets still key on
    source text, not bytecode.)
    """
    delay = (
        callable_fingerprint(t.delay)
        if callable(t.delay)
        else f"const:{float(t.delay).hex()}"
    )
    guard = "none" if t.guard is None else callable_fingerprint(t.guard)
    timeout = (
        "none" if t.timeout is None else f"{float(t.timeout[0]).hex()}->{t.timeout[1]}"
    )
    return [
        f"transition {t.name}",
        "  in " + " ".join(f"{a.place}:{a.weight}" for a in t.inputs),
        "  out " + " ".join(f"{a.place}:{a.weight}" for a in t.outputs),
        f"  delay {delay}",
        f"  guard {guard}",
        # Transitions once took a custom produce hook; the line stays so
        # keys in persistent JSONL files written back then still hit.
        "  produce none",
        f"  servers {t.servers}",
        f"  priority {t.priority}",
        f"  timeout {timeout}",
    ]


def net_fingerprint(net: PetriNet) -> str:
    """SHA-256 hex digest of the net's performance-relevant content.

    Stable across processes; changes whenever any structural element or
    any delay/guard formula changes.  Simulation *state* (markings, busy
    counts, statistics) is deliberately excluded — the simulator resets it
    at the start of every run, so it cannot affect results.
    """
    lines = [f"net {net.name}"]
    for name in sorted(net.places):
        place = net.places[name]
        lines.append(f"place {name} capacity={place.capacity}")
    for name in sorted(net.transitions):
        lines.extend(_transition_lines(net.transitions[name]))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return digest


def workload_key(features: Any) -> str:
    """SHA-256 hex digest of canonical workload features.

    Raises :class:`UncacheableError` when the features have no stable
    encoding (opaque objects, C callables, ...).
    """
    return hashlib.sha256(encode(features).encode()).hexdigest()
