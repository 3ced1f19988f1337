"""One table-driven structural checker for the ``repro.*/1`` documents.

Every artifact, section and record the package writes is validated
against a *spec table* kept beside its schema constant; this module is
the interpreter.  It imports nothing from ``repro``, so any layer may
use it.  A **rule** says what one value must be:

* ``None`` — anything, but present;
* a type (``str``, ``int``, ``list``, ``dict``) — an instance of it
  (``int`` refuses ``bool``);
* :data:`FINITE`, :data:`NONNEG`, :func:`number` — a finite number
  (inside a closed interval);
* :func:`opt` — the inner rule, unless the key is absent or ``None``;
* :func:`list_of` — a list whose items each satisfy a rule;
* a ``dict`` — an **object spec** with any of the keys ``what`` (the
  noun used when the root is not an object), ``schema`` / ``kind``
  (required tag values), ``fields`` (key -> rule), ``values`` (one rule
  for every value of a free-keyed mapping) and ``rules`` (callables
  ``f(obj) -> complaint | None`` run once the fields hold: the
  arithmetic identities).
"""

from __future__ import annotations

import math
from typing import Any, Callable

_TYPE_NAMES = {str: "a string", int: "an integer", list: "a list",
               dict: "an object"}


def number(lo: float = -math.inf, hi: float = math.inf, slack: float = 0.0) -> tuple:
    """A finite number inside ``[lo, hi]``, give or take ``slack``."""
    return ("number", lo, hi, slack)


FINITE = number()
NONNEG = number(0.0)


def opt(rule: Any) -> tuple:
    """``rule``, checked only when the key is present and not ``None``."""
    return ("opt", rule)


def list_of(item: Any, nonempty: bool = False) -> tuple:
    """A list (optionally non-empty) whose items each satisfy ``item``."""
    return ("list", item, nonempty)


def sums_to(total: float, target: float, rel: float = 1e-9,
            floor: float = 1e-6) -> bool:
    """Whether ``total`` equals ``target`` within float tolerance (the
    test every sum-identity rule applies)."""
    return abs(total - target) <= max(rel * max(abs(target), 1.0), floor)


class _Mismatch(Exception):
    pass


def check(obj: Any, spec: Any, source: str, error: Callable[[str], Exception]) -> Any:
    """Check ``obj`` against ``spec``; returns it, or raises
    ``error(f"{source}: <what is wrong>")`` for the first mismatch."""
    try:
        _check(obj, spec, "")
    except _Mismatch as exc:
        raise error(f"{source}: {exc}") from None
    return obj


def _check(value: Any, rule: Any, where: str) -> None:
    if rule is None:
        return
    if isinstance(rule, type):
        if not isinstance(value, rule) or (rule is int and isinstance(value, bool)):
            raise _Mismatch(f"{where} must be {_TYPE_NAMES[rule]}")
    elif isinstance(rule, dict):
        _check_object(value, rule, where)
    elif rule[0] == "list":
        _, item, nonempty = rule
        if not isinstance(value, list) or (nonempty and not value):
            raise _Mismatch(
                f"{where} must be a {'non-empty ' if nonempty else ''}list")
        for i, entry in enumerate(value):
            _check(entry, item, f"{where}[{i}]")
    else:
        _, lo, hi, slack = rule
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise _Mismatch(f"{where} must be a finite number")
        if not lo - slack <= value <= hi + slack:
            raise _Mismatch(
                f"{where} is negative" if value < 0.0 <= lo
                else f"{where} {value} outside [{lo:g}, {hi:g}]")


def _check_object(value: Any, spec: dict, where: str) -> None:
    if not isinstance(value, dict):
        raise _Mismatch(f"{where or spec.get('what', 'root')} must be an object")
    prefix = f"{where} " if where else ""
    for tag in ("schema", "kind"):
        if tag in spec and value.get(tag) != spec[tag]:
            raise _Mismatch(f"{prefix}{tag} {value.get(tag)!r} not supported "
                            f"(need {spec[tag]!r})")
    for key, rule in spec.get("fields", {}).items():
        if isinstance(rule, tuple) and rule[0] == "opt":
            if value.get(key) is None:
                continue
            rule = rule[1]
        elif key not in value:
            raise _Mismatch(f"{prefix}missing required key {key!r}")
        _check(value[key], rule, f"{where}.{key}" if where else key)
    for key, entry in value.items() if "values" in spec else ():
        _check(entry, spec["values"], f"{where}[{key!r}]")
    for rule in spec.get("rules", ()):
        complaint = rule(value)
        if complaint:
            raise _Mismatch(prefix + complaint)
