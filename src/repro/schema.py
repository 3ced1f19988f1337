"""One table-driven structural checker for the ``repro.*/1`` documents.

Every artifact, section and record the package writes is validated
against a *spec table* kept beside its schema constant; this module is
the interpreter.  It imports nothing from ``repro``, so any layer may
use it.  A **rule** says what one value must be:

* ``None`` — anything, but present;
* a type (``str``, ``int``, ``list``, ``dict``) — an instance of it
  (``int`` refuses ``bool``);
* :data:`FINITE`, :data:`NONNEG`, :data:`POSITIVE`, :func:`number`,
  :func:`integer` — a finite number (an integer) inside a closed
  interval; a ``bool`` is never a number;
* :func:`one_of` — one of an enumeration of values;
* :func:`opt` — the inner rule, unless the key is absent or ``None``;
* :func:`list_of` — a list whose items each satisfy a rule;
* a ``dict`` — an **object spec** with any of the keys ``what`` (the
  noun used when the root is not an object), ``schema`` / ``kind``
  (required tag values), ``fields`` (key -> rule), ``values`` (one rule
  for every value of a free-keyed mapping) and ``rules`` (callables
  ``f(obj) -> complaint | None`` run once the fields hold: the
  arithmetic identities).

Beside its spec each summary document keeps its **headline table**: a
:class:`Section` of :class:`Column` rows, one per number worth quoting,
each saying how it is read *out of the document* and under which key or
name every consumer — bus record, ``state.json``, status line, gauge,
history row, report — carries it.  Consumers project the table; none of
them picks a key by hand, so none of them can disagree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

_TYPE_NAMES = {str: "a string", int: "an integer", list: "a list",
               dict: "an object"}


def number(lo: float = -math.inf, hi: float = math.inf, slack: float = 0.0) -> tuple:
    """A finite number inside ``[lo, hi]``, give or take ``slack``."""
    return ("number", lo, hi, slack, False)


def integer(lo: float = -math.inf, hi: float = math.inf) -> tuple:
    """An integer inside ``[lo, hi]``."""
    return ("number", lo, hi, 0.0, True)


FINITE = number()
NONNEG = number(0.0)
#: Strictly positive: the closed bound is the smallest float above zero.
POSITIVE = number(math.ulp(0.0))


def one_of(values: Any) -> tuple:
    """One of ``values`` (any iterable of names; a mapping gives its keys)."""
    return ("one_of", tuple(values))


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
    elif rule[0] == "one_of":
        if value not in rule[1]:
            raise _Mismatch(
                f"{where} {value!r} not one of {', '.join(map(str, rule[1]))}")
    else:
        _, lo, hi, slack, integral = rule
        if (isinstance(value, bool)
                or not isinstance(value, int if integral else (int, float))
                or not math.isfinite(value)):
            raise _Mismatch(f"{where} must be "
                            f"{'an integer' if integral else 'a finite number'}")
        if not lo - slack <= value <= hi + slack:
            raise _Mismatch(
                f"{where} is negative" if value < 0.0 <= lo
                else f"{where} must be positive" if rule is POSITIVE
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


# -- headline tables ----------------------------------------------------------


@dataclass(frozen=True)
class Column:
    """One headline number of a summary document.

    ``read`` is the key path into the document (default: the top-level
    key ``name``), or a function of it for a derived column (which must
    return ``None``, not raise, when its inputs are absent).  The other
    fields are the column's *faces* — where it is carried, and under
    which key: ``True`` means under its own name, a falsy value that
    the face does not carry it.
    """

    name: str
    #: Display format (status line, reports, history table).
    fmt: str = "{}"
    read: tuple[str, ...] | Callable[[dict[str, Any]], Any] | None = None
    #: A flat scalar of the section's bus record.
    bus: bool = True
    #: ``state.json``.
    state: str | bool = False
    #: A ``repro.bench.history/1`` row.
    history: str | bool = False
    #: Gauge exported from a summary document (artifact, ``--metrics``).
    gauge: str | None = None
    #: Gauge exported from a job's ``state.json`` (``service metrics``).
    job_gauge: str | None = None

    def key(self, face: str) -> Any:
        key = getattr(self, face)
        return self.name if key is True else key

    def value(self, doc: Any) -> Any:
        """The column read from ``doc``; ``None`` where it is absent."""
        if callable(self.read):
            return self.read(doc) if isinstance(doc, dict) else None
        for key in self.read or (self.name,):
            doc = doc.get(key) if isinstance(doc, dict) else None
        return doc

    def show(self, value: Any) -> str:
        return "-" if value is None else self.fmt.format(value)


@dataclass(frozen=True)
class Section:
    """The headline table of one summary document.  ``state`` and
    ``history``, where set, are the key of the object those faces nest
    the section's columns under."""

    #: Key of the document in a ``repro.bench/1`` benchmark entry.
    name: str | None
    columns: tuple[Column, ...]
    #: Bus record kind the document travels under.
    kind: str = ""
    #: Status-line and report sentences over the shown columns.
    status: str = ""
    report: str = ""
    state: str | None = None
    history: str | None = None

    def read(self, doc: Any) -> dict[str, Any]:
        """Every column, by name, read from one summary document."""
        return {c.name: c.value(doc) for c in self.columns}

    def project(self, face: str, values: dict[str, Any]) -> dict[str, Any]:
        """``values`` as ``face`` carries them: keyed by the face's keys,
        columns without the face or without a value left out."""
        fields = {
            c.key(face): values[c.name] for c in self.columns
            if c.key(face) and values.get(c.name) is not None
        }
        nest = getattr(self, face, None)
        if not nest:
            return fields
        return {nest: fields} if fields else {}

    def collect(self, face: str, held: dict[str, Any]) -> dict[str, Any]:
        """The inverse: column values, by name, out of a document keyed
        as ``face`` keys them (empty where the section is absent)."""
        nest = getattr(self, face, None)
        held = held.get(nest) if nest else held
        if not isinstance(held, dict):
            return {}
        return {c.name: held[c.key(face)] for c in self.columns
                if c.key(face) in held}

    def shown(self, values: dict[str, Any]) -> dict[str, str]:
        """Every column formatted for display (``-`` where absent)."""
        return {c.name: c.show(values.get(c.name)) for c in self.columns}
