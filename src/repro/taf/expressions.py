"""String predicate parsing for the TAF API.

The paper's examples (Fig. 7) pass predicates as strings::

    SON(tgiH).Select("id < 5000")
    son.Select('community = "A"')
    son.Timeslice("t >= Jan 1,2003 and t < Jan 1, 2004")

This module parses that small language:

- comparisons: ``<field> <op> <literal>`` with ops ``= == != < <= > >=``;
- fields: ``id`` (node id), ``t`` (time, only in time expressions), or any
  attribute name;
- literals: integers, floats, quoted strings, or ``Month D,YYYY`` dates
  (mapped to proleptic-Gregorian day ordinals — the library's integer time
  domain);
- conjunction with ``and`` (time expressions) / ``and`` & ``or`` (entity
  predicates).
"""

from __future__ import annotations

import datetime as _dt
import math
import re
from bisect import bisect_left
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.errors import QueryError
from repro.types import TIME_MAX, TIME_MIN, TimePoint

_COMPARISON = re.compile(
    r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*(==|=|!=|<=|>=|<|>)\s*(.+?)\s*$"
)

_DATE_FORMATS = ("%b %d,%Y", "%b %d, %Y", "%B %d,%Y", "%B %d, %Y", "%Y-%m-%d")


def parse_literal(text: str) -> Any:
    """Parse a literal: quoted string, int, float, or date."""
    text = text.strip()
    if len(text) >= 2 and text[0] in "'\"" and text[-1] == text[0]:
        return text[1:-1]
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    date = parse_date(text)
    if date is not None:
        return date
    raise QueryError(f"cannot parse literal {text!r}")


def parse_date(text: str) -> Optional[TimePoint]:
    """``Month D,YYYY``-style date → day ordinal, or None if not a date."""
    cleaned = " ".join(text.strip().split())
    for fmt in _DATE_FORMATS:
        try:
            return _dt.datetime.strptime(cleaned, fmt).date().toordinal()
        except ValueError:
            continue
    return None


def date_ordinal(year: int, month: int, day: int) -> TimePoint:
    """Convenience: day-ordinal time point for a calendar date."""
    return _dt.date(year, month, day).toordinal()


_OPS: dict = {
    "=": lambda a, b: a == b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a is not None and a < b,
    "<=": lambda a, b: a is not None and a <= b,
    ">": lambda a, b: a is not None and a > b,
    ">=": lambda a, b: a is not None and a >= b,
}


def _split_clauses(expr: str, keyword: str) -> List[str]:
    """Split on a lowercase keyword outside of quotes."""
    parts: List[str] = []
    depth_quote: Optional[str] = None
    token = []
    i = 0
    low = expr.lower()
    klen = len(keyword)
    while i < len(expr):
        ch = expr[i]
        if depth_quote:
            if ch == depth_quote:
                depth_quote = None
            token.append(ch)
            i += 1
            continue
        if ch in "'\"":
            depth_quote = ch
            token.append(ch)
            i += 1
            continue
        boundary_ok = (i == 0 or not expr[i - 1].isalnum()) and (
            i + klen >= len(expr) or not expr[i + klen].isalnum()
        )
        if low.startswith(keyword, i) and boundary_ok:
            parts.append("".join(token))
            token = []
            i += klen
            continue
        token.append(ch)
        i += 1
    parts.append("".join(token))
    return [p.strip() for p in parts if p.strip()]


def parse_entity_predicate(expr: str) -> Callable[[int, dict], bool]:
    """Compile an entity predicate: ``f(node_id, attrs) -> bool``.

    Supports ``and``-joined (conjunction binds tighter) and ``or``-joined
    comparisons over ``id`` and attribute names.
    """

    def compile_comparison(clause: str) -> Callable[[int, dict], bool]:
        m = _COMPARISON.match(clause)
        if not m:
            raise QueryError(f"cannot parse predicate clause {clause!r}")
        field, op, raw = m.groups()
        literal = parse_literal(raw)
        cmp = _OPS[op]
        if field == "id":
            return lambda nid, attrs: cmp(nid, literal)
        return lambda nid, attrs: cmp(attrs.get(field), literal)

    def compile_conjunction(part: str) -> Callable[[int, dict], bool]:
        clauses = [compile_comparison(c) for c in _split_clauses(part, "and")]
        return lambda nid, attrs: all(c(nid, attrs) for c in clauses)

    disjuncts = [compile_conjunction(p) for p in _split_clauses(expr, "or")]
    if not disjuncts:
        raise QueryError(f"empty predicate {expr!r}")
    return lambda nid, attrs: any(d(nid, attrs) for d in disjuncts)


#: The ``int`` ids one ``id <op> v`` comparison accepts, as half-open
#: ``[lo, hi)`` intervals.
_ID_SPANS: dict = {
    "=": lambda v: [(v, v + 1)],
    "==": lambda v: [(v, v + 1)],
    "!=": lambda v: [(-math.inf, v), (v + 1, math.inf)],
    "<": lambda v: [(-math.inf, v)],
    "<=": lambda v: [(-math.inf, v + 1)],
    ">": lambda v: [(v + 1, math.inf)],
    ">=": lambda v: [(v, math.inf)],
}

IdSpans = List[Tuple[Any, Any]]


def id_intervals(expr: str) -> Optional[IdSpans]:
    """The ``int`` ids an ``id``-only entity predicate accepts, as sorted
    disjoint half-open intervals ``[lo, hi)`` (``±inf`` unbounded):
    ``and`` intersects, ``or`` unions.  ``None`` when a clause names
    another field or compares with a non-``int`` literal — only the
    compiled closure decides those."""
    union: IdSpans = []
    for part in _split_clauses(expr, "or"):
        spans: IdSpans = [(-math.inf, math.inf)]
        for clause in _split_clauses(part, "and"):
            m = _COMPARISON.match(clause)
            if not m:
                raise QueryError(f"cannot parse predicate clause {clause!r}")
            field, op, raw = m.groups()
            literal = parse_literal(raw)
            if field != "id" or type(literal) is not int:
                return None
            spans = sorted(
                (max(lo, lo2), min(hi, hi2))
                for lo, hi in spans
                for lo2, hi2 in _ID_SPANS[op](literal)
                if max(lo, lo2) < min(hi, hi2)
            )
        union.extend(spans)
    merged: IdSpans = []
    for lo, hi in sorted(union):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(hi, merged[-1][1]))
        else:
            merged.append((lo, hi))
    return merged


def ids_within(ids: Sequence[int], spans: IdSpans) -> List[int]:
    """The members of the sorted ``int`` sequence ``ids`` that fall in
    ``spans`` (as :func:`id_intervals` returns them), in order: one
    bisection per interval bound, no per-id test."""
    out: List[int] = []
    for lo, hi in spans:
        out.extend(ids[bisect_left(ids, lo):bisect_left(ids, hi)])
    return out


def parse_time_expression(expr: str) -> Tuple[TimePoint, TimePoint]:
    """Compile a time expression into a closed interval ``[ts, te]``.

    ``"t = X"`` yields the point interval ``[X, X]``; comparisons are
    intersected:  ``"t >= a and t < b"`` → ``[a, b-1]``.
    """
    lo, hi = TIME_MIN, TIME_MAX
    for clause in _split_clauses(expr, "and"):
        m = _COMPARISON.match(clause)
        if not m or m.group(1) != "t":
            raise QueryError(f"cannot parse time clause {clause!r}")
        _field, op, raw = m.groups()
        value = parse_literal(raw)
        if not isinstance(value, int):
            raise QueryError(f"time literal must resolve to an integer: {raw!r}")
        if op in ("=", "=="):
            lo, hi = max(lo, value), min(hi, value)
        elif op == ">=":
            lo = max(lo, value)
        elif op == ">":
            lo = max(lo, value + 1)
        elif op == "<=":
            hi = min(hi, value)
        elif op == "<":
            hi = min(hi, value - 1)
        else:
            raise QueryError(f"operator {op!r} not valid in time expressions")
    if lo > hi:
        raise QueryError(f"empty time interval from {expr!r}")
    return lo, hi


def predicate_fields(expr: str) -> set:
    """Field names referenced by an entity predicate (used to decide
    whether a Select can prune the node universe before fetching)."""
    fields = set()
    for part in _split_clauses(expr, "or"):
        for clause in _split_clauses(part, "and"):
            m = _COMPARISON.match(clause)
            if not m:
                raise QueryError(f"cannot parse predicate clause {clause!r}")
            fields.add(m.group(1))
    return fields
