"""Reference computations the benchmark checks the program against.

Each oracle is computed apart from the program: from the generator's
ground truth, from plain-Python evaluation over raw rows, or from
properties every correct answer has.  None of them calls the SQL engine,
the keyword index or the streaming pipeline.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

_TOKEN = re.compile(r"[A-Za-z0-9_]+")


def tokens(text: str) -> set[str]:
    """Lower-cased word tokens (letters, digits, underscore)."""
    return {t.lower() for t in _TOKEN.findall(text)}


def sql_literal(value: str) -> str:
    """A SQL string literal for ``value``."""
    return "'" + value.replace("'", "''") + "'"


# ------------------------------------------------------------ SQL statements


@dataclass(frozen=True)
class PointQuery:
    """``SELECT value_num FROM facts WHERE entity = e AND attribute = a``."""

    entity: str
    attribute: str

    def sql(self) -> str:
        return (f"SELECT value_num FROM facts WHERE entity = "
                f"{sql_literal(self.entity)} AND attribute = "
                f"{sql_literal(self.attribute)}")

    def evaluate(self, rows: Iterable[dict[str, Any]]) -> list[Any]:
        """The answer as a sorted list of ``value_num``s."""
        return sorted(
            (r["value_num"] for r in rows
             if r["entity"] == self.entity
             and r["attribute"] == self.attribute),
            key=_null_first)


@dataclass(frozen=True)
class GroupQuery:
    """``SELECT attribute, AGG(column) AS v FROM facts [WHERE confidence
    >= c] GROUP BY attribute``."""

    aggregate: str
    column: str
    min_confidence: float | None = None

    def sql(self) -> str:
        where = ("" if self.min_confidence is None
                 else f" WHERE confidence >= {self.min_confidence!r}")
        return (f"SELECT attribute, {self.aggregate}({self.column}) AS v "
                f"FROM facts"
                f"{where} GROUP BY attribute")

    def evaluate(self, rows: Iterable[dict[str, Any]]) -> dict[str, Any]:
        """The answer as ``{attribute: aggregate}``."""
        groups: dict[str, list[Any]] = {}
        for row in rows:
            if self.min_confidence is not None and (
                    row["confidence"] is None
                    or row["confidence"] < self.min_confidence):
                continue
            value = 1 if self.column == "*" else row[self.column]
            groups.setdefault(row["attribute"], []).append(value)
        return {attr: _aggregate(self.aggregate, values)
                for attr, values in groups.items()}


def _null_first(value: Any) -> tuple[int, Any]:
    return (0, 0) if value is None else (1, value)


def _aggregate(name: str, values: list[Any]) -> Any:
    present = [v for v in values if v is not None]
    if name == "COUNT":
        return len(present)
    if not present:
        return None
    if name == "SUM":
        return math.fsum(present)
    if name == "AVG":
        return math.fsum(present) / len(present)
    if name == "MIN":
        return min(present)
    if name == "MAX":
        return max(present)
    raise ValueError(f"unknown aggregate {name!r}")


def same_number(a: Any, b: Any, rel: float = 1e-9) -> bool:
    """Equal, allowing float summation-order error on numbers."""
    if a is None or b is None:
        return a is b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(a, b, rel_tol=rel, abs_tol=rel)
    return a == b


def check_point(query: PointQuery, answer: Sequence[dict[str, Any]],
                rows: Sequence[dict[str, Any]]) -> str | None:
    """None when ``answer`` equals the plain evaluation, else a reason."""
    got = sorted((r["value_num"] for r in answer), key=_null_first)
    want = query.evaluate(rows)
    if len(got) != len(want) or not all(
            same_number(g, w) for g, w in zip(got, want)):
        return f"{query.sql()}: got {got}, expected {want}"
    return None


def check_group(query: GroupQuery, answer: Sequence[dict[str, Any]],
                rows: Sequence[dict[str, Any]]) -> str | None:
    """None when ``answer`` equals the plain evaluation, else a reason."""
    return compare_group(query, answer, query.evaluate(rows))


def compare_group(query: GroupQuery, answer: Sequence[dict[str, Any]],
                  want: dict[str, Any]) -> str | None:
    """None when ``answer`` equals ``want``, the plain evaluation of
    ``query``, else a reason."""
    got: dict[str, Any] = {}
    for row in answer:
        if row["attribute"] in got:
            return f"{query.sql()}: group {row['attribute']!r} repeated"
        got[row["attribute"]] = row["v"]
    if got.keys() != want.keys():
        return (f"{query.sql()}: groups differ: "
                f"{sorted(got.keys() ^ want.keys())[:5]}")
    for attr, value in want.items():
        if not same_number(got[attr], value):
            return f"{query.sql()}: {attr} got {got[attr]}, expected {value}"
    return None


# ------------------------------------------------------------ ground truth


def short_attribute(month: str) -> str:
    return f"{month[:3]}_temp"


def truth_errors(truths: Sequence[Any], rows: Sequence[dict[str, Any]],
                 styles: Sequence[str], months: Sequence[str]) -> list[str]:
    """Clean cities of ``styles`` whose monthly temperatures in ``rows``
    differ from the generator's truth: every stored value must equal it
    and at least one must exist."""
    stored = _values_by_key(rows)
    errors: list[str] = []
    for city in truths:
        if city.corrupted_month is not None or city.style not in styles:
            continue
        for index, month in enumerate(months):
            values = stored.get((city.name, short_attribute(month)), [])
            expected = city.monthly_temps[index]
            if not values or any(not same_number(v, expected, 1e-6)
                                 for v in values):
                errors.append(f"{city.name}.{short_attribute(month)}: "
                              f"stored {values}, truth {expected}")
    return errors


def truth_accuracy(truths: Sequence[Any], rows: Sequence[dict[str, Any]],
                   months: Sequence[str]) -> float:
    """Share of (clean city, month) pairs, over every style, whose stored
    values are all equal to the truth."""
    stored = _values_by_key(rows)
    right = total = 0
    for city in truths:
        if city.corrupted_month is not None:
            continue
        for index, month in enumerate(months):
            total += 1
            values = stored.get((city.name, short_attribute(month)), [])
            expected = city.monthly_temps[index]
            if values and all(same_number(v, expected, 1e-6)
                              for v in values):
                right += 1
    return right / total if total else 0.0


def _values_by_key(rows: Iterable[dict[str, Any]]
                   ) -> dict[tuple[str, str], list[Any]]:
    out: dict[tuple[str, str], list[Any]] = {}
    for row in rows:
        out.setdefault((row["entity"], row["attribute"]), []).append(
            row["value_num"])
    return out


# --------------------------------------------------------- standing queries


def row_key(row: dict[str, Any], columns: Sequence[str]) -> tuple:
    """Identity of a result row over ``columns`` (1 and 1.0 are one row)."""
    return tuple(float(row[c]) if isinstance(row[c], int)
                 and not isinstance(row[c], bool) else row[c]
                 for c in columns)


def expected_notifications(before: Iterable[tuple],
                           after: Iterable[tuple]) -> set[tuple]:
    """Rows a standing query must announce for one commit: those present
    in the result after it and absent before it."""
    return set(after) - set(before)


def check_notifications(before: Iterable[tuple], after: Iterable[tuple],
                        delivered: Sequence[tuple]) -> str | None:
    """None when ``delivered`` announces exactly the new rows, each once."""
    want = expected_notifications(before, after)
    got = set(delivered)
    if len(got) != len(delivered):
        return f"{len(delivered) - len(got)} duplicate notifications"
    if got != want:
        return (f"notified {len(got)} rows, expected {len(want)}: missing "
                f"{sorted(want - got)[:3]}, extra {sorted(got - want)[:3]}")
    return None


def multiset_difference(left: Sequence[tuple], right: Sequence[tuple]
                        ) -> tuple[list[tuple], list[tuple]]:
    """Rows only in ``left`` and only in ``right``, with multiplicity."""
    counts: dict[tuple, int] = {}
    for row in left:
        counts[row] = counts.get(row, 0) + 1
    for row in right:
        counts[row] = counts.get(row, 0) - 1
    only_left = [r for r, n in counts.items() for _ in range(max(n, 0))]
    only_right = [r for r, n in counts.items() for _ in range(max(-n, 0))]
    return only_left, only_right
