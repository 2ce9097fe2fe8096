"""Tests for the benchmark's own oracles, on small hand-built inputs.

Run from the repository root::

    python3 -m pytest -q perfbench/test_oracles.py
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from oracles import (  # noqa: E402
    GroupQuery,
    PointQuery,
    check_group,
    check_notifications,
    check_point,
    expected_notifications,
    multiset_difference,
    row_key,
    truth_accuracy,
    truth_errors,
)


def fact(fact_id, entity, attribute, value_num=None, value_text=None,
         confidence=1.0):
    return {"fact_id": fact_id, "entity": entity, "attribute": attribute,
            "value_num": value_num, "value_text": value_text,
            "confidence": confidence, "doc_id": f"city_{entity.lower()}"}


ROWS = [
    fact(0, "Oakton", "jan_temp", 20.0),
    fact(1, "Oakton", "feb_temp", 25.0, confidence=0.75),
    fact(2, "Elmdale", "jan_temp", 30.0),
    fact(3, "Elmdale", "state", value_text="Ohio"),
    fact(4, "Oakton", "state", value_text="Texas", confidence=0.5),
]


# --------------------------------------------------------------- SQL oracle


def test_point_query_text_and_answer():
    query = PointQuery("Oakton", "jan_temp")
    assert query.sql() == ("SELECT value_num FROM facts WHERE entity = "
                           "'Oakton' AND attribute = 'jan_temp'")
    assert query.evaluate(ROWS) == [20.0]
    assert PointQuery("Nowhere", "jan_temp").evaluate(ROWS) == []


def test_point_query_quotes_literals():
    assert "'O''Brien'" in PointQuery("O'Brien", "x").sql()


def test_group_queries_follow_sql_null_rules():
    assert GroupQuery("COUNT", "*").evaluate(ROWS) == {
        "jan_temp": 2, "feb_temp": 1, "state": 2}
    assert GroupQuery("AVG", "value_num").evaluate(ROWS) == {
        "jan_temp": 25.0, "feb_temp": 25.0, "state": None}
    assert GroupQuery("COUNT", "value_text").evaluate(ROWS) == {
        "jan_temp": 0, "feb_temp": 0, "state": 2}
    assert GroupQuery("MAX", "value_num").evaluate(ROWS)["jan_temp"] == 30.0
    assert GroupQuery("SUM", "confidence").evaluate(ROWS)["state"] == 1.5
    assert GroupQuery("COUNT", "*", 0.9).evaluate(ROWS) == {
        "jan_temp": 2, "state": 1}
    assert GroupQuery("COUNT", "*", 0.9).sql().endswith(
        "WHERE confidence >= 0.9 GROUP BY attribute")


def test_check_point_accepts_the_right_answer():
    query = PointQuery("Elmdale", "jan_temp")
    assert check_point(query, [{"value_num": 30.0}], ROWS) is None


def test_check_point_rejects_a_duplicated_fact_row():
    query = PointQuery("Elmdale", "jan_temp")
    doubled = [{"value_num": 30.0}, {"value_num": 30.0}]
    assert check_point(query, doubled, ROWS) is not None


def test_check_point_rejects_a_missing_or_wrong_value():
    query = PointQuery("Oakton", "jan_temp")
    assert check_point(query, [], ROWS) is not None
    assert check_point(query, [{"value_num": 21.0}], ROWS) is not None


def test_check_group_tolerates_summation_order_only():
    query = GroupQuery("AVG", "value_num")
    answer = [{"attribute": "jan_temp", "v": 25.000000000000004},
              {"attribute": "feb_temp", "v": 25.0},
              {"attribute": "state", "v": None}]
    assert check_group(query, answer, ROWS) is None
    answer[0]["v"] = 25.01
    assert check_group(query, answer, ROWS) is not None


def test_check_group_rejects_counts_over_a_duplicated_row():
    query = GroupQuery("COUNT", "*")
    answer = [{"attribute": "jan_temp", "v": 2},
              {"attribute": "feb_temp", "v": 1},
              {"attribute": "state", "v": 2}]
    assert check_group(query, answer, ROWS) is None
    duplicated = ROWS + [dict(ROWS[0], fact_id=5)]
    assert check_group(query, answer, duplicated) is not None


def test_check_group_rejects_missing_and_repeated_groups():
    query = GroupQuery("COUNT", "*")
    assert check_group(query, [{"attribute": "jan_temp", "v": 2}],
                       ROWS) is not None
    repeated = [{"attribute": "jan_temp", "v": 2}] * 2
    assert check_group(query, repeated, ROWS) is not None


# ------------------------------------------------------ notification oracle


def test_notifications_are_the_rows_new_after_the_commit():
    before = [("A", "jan_temp", 80.0), ("B", "jul_temp", 90.0)]
    after = [("B", "jul_temp", 90.0), ("A", "jan_temp", 81.0)]
    assert expected_notifications(before, after) == {("A", "jan_temp", 81.0)}
    assert check_notifications(before, after,
                               [("A", "jan_temp", 81.0)]) is None


def test_notifications_reject_missing_extra_and_duplicate_rows():
    before = [("A", "jan_temp", 80.0)]
    after = [("A", "jan_temp", 81.0), ("C", "aug_temp", 75.0)]
    assert check_notifications(before, after,
                               [("A", "jan_temp", 81.0)]) is not None
    assert check_notifications(
        before, after, [("A", "jan_temp", 81.0), ("C", "aug_temp", 75.0),
                        ("A", "jan_temp", 80.0)]) is not None
    assert check_notifications(
        before, after, [("A", "jan_temp", 81.0), ("C", "aug_temp", 75.0),
                        ("C", "aug_temp", 75.0)]) is not None


def test_a_row_that_stays_is_not_announced_again():
    rows = [("A", "jan_temp", 80.0)]
    assert expected_notifications(rows, rows) == set()
    assert check_notifications(rows, rows, []) is None


def test_row_key_treats_int_and_float_alike():
    columns = ("entity", "value_num")
    assert row_key({"entity": "A", "value_num": 1}, columns) == \
        row_key({"entity": "A", "value_num": 1.0}, columns)


def test_multiset_difference_counts_duplicates():
    left = [("a",), ("a",), ("b",)]
    right = [("a",), ("b",), ("c",)]
    assert multiset_difference(left, right) == ([("a",)], [("c",)])
    assert multiset_difference(right, right) == ([], [])


# ------------------------------------------------------ ground-truth oracle


@dataclass(frozen=True)
class City:
    name: str
    style: str
    monthly_temps: tuple
    corrupted_month: int | None = None


MONTHS = ["january", "february"]
TRUTHS = [
    City("Oakton", "infobox", (20.0, 25.0)),
    City("Elmdale", "table", (30.0, 35.0)),
    City("Ashby", "prose", (10.0, 12.0)),
    City("Bogus", "infobox", (1.0, 2.0), corrupted_month=0),
]


def truth_rows():
    return [
        fact(0, "Oakton", "jan_temp", 20.0),
        fact(1, "Oakton", "feb_temp", 25.0),
        fact(2, "Elmdale", "jan_temp", 30.0),
        fact(3, "Elmdale", "feb_temp", 35.0),
        fact(4, "Ashby", "jan_temp", 10.0),
        fact(5, "Bogus", "jan_temp", 999.0),
    ]


def test_truth_matches_exactly_on_clean_cities():
    rows = truth_rows()
    assert truth_errors(TRUTHS, rows, ("infobox", "table"), MONTHS) == []
    # Ashby's February is missing: 5 of the 6 clean pairs are right.
    assert truth_accuracy(TRUTHS, rows, MONTHS) == 5 / 6


def test_truth_rejects_a_wrong_or_missing_value():
    rows = truth_rows()
    rows[1] = fact(1, "Oakton", "feb_temp", 26.0)
    assert len(truth_errors(TRUTHS, rows, ("infobox",), MONTHS)) == 1
    del rows[2]
    assert len(truth_errors(TRUTHS, rows, ("table",), MONTHS)) == 1


def test_truth_rejects_a_duplicated_fact_with_another_value():
    rows = truth_rows() + [fact(6, "Elmdale", "jan_temp", 31.0)]
    errors = truth_errors(TRUTHS, rows, ("table",), MONTHS)
    assert errors and "Elmdale.jan_temp" in errors[0]
    assert truth_accuracy(TRUTHS, rows, MONTHS) == 4 / 6
