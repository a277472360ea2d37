"""Check rows built from their rule: the margin and the pass flag of
CheckRow.at_most, at_least and within agree for every value, finite or not."""

import math

from stablesde.report import CheckRow, Report, validate_report

VALUES = [-math.inf, -2.0, -1e-300, -0.0, 0.0, 1e-300, 0.5, 1.0, 1.0 + 2 ** -52, 2.0,
          math.inf, math.nan]


def _rows():
    for value in VALUES:
        for bound in VALUES:
            yield CheckRow.at_most("a", "value <= bound", value, bound)
            yield CheckRow.at_least("b", "value >= bound", value, bound)
            if not math.isnan(bound) and bound >= 0:
                yield CheckRow.within("c", "|value - 1| <= tol", value, 1.0, bound)


def test_passed_exactly_when_margin_nonnegative():
    rows = list(_rows())
    assert len(rows) == 2 * len(VALUES) ** 2 + len(VALUES) * 8   # 8 tolerances >= 0
    assert all(type(r.passed) is bool for r in rows)
    assert [r for r in rows if r.passed != (r.margin >= 0)] == []
    # infinite and NaN values reach both verdicts
    assert {r.passed for r in rows if not math.isfinite(r.value)} == {True, False}


def test_finite_rules():
    assert CheckRow.at_most("a", "", 1.0, 2.0).margin == 1.0
    assert not CheckRow.at_most("a", "", 2.0 + 1e-15, 2.0).passed
    assert CheckRow.at_least("b", "", 1.0, -1e-3).margin == 1.0 + 1e-3
    row = CheckRow.within("c", "", 1.0 + 1e-9, 1.0, 1e-8)
    assert row.passed and row.bound == 1.0 and row.margin == 1e-8 - abs(1e-9 + 1.0 - 1.0)
    assert not CheckRow.within("c", "", 1.0 + 2e-8, 1.0, 1e-8).passed


def test_nan_fails_every_rule():
    assert not CheckRow.at_most("a", "", math.nan, 1.0).passed
    assert not CheckRow.at_least("b", "", math.nan, 1.0).passed
    assert not CheckRow.within("c", "", math.nan, 1.0, 1.0).passed


def test_context_kept_and_rows_validate():
    rows = [CheckRow.at_most("a", "", 0.1, 1.0, {"h": 0.1}),
            CheckRow.at_least("b", "", 0.1, 1.0), CheckRow.within("c", "", 0.1, 0.1, 0.0)]
    assert [r.context for r in rows] == [{"h": 0.1}, {}, {}]
    assert [r.passed for r in rows] == [True, False, True]
    rep = Report(name="r", checks=rows)
    validate_report(rep.to_dict())
    assert not rep.passed and rep.worst_margin == -0.9
