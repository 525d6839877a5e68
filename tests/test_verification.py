import pytest

from ncstrip.shapes import SkewShape
from ncstrip.verification import (
    MISMATCH_SAMPLE,
    CheckResult,
    strip_bijection_check_a,
    strip_bijection_check_b,
)


def test_failures_keep_a_bounded_sample_and_count_all():
    result = CheckResult("check", {})
    for i in range(25):
        result.fail(f"mismatch {i}")
    assert not result.passed
    assert MISMATCH_SAMPLE == 20
    assert result.mismatches == [f"mismatch {i}" for i in range(20)]
    assert result.mismatch_count == 25


@pytest.mark.parametrize(
    "check,n,k,width",
    [(strip_bijection_check_a, 4, 2, 4), (strip_bijection_check_b, 3, 2, 3)],
)
def test_strip_checks_build_one_shape(monkeypatch, check, n, k, width):
    # a shape computes its profile with one column_interval call per column,
    # so a check that builds its shape once makes exactly `width` calls
    calls = []
    column_interval = SkewShape.column_interval

    def counted(self, c):
        calls.append(c)
        return column_interval(self, c)

    monkeypatch.setattr(SkewShape, "column_interval", counted)
    assert check(n, k).passed
    assert len(calls) == width
