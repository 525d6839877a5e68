import pytest

from ncstrip import verification
from ncstrip.shapes import SkewShape
from ncstrip.verification import (
    MISMATCH_SAMPLE,
    CheckResult,
    labeling_bijection_check_a,
    labeling_bijection_check_b,
    strip_bijection_check_a,
    strip_bijection_check_b,
    theorem_11_check,
    theorem_12_check,
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


# Ways to break one name that a check looks up in `ncstrip.verification`.


def first_call_wrong(f):
    """f, except that its first call returns a partition no check expects."""
    calls = []

    def broken(*args):
        calls.append(args)
        return (99,) if len(calls) == 1 else f(*args)

    return broken


def drop_first(f):
    """The enumerator f without its first member."""
    return lambda *args: list(f(*args))[1:]


def extra_term(f):
    """The expansion f with one term it does not have."""
    return lambda *args: {**f(*args), (99,): 1}


@pytest.mark.parametrize(
    "check,args,name,breaker,tag",
    [
        (theorem_11_check, (3, 1), "expand_skew", extra_term, "enumeration vs formula"),
        (theorem_11_check, (3, 1), "reduced_type_a", first_call_wrong, "formula vs census"),
        (theorem_11_check, (3, 1), "enumerate_k_divisible", drop_first, "formula vs census"),
        (theorem_12_check, (2, 2), "expand_skew", extra_term, "enumeration vs formula"),
        (theorem_12_check, (2, 2), "type_b", first_call_wrong, "formula vs census"),
        (theorem_12_check, (2, 2), "enumerate_nc_b", drop_first, "formula vs census"),
        (labeling_bijection_check_a, (3, 2), "noncrossing_to_path", first_call_wrong, "inverse fails"),
        (labeling_bijection_check_a, (3, 2), "fc_type", first_call_wrong, "type not preserved"),
        (labeling_bijection_check_a, (3, 2), "reduced_type_a", first_call_wrong, "reduced type not preserved"),
        (labeling_bijection_check_a, (3, 2), "enumerate_k_divisible", drop_first, "image has"),
        (labeling_bijection_check_b, (2, 2), "signed_noncrossing_to_path", first_call_wrong, "inverse fails"),
        (labeling_bijection_check_b, (2, 2), "type_b", first_call_wrong, "type not preserved"),
        (labeling_bijection_check_b, (2, 2), "enumerate_nc_b", drop_first, "image has"),
        (strip_bijection_check_a, (3, 2), "staircase_path_to_strip", first_call_wrong, "inverse fails"),
        (strip_bijection_check_a, (3, 2), "fc_reduced_type", first_call_wrong, "reduced type not preserved"),
        (strip_bijection_check_a, (3, 2), "reduced_type_a", first_call_wrong, "composite reduced type not preserved"),
        (strip_bijection_check_a, (3, 2), "enumerate_fuss_catalan", drop_first, "image has"),
        (strip_bijection_check_b, (2, 2), "rectangle_path_to_strip", first_call_wrong, "inverse fails"),
        (strip_bijection_check_b, (2, 2), "fb_type", first_call_wrong, "type not preserved"),
        (strip_bijection_check_b, (2, 2), "type_b", first_call_wrong, "composite type not preserved"),
        (strip_bijection_check_b, (2, 2), "enumerate_r_strips", drop_first, "image has"),
    ],
)
def test_checks_fail_when_one_piece_is_broken(monkeypatch, check, args, name, breaker, tag):
    # no check passes vacuously: each one notices a single wrong value
    assert check(*args).passed
    monkeypatch.setattr(verification, name, breaker(getattr(verification, name)))
    result = check(*args)
    assert not result.passed
    assert result.mismatch_count >= 1
    assert any(tag in m for m in result.mismatches), result.mismatches
