from ncstrip.verification import MISMATCH_SAMPLE, CheckResult


def test_failures_keep_a_bounded_sample_and_count_all():
    result = CheckResult("check", {})
    for i in range(25):
        result.fail(f"mismatch {i}")
    assert not result.passed
    assert MISMATCH_SAMPLE == 20
    assert result.mismatches == [f"mismatch {i}" for i in range(20)]
    assert result.mismatch_count == 25
