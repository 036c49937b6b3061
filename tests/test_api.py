"""The public names of the package: each resolves, none is listed twice,
and each question has one entry point per pipeline."""
import vanetcov

REMOVED = ("effective_rate", "network_utility", "total_rate", "total_coverage",
           "p_assoc_dl", "estimate_coverage", "CoverageResult")


def test_every_exported_name_resolves():
    for name in vanetcov.__all__:
        assert getattr(vanetcov, name) is not None, name


def test_no_name_exported_twice():
    assert len(vanetcov.__all__) == len(set(vanetcov.__all__))


def test_one_entry_point_per_question():
    for name in REMOVED:
        assert name not in vanetcov.__all__
        assert not hasattr(vanetcov, name), name
    for name in ("effective_rate_with_error", "network_utility_with_error",
                 "total_rate_with_error", "estimate_coverage_grid"):
        assert name in vanetcov.__all__
