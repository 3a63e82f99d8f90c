"""Suite-wide configuration: hypothesis profile, the slow marker and
the criteria summary.

Tests marked slow take minutes alone and are skipped unless pytest is
given --run-slow.  Acceptance tests append one verdict line each; the
terminal summary prints them together so a single pytest run reads as a
checklist.
"""

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "repo",
    max_examples=50,
    deadline=None,
    derandomize=True,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.filter_too_much,
        HealthCheck.data_too_large,
    ],
)
settings.load_profile("repo")


def pytest_addoption(parser):
    parser.addoption("--run-slow", action="store_true", help="also run tests marked slow")


def pytest_configure(config):
    config._criterion_lines = []


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-slow"):
        return
    skip = pytest.mark.skip(reason="slow: run with --run-slow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def criterion_log(request):
    """Append one 'Cnn PASS/FAIL — detail' line to the run summary."""

    def add(line: str) -> None:
        request.config._criterion_lines.append(line)

    return add


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_criterion_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in sorted(lines):
            terminalreporter.write_line(line)
