"""Shared pytest hooks and fixtures.

Prints a one-line PASS/FAIL verdict per acceptance criterion at the end
of the terminal report, so the gate's outcome is readable at a glance.
"""

import pytest

from dfcvr import models

_ACCEPTANCE_RESULTS = []


def pytest_runtest_logreport(report):
    if "test_acceptance.py::" not in report.nodeid:
        return
    broke_in_setup = report.when == "setup" and report.outcome != "passed"
    if report.when != "call" and not broke_in_setup:
        return
    name = report.nodeid.split("::")[-1]
    detail = dict(report.user_properties).get("detail", "")
    _ACCEPTANCE_RESULTS.append((name, report.outcome == "passed", detail))


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, passed, detail in _ACCEPTANCE_RESULTS:
        status = "PASS" if passed else "FAIL"
        suffix = f" ({detail})" if detail else ""
        terminalreporter.write_line(f"{name}: {status}{suffix}")


@pytest.fixture
def operator_builds(monkeypatch):
    """The calls of ``models.build_ggn_factors`` during the test: one per
    curvature operator built."""
    calls = []
    build = models.build_ggn_factors

    def counting(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(models, "build_ggn_factors", counting)
    return calls
