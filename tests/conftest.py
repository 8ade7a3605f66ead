"""A failing test of a module that defines `platform_note` (the golden
pins) reports that note: which of the pins' platform digests differ here."""

import pytest


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    report = (yield).get_result()
    note = getattr(item.module, "platform_note", None)
    if report.failed and call.when == "call" and note:
        report.sections.append(("platform", note()))
