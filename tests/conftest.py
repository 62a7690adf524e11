from __future__ import annotations

import pytest

_ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    _ACCEPTANCE_LINES.append(line)


def pytest_addoption(parser):
    parser.addoption(
        "--run-slow", action="store_true", default=False,
        help="also run the tests marked slow (high-weight checks)",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-slow"):
        return
    skip = pytest.mark.skip(reason="marked slow: give --run-slow to run it")
    for item in items:
        if item.get_closest_marker("slow"):
            item.add_marker(skip)


@pytest.fixture(scope="session", autouse=True)
def isolated_cache(tmp_path_factory):
    """Route the basis cache into a per-session directory so repeated
    lookups within the run are shared but nothing leaks outside."""
    import os

    path = tmp_path_factory.mktemp("basis-cache")
    old = os.environ.get("DSLFORGE_CACHE_DIR")
    os.environ["DSLFORGE_CACHE_DIR"] = str(path)
    yield path
    if old is None:
        os.environ.pop("DSLFORGE_CACHE_DIR", None)
    else:
        os.environ["DSLFORGE_CACHE_DIR"] = old


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
