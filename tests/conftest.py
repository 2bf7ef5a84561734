"""Shared fixtures.

``--cache-dir`` pins the valency cache tests to a directory instead of
per-test tmp dirs, so a second pass of the cache tests runs warm
against the entries the first pass stored.
"""

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--cache-dir",
        default=None,
        help="valency cache directory for the cache tests "
        "(default: per-test tmp dirs)",
    )


@pytest.fixture
def cache_dir(request, tmp_path):
    pinned = request.config.getoption("--cache-dir")
    if pinned:
        return pinned
    return tmp_path / "valency-cache"
