"""Shared fixtures for the bench tests.

``@pytest.mark.reference_commit(sha)`` marks a test that runs a bench
against an engine taken from git history; it is skipped when the
checkout lacks that commit (a shallow clone or a source tarball).
"""

import subprocess

import pytest

from repro.bench.harness import REPO_ROOT


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "reference_commit(sha): needs commit sha in the git history",
    )


def _has_commit(commit: str) -> bool:
    try:
        return subprocess.run(
            ["git", "-C", str(REPO_ROOT), "cat-file", "-e",
             f"{commit}^{{commit}}"],
            capture_output=True,
        ).returncode == 0
    except OSError:
        return False


@pytest.fixture(autouse=True)
def _needs_reference_commit(request):
    marker = request.node.get_closest_marker("reference_commit")
    if marker is not None and not _has_commit(marker.args[0]):
        pytest.skip(f"git history lacks reference commit {marker.args[0]}")
