"""A session cache of the paper commands' published-default runs."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


@pytest.fixture(scope="session")
def published(tmp_path_factory):
    """``published(command)`` -> ``{experiment_id: {series: ys}}``.

    Each command runs at its published defaults (``repro-arrow --json``)
    once per session, so the pinned-value tests and the paper-scale
    assertions share one run — ``thm41``'s alone takes seconds.
    """
    tables: dict[str, dict[str, dict[str, list[float]]]] = {}

    def run(command: str) -> dict[str, dict[str, list[float]]]:
        if command not in tables:
            path = tmp_path_factory.mktemp(command) / "out.json"
            assert main(["--json", str(path), command]) == 0
            tables[command] = {
                doc["experiment_id"]: {s["name"]: s["ys"] for s in doc["series"]}
                for doc in json.loads(path.read_text())
            }
        return tables[command]

    return run
