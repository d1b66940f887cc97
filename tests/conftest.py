"""Shared fixtures, the hypothesis profiles, and the acceptance-criteria
summary hook.

test_acceptance.py records one (pass/fail, detail) entry per criterion
through the ``acceptance`` fixture; after the run pytest prints a
one-line verdict per criterion so the whole gate is readable at a
glance.

``HYPOTHESIS_PROFILE=ci`` selects a derandomized profile: every run
draws the same examples, so a failing property fails again on rerun.
"""
import json
import os
import pathlib

import pytest
from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None,
                          print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

_ACCEPTANCE: dict[int, tuple[bool, str]] = {}

SCHEMA_DIR = pathlib.Path(__file__).resolve().parent.parent / "docs" / "schemas"


@pytest.fixture
def acceptance():
    """Recorder: call with (criterion_number, passed, detail)."""

    def record(num: int, passed: bool, detail: str) -> None:
        _ACCEPTANCE[num] = (bool(passed), detail)

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_ACCEPTANCE):
        passed, detail = _ACCEPTANCE[num]
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {num}: {status} — {detail}")


def load_schema(name: str) -> dict:
    """Load a schema from docs/schemas with local $refs inlined, so
    validation works without a resolver."""
    with open(SCHEMA_DIR / name, encoding="ascii") as fh:
        schema = json.load(fh)

    def inline(node):
        if isinstance(node, dict):
            ref = node.get("$ref")
            if ref and ref.endswith(".schema.json"):
                return load_schema(ref)
            return {key: inline(value) for key, value in node.items()}
        if isinstance(node, list):
            return [inline(item) for item in node]
        return node

    return inline(schema)


@pytest.fixture
def schema_for():
    return load_schema
