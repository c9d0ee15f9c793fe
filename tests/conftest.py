from __future__ import annotations

from types import SimpleNamespace

import pytest

from logsurf.scenario import load_scenario_text, read_scenario


def load_builtin(name: str) -> SimpleNamespace:
    """A built-in scenario read as ``logsurf scenario`` reads it: checked
    against its frozen checksum, then through the scenario reader."""
    text, _ = load_scenario_text(name)
    data, model, divisors = read_scenario(text)
    return SimpleNamespace(model=model, divisors=divisors, data=data)


@pytest.fixture(scope="session")
def ex462() -> SimpleNamespace:
    return load_builtin("ex-462")


@pytest.fixture(scope="session")
def ex825() -> SimpleNamespace:
    return load_builtin("ex-825")
