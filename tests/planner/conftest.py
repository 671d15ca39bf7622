"""Shared fixtures for the planner suite.

Every test starts from the default calibration with the
observed-actuals feedback cleared, and leaves it that way.
"""

import pytest

from repro import planner


@pytest.fixture(autouse=True)
def _pristine_planner_config():
    planner.reset()
    planner.reset_feedback()
    yield
    planner.reset()
    planner.reset_feedback()
