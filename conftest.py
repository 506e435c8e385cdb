"""Repository-wide pytest configuration.

Registers the opt-in stress marker: ``kernel_stress`` covers long
cross-kernel differential chains aimed at the ooc kernel's streaming
sweeps, which CI runs in a dedicated seeded job.  They are skipped
unless pytest is invoked with ``--kernel-stress``.
"""

import pytest

_STRESS_MARKERS = {
    "kernel_stress": (
        "--kernel-stress",
        "heavy randomized cross-kernel differential stress tests",
    ),
}


def pytest_addoption(parser):
    for flag, helptext in _STRESS_MARKERS.values():
        parser.addoption(
            flag,
            action="store_true",
            default=False,
            help=f"run the {helptext}",
        )


def pytest_configure(config):
    for marker, (flag, helptext) in _STRESS_MARKERS.items():
        config.addinivalue_line(
            "markers", f"{marker}: {helptext} (enabled with {flag})"
        )


def pytest_collection_modifyitems(config, items):
    for marker, (flag, _) in _STRESS_MARKERS.items():
        if config.getoption(flag):
            continue
        skip = pytest.mark.skip(reason=f"needs {flag}")
        for item in items:
            if marker in item.keywords:
                item.add_marker(skip)
