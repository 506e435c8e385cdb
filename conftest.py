"""Repository-wide pytest configuration.

Registers the opt-in stress markers: heavy randomized suites that CI
runs in dedicated seeded jobs.  ``reorder_stress`` covers long
differential chains and deep swap/integrity fuzzing;
``kernel_stress`` covers long cross-kernel chains aimed at the ooc
kernel's streaming sweeps.  Both are skipped unless pytest is invoked
with the matching flag.
"""

import pytest

_STRESS_MARKERS = {
    "reorder_stress": (
        "--reorder-stress",
        "heavy randomized reordering stress tests",
    ),
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
