"""Replayable repro lines for the randomized differential suites.

Every divergence reported by the differential harness carries one
self-contained command line: which test file, which seed, which chain
index inside the batch, and which pair of implementations disagreed.
Pasting that line into a shell reruns exactly the failing chain (the
chains are seeded, so the replay is deterministic).
"""

from __future__ import annotations

REPLAY_ENV = "JEDD_DIFF_SEED"


def repro_line(
    test_file: str,
    seed: int,
    chain_index: int,
    pair: str,
) -> str:
    """One-line replay recipe for a diverging chain.

    ``pair`` names the two implementations that disagreed (for example
    ``"reference-bdd vs ooc-bdd"``); ``seed`` alone is sufficient to
    replay, the chain index and pair localize the failure for a human.
    """
    return (
        f"REPRO: {REPLAY_ENV}={seed} PYTHONPATH=src python -m pytest "
        f"{test_file} -k replay -q  "
        f"# chain {chain_index}, diverged: {pair}"
    )
