"""Shared fixtures: the hand-checked sample ledger and its frozen matrices."""

from __future__ import annotations

import numpy as np
import pytest

from chainpetri import Block

from helpers import build_net

# Six addresses, seven transactions (four of them coinbase).  The expected
# matrices below were frozen from a hand replay of this stream.
SAMPLE_TXS = [
    ("t1", [], ["a1"]),
    ("t2", [], ["a1"]),
    ("t3", ["a1"], ["a2", "a3", "a4"]),
    ("t4", [], ["a2"]),
    ("t5", ["a2", "a3"], ["a5", "a6"]),
    ("t6", [], ["a2"]),
    ("t7", ["a2", "a6"], ["a5"]),
]

# rows a1..a6, columns t1..t7
SAMPLE_PRE = np.array(
    [
        [0, 0, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 0, 1],
        [0, 0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 1],
    ],
    dtype=np.int64,
)

SAMPLE_POST = np.array(
    [
        [1, 1, 0, 0, 0, 0, 0],
        [0, 0, 1, 1, 0, 1, 0],
        [0, 0, 1, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 0, 1],
        [0, 0, 0, 0, 1, 0, 0],
    ],
    dtype=np.int64,
)

# entity rows: {a1}, {a2,a3,a6}, {a4}, {a5}
SAMPLE_ENTITIES = [["a1"], ["a2", "a3", "a6"], ["a4"], ["a5"]]

SAMPLE_PRE_E = np.array(
    [
        [0, 0, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 2, 0, 2],
        [0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0],
    ],
    dtype=np.int64,
)

SAMPLE_POST_E = np.array(
    [
        [1, 1, 0, 0, 0, 0, 0],
        [0, 0, 2, 1, 1, 1, 0],
        [0, 0, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 0, 1],
    ],
    dtype=np.int64,
)


# filled by the acceptance suite's criterion decorator
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def sample_net():
    return build_net(SAMPLE_TXS)


@pytest.fixture
def sample_blocks():
    split = 4
    return [
        Block.of(0, SAMPLE_TXS[:split]),
        Block.of(1, SAMPLE_TXS[split:]),
    ]
