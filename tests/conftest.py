"""Shared fixtures: the paper's worked example and small synthetic datasets."""

from __future__ import annotations

import pytest

from repro import BlockPurging, TokenBlocking
from repro.datasets import (
    bibliographic_dataset,
    paper_example_blocks,
    paper_example_dataset,
    random_dataset,
)
from repro.datasets.synthetic import DatasetScale

# The paper's Figure 2(a) JS weights, keyed by 0-based entity id pairs
# (p1..p6 -> 0..5). Derived in src/repro/datasets/examples.py.
PAPER_JS_WEIGHTS = {
    (0, 2): 2 / 6,
    (0, 3): 1 / 6,
    (1, 2): 1 / 7,
    (1, 3): 2 / 5,
    (2, 3): 1 / 8,
    (2, 4): 2 / 5,
    (2, 5): 1 / 5,
    (3, 4): 1 / 5,
    (3, 5): 1 / 4,
    (4, 5): 1 / 2,
}


@pytest.fixture(scope="session")
def example_dataset():
    """The six profiles of the paper's Figure 1(a)."""
    return paper_example_dataset()


@pytest.fixture(scope="session")
def example_blocks():
    """The eight Token Blocking blocks of Figure 1(b)."""
    return paper_example_blocks()


@pytest.fixture(scope="session")
def small_clean_clean():
    """A small Clean-Clean synthetic dataset for integration tests."""
    return bibliographic_dataset(
        DatasetScale(size1=120, size2=300, num_duplicates=100), seed=11
    )


@pytest.fixture(scope="session")
def small_dirty(small_clean_clean):
    """The Dirty ER union of ``small_clean_clean``."""
    return small_clean_clean.to_dirty()


@pytest.fixture(scope="session")
def small_clean_blocks(small_clean_clean):
    """Purged Token Blocking blocks of the small Clean-Clean dataset."""
    return BlockPurging().process(TokenBlocking().build(small_clean_clean))


@pytest.fixture(scope="session")
def small_dirty_blocks(small_dirty):
    """Purged Token Blocking blocks of the small Dirty dataset."""
    return BlockPurging().process(TokenBlocking().build(small_dirty))


@pytest.fixture
def spill_leak_check(tmp_path):
    """A spill directory asserted empty of run artifacts after the test.

    Any ``run-*`` directory still present when the test body finishes
    (without the test having finalised a view over it) is a leaked spill
    artifact. The fixture yields the parent directory to pass as
    ``spill_dir``; tests that keep a finalised view alive should
    ``release()`` it before returning.
    """
    spill_dir = tmp_path / "spill"
    yield spill_dir
    leaked = sorted(p.name for p in spill_dir.glob("run-*")) if spill_dir.exists() else []
    assert not leaked, f"leaked spill run directories: {leaked}"


@pytest.fixture(scope="session")
def tiny_dirty():
    """A 60-entity random Dirty dataset (fast unit-test input)."""
    return random_dataset(num_entities=60, num_duplicates=15, seed=3)


@pytest.fixture(scope="session")
def tiny_dirty_blocks(tiny_dirty):
    return TokenBlocking().build(tiny_dirty)
