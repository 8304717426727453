"""Shared machinery for blocking methods."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Hashable, Iterable

from repro.datamodel.blocks import BlockCollection, csr_offsets, flatten_runs
from repro.datamodel.dataset import CleanCleanERDataset, ERDataset
from repro.datamodel.profiles import EntityProfile


class BlockingMethod(ABC):
    """Base class: turn an ER dataset into a block collection.

    Subclasses implement :meth:`keys_for`, mapping a profile to its blocking
    keys; the base class builds the inverted index, drops invalid blocks
    (those yielding no comparison — for Clean-Clean ER a block must contain
    at least one entity from *each* collection) and returns the collection.

    Methods that do not fit the key-based template (Sorted Neighborhood,
    Canopy Clustering) override :meth:`build` directly.
    """

    #: Whether sharing more blocks implies a higher matching likelihood.
    #: Meta-blocking operates *exclusively* on redundancy-positive blocks
    #: (paper Section 2); the pipeline refuses other methods.
    redundancy_positive: bool = False

    @abstractmethod
    def keys_for(self, profile: EntityProfile) -> Iterable[Hashable]:
        """Return the blocking keys of one profile (duplicates are fine)."""

    def build(self, dataset: ERDataset) -> BlockCollection:
        """Build the block collection for ``dataset``.

        Blocks are emitted sorted by key for determinism. Entity ids inside
        each block preserve the dataset iteration order (ascending id).
        """
        index: dict[Hashable, list[int]] = {}
        for entity_id, profile in dataset.iter_profiles():
            for key in set(self.keys_for(profile)):
                index.setdefault(key, []).append(entity_id)
        return blocks_from_index(index, dataset)


def blocks_from_index(
    index: dict[Hashable, list[int]], dataset: ERDataset
) -> BlockCollection:
    """Turn an inverted index ``key -> entity ids`` into valid blocks.

    For Clean-Clean ER the ids are split by source collection into bilateral
    blocks; keys whose entities all come from one side are dropped. For
    Dirty ER, keys with fewer than two entities are dropped. Blocks come
    sorted by key and keep each key's id order; the member arrays are
    built in one pass over the whole index.
    """
    keys = sorted(index, key=str)
    indptr, members = flatten_runs([index[key] for key in keys])
    names = [str(key) for key in keys]
    if isinstance(dataset, CleanCleanERDataset):
        second = members >= dataset.split
        indptr2 = csr_offsets(second)[indptr]
        collection = BlockCollection.from_csr(
            names,
            dataset.num_entities,
            indptr - indptr2,
            members[~second],
            indptr2,
            members[second],
        )
    else:
        collection = BlockCollection.from_csr(
            names, dataset.num_entities, indptr, members
        )
    return collection.only_valid()
