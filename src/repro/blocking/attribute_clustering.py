"""Attribute Clustering Blocking.

A redundancy-positive method [Papadakis et al., TKDE 2013] that refines Token
Blocking by partitioning attribute names into clusters of syntactically
similar attributes, then qualifying every token with its attribute cluster:
two profiles co-occur only if they share a token *in comparable attributes*.
This keeps recall (similar attributes are transitively connected) while
splitting the huge token blocks of heterogeneous datasets.

Clustering procedure (as in the original paper):

1. represent every attribute name by the token set of all its values;
2. link every attribute to its most similar attribute (Jaccard over the
   token sets), if that similarity is positive;
3. take the transitive closure of the links — each connected component is a
   cluster;
4. attributes with no link are lumped together into a singleton "glue"
   cluster so that no token is lost.

For Clean-Clean ER, links are only drawn across the two collections (an
attribute of E1 is linked to its most similar attribute of E2 and
vice-versa), mirroring the original formulation.
"""

from __future__ import annotations

from typing import Hashable, Iterable

from repro.blocking.base import BlockingMethod, blocks_from_index
from repro.datamodel.blocks import BlockCollection
from repro.datamodel.dataset import CleanCleanERDataset, ERDataset
from repro.datamodel.profiles import EntityProfile
from repro.utils.tokenize import tokenize
from repro.utils.unionfind import UnionFind

GLUE_CLUSTER = "__glue__"


def _jaccard(left: set[str], right: set[str]) -> float:
    if not left or not right:
        return 0.0
    intersection = len(left & right)
    if intersection == 0:
        return 0.0
    return intersection / (len(left) + len(right) - intersection)


class AttributeClusteringBlocking(BlockingMethod):
    """Token blocking with attribute-cluster-qualified keys."""

    redundancy_positive = True

    def __init__(self, min_token_length: int = 1) -> None:
        if min_token_length < 1:
            raise ValueError(
                f"min_token_length must be positive, got {min_token_length}"
            )
        self.min_token_length = min_token_length
        self._clusters: dict[str, str] = {}

    def keys_for(self, profile: EntityProfile) -> Iterable[Hashable]:
        keys: set[str] = set()
        for attribute in profile.attributes:
            cluster = self._clusters.get(attribute.name, GLUE_CLUSTER)
            for token in tokenize(attribute.value, min_length=self.min_token_length):
                keys.add(f"{cluster}#{token}")
        return keys

    def build(self, dataset: ERDataset) -> BlockCollection:
        self._clusters = self._cluster_attributes(dataset)
        index: dict[Hashable, list[int]] = {}
        for entity_id, profile in dataset.iter_profiles():
            for key in set(self.keys_for(profile)):
                index.setdefault(key, []).append(entity_id)
        return blocks_from_index(index, dataset)

    def _cluster_attributes(self, dataset: ERDataset) -> dict[str, str]:
        """Map every attribute name to a cluster label."""
        token_sets = self._attribute_token_sets(dataset)
        if isinstance(dataset, CleanCleanERDataset):
            groups = self._split_by_source(dataset)
        else:
            # Dirty ER: every attribute may link to any other attribute.
            groups = [set(token_sets), set(token_sets)]
        links = UnionFind(token_sets)
        linked: set[str] = set()
        for source, candidates in ((0, groups[1]), (1, groups[0])):
            for name in groups[source]:
                best_match, best_similarity = None, 0.0
                for candidate in candidates:
                    if candidate == name:
                        continue
                    similarity = _jaccard(token_sets[name], token_sets[candidate])
                    if similarity > best_similarity or (
                        similarity == best_similarity
                        and best_match is not None
                        and similarity > 0.0
                        and str(candidate) < str(best_match)
                    ):
                        best_match, best_similarity = candidate, similarity
                if best_match is not None and best_similarity > 0.0:
                    links.union(name, best_match)
                    linked.add(name)
                    linked.add(best_match)
        clusters: dict[str, str] = {}
        labels: dict[str, str] = {}
        for name in sorted(token_sets):
            if name not in linked:
                clusters[name] = GLUE_CLUSTER
                continue
            root = links.find(name)
            labels.setdefault(root, f"cluster-{len(labels)}")
            clusters[name] = labels[root]
        return clusters

    def _attribute_token_sets(self, dataset: ERDataset) -> dict[str, set[str]]:
        token_sets: dict[str, set[str]] = {}
        for _, profile in dataset.iter_profiles():
            for attribute in profile.attributes:
                token_sets.setdefault(attribute.name, set()).update(
                    tokenize(attribute.value, min_length=self.min_token_length)
                )
        return token_sets

    @staticmethod
    def _split_by_source(dataset: CleanCleanERDataset) -> list[set[str]]:
        return [
            set(dataset.collection1.attribute_names),
            set(dataset.collection2.attribute_names),
        ]
