"""A Merkle tree over an ordered list of leaves, with single-leaf and multi-leaf proofs.

The tree is the binary-Merkle construction the paper uses for its ADS
(Figure 4b): leaves hold record hashes, interior nodes hash the concatenation
of their children.  A proof is the flat tuple of sibling digests from the leaf
up; which side each sits on is read off the bits of the leaf index, never off
the proof.  Verification is pure functions: off-chain parties call them for
free, and an on-chain verifier knows what a walk costs before it starts
(:attr:`MerkleProof.num_nodes` pair hashes), so it meters a proof as one
amount instead of once per hash.

Several leaves proved together share one :class:`MultiProof`: the paths of a
batch repeat each other's upper siblings and carry siblings that are hashes of
other leaves of the batch, so the batch ships only the digests its own leaves
cannot compute (:meth:`MerkleTree.prove_many`), and what a verifier will need
and hash is known from the leaf positions alone (:func:`multiproof_shape`).
A contiguous run of leaves is ``prove_many(range(start, end))``: every leaf
hash in it is checked, and its interior siblings are not shipped at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

from repro.common.errors import IntegrityError
from repro.common.hashing import DIGEST_SIZE_BYTES, EMPTY_DIGEST, hash_pair, keccak


def clear_pair_memo() -> None:
    """Do nothing: interior-node digests are not memoized.  Kept only for
    ``benchmarks/suite/harness.py::_fresh_state``, which still calls it."""


@dataclass(frozen=True)
class MerkleProof:
    """Authentication path proving that a leaf is at ``leaf_index``: the
    sibling digest at every level, leaf level first."""

    leaf_index: int
    leaf_count: int
    path: Tuple[bytes, ...]

    @property
    def num_nodes(self) -> int:
        return len(self.path)

    @property
    def is_bound(self) -> bool:
        """Whether the path fits the position it claims: an index inside the
        leaf count and one sibling per level of a tree that size.  Checking
        this hashes nothing, so a verifier that meters does it first."""
        return 0 <= self.leaf_index < self.leaf_count and len(
            self.path
        ) == expected_proof_length(self.leaf_count)


@dataclass(frozen=True)
class MultiProof:
    """One proof for a set of leaves of one tree: the sibling digests the
    leaves cannot compute among themselves, level by level from the leaf level
    up and left to right within a level.  Which leaves it proves is not part
    of it — the verifier walks the positions it was asked about
    (:func:`multiproof_shape`), so a proof for other leaves has the wrong
    number of digests or arrives at another root.  For one leaf the siblings
    are exactly :attr:`MerkleProof.path`."""

    leaf_count: int
    siblings: Tuple[bytes, ...]

    @property
    def size_words(self) -> int:
        """Proof size in 32-byte words (one word per sibling digest)."""
        return len(self.siblings)


class MerkleTree:
    """A full binary Merkle tree over an ordered sequence of leaf hashes.

    The tree pads the leaf level to the next power of two with an empty
    digest, so the shape is stable and proofs have a fixed length of
    ``ceil(log2(n))`` for ``n`` leaves.  Point updates recompute only the path
    to the root.
    """

    def __init__(self, leaf_hashes: Sequence[bytes]) -> None:
        # The leaves are ``_levels[0][:_leaf_count]``; the rest is padding.
        self._leaf_count = len(leaf_hashes)
        self._levels: List[List[bytes]] = []
        self._rebuild(list(leaf_hashes))

    # -- construction ---------------------------------------------------------

    def _rebuild(self, padded: List[bytes]) -> None:
        """Pad the leaf level ``padded`` (taken over) and hash the levels above."""
        padded.extend([EMPTY_DIGEST] * (_width(len(padded)) - len(padded)))
        levels = [padded]
        while len(levels[-1]) > 1:
            current = levels[-1]
            parent = [
                hash_pair(current[i], current[i + 1])
                for i in range(0, len(current), 2)
            ]
            levels.append(parent)
        self._levels = levels

    @classmethod
    def from_values(cls, values: Sequence[bytes]) -> "MerkleTree":
        """Build a tree whose leaves are the hashes of ``values``."""
        return cls([keccak(value) for value in values])

    def nodes(self, positions: Sequence[Sequence[int]]) -> bytes:
        """The digests at ``positions`` (one sorted list per level, leaf level
        first — what :func:`changed_nodes` returns) as one flat blob."""
        return b"".join(
            level[position]
            for level, at_level in zip(self._levels, positions)
            for position in at_level
        )

    def patch(
        self, leaf_count: int, positions: Sequence[Sequence[int]], blob: bytes
    ) -> bytes:
        """Resize the tree to ``leaf_count`` leaves and write the :meth:`nodes`
        ``blob`` of another tree at ``positions``; returns the new root.

        Nothing is hashed.  When ``positions`` is :func:`changed_nodes` of the
        slots that differ between this tree and the exporter's, the result is
        the exporter's tree, node for node.
        """
        width = _width(leaf_count)
        if len(positions) != width.bit_length() or len(blob) != DIGEST_SIZE_BYTES * sum(
            map(len, positions)
        ):
            raise IntegrityError(
                f"{len(blob)} node bytes do not fit a {leaf_count}-leaf patch"
            )
        levels = self._levels
        del levels[len(positions) :]
        offset = 0
        for height, at_level in enumerate(positions):
            # Every position a placeholder lands on is in ``positions``, but
            # the leaf level's padding, which stays empty.
            size = width >> height
            if height < len(levels):
                level = levels[height]
                del level[size if height else leaf_count :]
                level.extend([EMPTY_DIGEST] * (size - len(level)))
            else:
                level = [EMPTY_DIGEST] * size
                levels.append(level)
            for position in at_level:
                level[position] = blob[offset : offset + DIGEST_SIZE_BYTES]
                offset += DIGEST_SIZE_BYTES
        self._leaf_count = leaf_count
        return self.root

    # -- queries ----------------------------------------------------------------

    @property
    def root(self) -> bytes:
        if not self._leaf_count:
            return EMPTY_DIGEST
        return self._levels[-1][0]

    @property
    def leaf_count(self) -> int:
        return self._leaf_count

    @property
    def depth(self) -> int:
        return len(self._levels) - 1

    def leaf(self, index: int) -> bytes:
        if not 0 <= index < self._leaf_count:
            raise IndexError(f"leaf index {index} out of range")
        return self._levels[0][index]

    def leaves(self) -> List[bytes]:
        return self._levels[0][: self._leaf_count]

    def prove(self, index: int) -> MerkleProof:
        """Produce the authentication path for the leaf at ``index``."""
        if not 0 <= index < self._leaf_count:
            raise IndexError(f"leaf index {index} out of range")
        # Every level is padded to a power of two, so the sibling exists.
        path = [
            level[(index >> depth) ^ 1]
            for depth, level in enumerate(self._levels[:-1])
        ]
        return MerkleProof(index, self._leaf_count, tuple(path))

    def prove_many(self, indices: Sequence[int]) -> MultiProof:
        """One proof for every leaf in ``indices`` (any order, repeats allowed):
        a deliver batch's records are authenticated together, so a sibling
        two of them share is shipped once and one that is itself the hash of
        proved leaves is not shipped at all."""
        leaf_count = self._leaf_count
        known = sorted(set(indices))
        if known and not 0 <= known[0] <= known[-1] < leaf_count:
            raise IndexError(f"leaf indices {known} out of range")
        siblings: List[bytes] = []
        for level in self._levels[:-1]:
            parents: List[int] = []
            offset, count = 0, len(known)
            while offset < count:
                position = known[offset]
                offset += 1
                if offset < count and known[offset] == position ^ 1:
                    offset += 1  # its sibling is proved too: nothing to ship
                else:
                    siblings.append(level[position ^ 1])
                parents.append(position >> 1)
            known = parents
        return MultiProof(leaf_count, tuple(siblings))

    # -- updates ------------------------------------------------------------------

    def _update_path(self, position: int, new_hash: bytes) -> bytes:
        """Write ``new_hash`` at leaf ``position`` and recompute its root path."""
        self._levels[0][position] = new_hash
        for depth in range(len(self._levels) - 1):
            parent_index = position // 2
            level = self._levels[depth]
            self._levels[depth + 1][parent_index] = hash_pair(
                level[parent_index * 2], level[parent_index * 2 + 1]
            )
            position = parent_index
        return self.root

    def update_leaf(self, index: int, new_hash: bytes) -> bytes:
        """Replace the leaf at ``index`` and return the new root (O(log n))."""
        if not 0 <= index < self._leaf_count:
            raise IndexError(f"leaf index {index} out of range")
        return self._update_path(index, new_hash)

    def stage_leaf(self, index: int, new_hash: bytes) -> None:
        """Write a leaf value *without* recomputing its root path.

        Half of the batched-update protocol: a caller applying many point
        updates stages each leaf, then calls :meth:`recompute_paths` once with
        every staged index, so interior nodes shared by several staged leaves
        are hashed once per batch instead of once per leaf.  Until the
        recompute, :attr:`root` and interior levels are stale — callers must
        not read them mid-batch.  The leaf level itself stays current, so
        interleaved appends (even ones that trigger a rebuild) remain correct.
        """
        if not 0 <= index < self._leaf_count:
            raise IndexError(f"leaf index {index} out of range")
        self._levels[0][index] = new_hash

    def recompute_paths(self, indices: Sequence[int]) -> bytes:
        """Recompute the root paths of the staged leaves at ``indices``.

        Interior nodes are recomputed level by level over the *set* of dirty
        parents, so paths that converge (staged leaves under a common subtree,
        the usual shape of one feed's epoch write batch) are hashed once.
        Returns the new root; equivalent to calling :meth:`update_leaf` for
        each staged leaf individually.
        """
        if not indices:
            return self.root
        parents = {index >> 1 for index in indices}
        for depth in range(len(self._levels) - 1):
            level = self._levels[depth]
            parent_level = self._levels[depth + 1]
            next_parents = set()
            for parent in parents:
                parent_level[parent] = hash_pair(level[parent * 2], level[parent * 2 + 1])
                next_parents.add(parent >> 1)
            parents = next_parents
        return self.root

    def append_leaf(self, new_hash: bytes) -> bytes:
        """Append a leaf at the end and return the new root.

        Amortised O(log n): while the padded leaf level still has spare
        capacity the append is a single path update; when capacity is
        exhausted the tree doubles and rebuilds once.
        """
        index = self._leaf_count
        self._leaf_count += 1
        leaves = self._levels[0]
        if index < len(leaves):
            return self._update_path(index, new_hash)
        leaves.append(new_hash)
        self._rebuild(leaves)
        return self.root


def _width(leaf_count: int) -> int:
    """The padded width of a ``leaf_count``-leaf tree's leaf level."""
    return 1 << max(0, leaf_count - 1).bit_length()


def changed_nodes(
    slots: Iterable[int], old_count: int, new_count: int
) -> List[List[int]]:
    """Where a tree that had ``old_count`` leaves and now has ``new_count``
    may differ from its old self once the leaves at ``slots`` were rewritten:
    per level, leaf level first, the sorted positions of those leaves, their
    ancestors, the ancestors of leaves that turned into padding, and every
    node the old tree was too narrow to have.  Any other node covers leaves
    that did not change, so it holds the same digest as before.
    """
    width, old_width = _width(new_count), _width(old_count)
    dirty = set(slots)
    levels = [sorted(dirty)]
    dirty.update(range(new_count, min(old_count, width)))
    while width > 1:
        width >>= 1
        old_width >>= 1
        dirty = {position >> 1 for position in dirty}
        dirty.update(range(old_width, width))
        levels.append(sorted(dirty))
    return levels


# -- verification (pure: a metering verifier charges before it calls) ---------------


def recompute_root_from_proof(leaf_hash: bytes, proof: MerkleProof) -> bytes:
    """Recompute the root implied by ``leaf_hash`` at ``proof.leaf_index``.

    The path is bound to the position it claims: it must pass
    :attr:`MerkleProof.is_bound` or this raises
    :class:`~repro.common.errors.IntegrityError`, and each sibling's side
    comes from the index bits — the proof carries nothing that could say
    otherwise.  A path for leaf 9 relabelled as leaf 6 therefore does not
    verify: it hashes its siblings on leaf 6's sides and arrives at another
    root.
    """
    if not proof.is_bound:
        raise IntegrityError("proof path does not fit its leaf index and count")
    position = proof.leaf_index
    current = leaf_hash
    for sibling in proof.path:
        if position & 1:
            current = hash_pair(sibling, current)
        else:
            current = hash_pair(current, sibling)
        position >>= 1
    return current


def verify_membership(root: bytes, leaf_hash: bytes, proof: MerkleProof) -> bool:
    """Check that ``leaf_hash`` is a member under ``root`` at ``proof.leaf_index``."""
    try:
        return recompute_root_from_proof(leaf_hash, proof) == root
    except IntegrityError:
        return False


def _check_leaf_positions(indices: Sequence[int], leaf_count: int) -> None:
    if not indices:
        raise IntegrityError("a multiproof proves at least one leaf")
    if indices[0] < 0 or indices[-1] >= leaf_count:
        raise IntegrityError("multiproof leaf index outside the leaf count")
    if any(left >= right for left, right in zip(indices, indices[1:])):
        raise IntegrityError("multiproof leaf indices must be strictly ascending")


def multiproof_shape(indices: Sequence[int], leaf_count: int) -> Tuple[int, int]:
    """``(siblings, pair_hashes)``: how many digests a :class:`MultiProof` for
    the leaves at ``indices`` of a ``leaf_count``-leaf tree carries, and how
    many pair hashes walking it to the root takes.

    Hashes nothing, so a verifier that meters calls it first: the proof's
    length is checked and the whole walk charged before any of it is done.
    ``indices`` must be strictly ascending (sorted, no repeats), non-empty and
    inside the leaf count, or this raises
    :class:`~repro.common.errors.IntegrityError`.  One index needs its
    ``expected_proof_length(leaf_count)`` path siblings and as many hashes.
    """
    _check_leaf_positions(indices, leaf_count)
    # Every distinct ancestor of the leaves is hashed once; an ancestor takes
    # two children, and the ones the walk does not hold are the siblings.
    siblings = pair_hashes = 0
    nodes = set(indices)
    for _ in range(expected_proof_length(leaf_count)):
        parents = {position >> 1 for position in nodes}
        pair_hashes += len(parents)
        siblings += 2 * len(parents) - len(nodes)
        nodes = parents
    return siblings, pair_hashes


def recompute_root_from_multiproof(
    indices: Sequence[int], leaf_hashes: Sequence[bytes], proof: MultiProof
) -> bytes:
    """Recompute the root implied by ``leaf_hashes`` sitting at ``indices``.

    Raises :class:`~repro.common.errors.IntegrityError` unless the proof fits
    the positions exactly: indices :func:`multiproof_shape` would refuse, a
    sibling too few or one left over.  Each sibling's place and side come
    from the positions, as for a single path.
    """
    _check_leaf_positions(indices, proof.leaf_count)
    if len(leaf_hashes) != len(indices):
        raise IntegrityError("one leaf hash per multiproof leaf index")
    # Positions stay ascending from level to level (dicts keep insertion
    # order), so siblings are taken left to right as prove_many laid them out.
    digests = dict(zip(indices, leaf_hashes))
    siblings = iter(proof.siblings)
    try:
        for _ in range(expected_proof_length(proof.leaf_count)):
            parents = {}
            for position, digest in digests.items():
                if position & 1:
                    if position ^ 1 not in digests:
                        parents[position >> 1] = hash_pair(next(siblings), digest)
                else:
                    right = digests.get(position ^ 1)
                    parents[position >> 1] = hash_pair(
                        digest, next(siblings) if right is None else right
                    )
            digests = parents
    except StopIteration:
        raise IntegrityError("multiproof is short of sibling digests") from None
    if next(siblings, None) is not None:
        raise IntegrityError("multiproof has sibling digests left over")
    return digests[0]


def verify_multiproof(
    root: bytes,
    indices: Sequence[int],
    leaf_hashes: Sequence[bytes],
    proof: MultiProof,
) -> bool:
    """Check that every ``leaf_hashes[i]`` is the leaf at ``indices[i]`` under
    ``root``; all of them or none."""
    try:
        return recompute_root_from_multiproof(indices, leaf_hashes, proof) == root
    except IntegrityError:
        return False


def expected_proof_length(leaf_count: int) -> int:
    """Proof length (in digests) for a tree of ``leaf_count`` leaves."""
    return max(0, leaf_count - 1).bit_length()
