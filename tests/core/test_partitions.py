"""Unit tests for partition generation."""

import pytest

from repro.core.partitions import (
    bell_number,
    count_set_partitions,
    count_type_partitions,
    set_partitions,
    type_partitions,
)


class TestBellNumbers:
    def test_known_values(self):
        assert [bell_number(n) for n in range(9)] == [
            1, 1, 2, 5, 15, 52, 203, 877, 4140,
        ]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bell_number(-1)

    def test_alias(self):
        assert count_set_partitions(5) == bell_number(5)


class TestSetPartitions:
    @pytest.mark.parametrize("n", range(8))
    def test_counts_match_bell(self, n):
        assert sum(1 for _ in set_partitions(list(range(n)))) == bell_number(n)

    def test_empty_set(self):
        assert list(set_partitions([])) == [[]]

    def test_singleton(self):
        assert list(set_partitions(["a"])) == [[["a"]]]

    def test_partitions_are_valid(self):
        items = list(range(5))
        for partition in set_partitions(items):
            flat = sorted(x for block in partition for x in block)
            assert flat == items
            assert all(block for block in partition)

    def test_all_distinct(self):
        seen = set()
        for partition in set_partitions(list(range(6))):
            canonical = frozenset(frozenset(b) for b in partition)
            assert canonical not in seen
            seen.add(canonical)

    def test_yields_fresh_lists(self):
        gen = set_partitions([1, 2, 3])
        first = next(gen)
        first[0].append(99)
        second = next(gen)
        assert 99 not in [x for block in second for x in block]


class TestTypePartitions:
    def test_counts_preserved(self):
        for partition in type_partitions((3, 2, 1)):
            sums = [sum(block[i] for block in partition) for i in range(3)]
            assert sums == [3, 2, 1]

    def test_canonical_order(self):
        for partition in type_partitions((3, 2, 1)):
            assert list(partition) == sorted(partition, reverse=True)

    def test_all_distinct(self):
        seen = set()
        for partition in type_partitions((3, 2, 2)):
            assert partition not in seen
            seen.add(partition)

    def test_matches_collapsed_set_partitions(self):
        # Gold standard: collapse raw set partitions of typed items.
        items = ["c"] * 3 + ["m"] * 2 + ["i"]

        def collapse(partition):
            keys = []
            for block in partition:
                keys.append(
                    (
                        sum(1 for x in block if x == "c"),
                        sum(1 for x in block if x == "m"),
                        sum(1 for x in block if x == "i"),
                    )
                )
            return tuple(sorted(keys, reverse=True))

        expected = {collapse(p) for p in set_partitions(items)}
        got = {tuple(sorted(p, reverse=True)) for p in type_partitions((3, 2, 1))}
        assert got == expected

    def test_bounds_prune_blocks(self):
        bounded = list(type_partitions((4, 0, 0), bounds=(2, 0, 0)))
        for partition in bounded:
            assert all(block[0] <= 2 for block in partition)
        # (4,0,0) with max part 2: {4}, {3,1} excluded; {2,2}, {2,1,1},
        # {1,1,1,1} remain.
        assert len(bounded) == 3

    def test_empty_batch(self):
        assert list(type_partitions((0, 0, 0))) == [()]

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            list(type_partitions((-1, 0, 0)))

    def test_negative_bounds_rejected(self):
        with pytest.raises(ValueError):
            list(type_partitions((1, 0, 0), bounds=(-1, 0, 0)))

    def test_count_helper(self):
        assert count_type_partitions((2, 1, 0)) == 4

    def test_much_smaller_than_bell(self):
        # The whole point of the type-aware fast path.
        n_typed = count_type_partitions((4, 3, 3))
        assert n_typed < bell_number(10) / 50


class TestCountTypePartitions:
    """The memoized DP count must agree with generator exhaustion."""

    @pytest.mark.parametrize(
        "counts",
        [(0, 0, 0), (1, 0, 0), (3, 0, 0), (2, 2, 0), (3, 2, 1), (2, 2, 2), (4, 3, 1)],
    )
    def test_matches_generator_unbounded(self, counts):
        assert count_type_partitions(counts) == sum(1 for _ in type_partitions(counts))

    @pytest.mark.parametrize(
        "counts,bounds",
        [
            ((4, 0, 0), (2, 0, 0)),
            ((3, 2, 1), (2, 1, 1)),
            ((2, 2, 2), (1, 1, 1)),
            ((5, 3, 0), (3, 2, 2)),
        ],
    )
    def test_matches_generator_bounded(self, counts, bounds):
        assert count_type_partitions(counts, bounds) == sum(
            1 for _ in type_partitions(counts, bounds)
        )

    def test_infeasible_bounds_count_zero(self):
        # A class with demand but zero per-block headroom: no partition.
        assert count_type_partitions((1, 0, 0), bounds=(0, 2, 2)) == 0
        assert list(type_partitions((1, 0, 0), bounds=(0, 2, 2))) == []

    def test_large_count_is_fast(self):
        # 12.5M partitions counted in well under a second -- far beyond
        # what generator exhaustion could enumerate in test time.
        assert count_type_partitions((9, 7, 7)) == 12_569_747

    def test_validation_matches_generator(self):
        with pytest.raises(ValueError):
            count_type_partitions((-1, 0, 0))
        with pytest.raises(ValueError):
            count_type_partitions((1, 0, 0), bounds=(-1, 0, 0))


class TestPruneCallback:
    def test_none_prune_is_default(self):
        assert list(type_partitions((2, 1, 0), prune=None)) == list(
            type_partitions((2, 1, 0))
        )

    def test_prune_sees_prefix_and_remaining(self):
        seen = []

        def prune(prefix, remaining):
            seen.append((tuple(prefix), remaining))
            return False

        list(type_partitions((2, 0, 0), prune=prune))
        # Every call's prefix blocks plus remaining must sum to the batch.
        for prefix, remaining in seen:
            totals = [
                sum(block[d] for block in prefix) + remaining[d] for d in range(3)
            ]
            assert totals == [2, 0, 0]

    def test_prune_cuts_subtrees(self):
        # Refusing any prefix starting with the (2,0,0) block removes
        # exactly the {2} partition of (2,0,0), keeping {1,1}.
        kept = list(
            type_partitions((2, 0, 0), prune=lambda prefix, _rest: prefix[-1][0] == 2)
        )
        assert kept == [((1, 0, 0), (1, 0, 0))]

    def test_prune_everything_yields_nothing(self):
        assert list(type_partitions((3, 2, 1), prune=lambda *_: True)) == []


class TestDeadEnds:
    def test_dead_ends_interleave_the_same_partitions_and_prune_calls(self):
        def run(yield_dead_ends):
            calls = []

            def prune(prefix, remaining):
                calls.append((tuple(prefix), remaining))
                return prefix[-1] == (1, 1, 0)

            items = list(
                type_partitions(
                    (3, 2, 1), (2, 2, 1), prune=prune, yield_dead_ends=yield_dead_ends
                )
            )
            return items, calls

        plain, plain_calls = run(False)
        marked, marked_calls = run(True)
        assert None not in plain
        assert [item for item in marked if item is not None] == plain
        assert marked_calls == plain_calls
        # Pruned prefixes and unfillable ones both mark a dead end.
        pruned = sum(1 for prefix, _ in plain_calls if prefix[-1] == (1, 1, 0))
        assert marked.count(None) > pruned > 0

    def test_unfillable_prefix_is_a_dead_end(self):
        # After the (0, 1, 0) block the ceiling allows no CPU VM, so the
        # prefix ((0, 1, 0),) can never place the batch's CPU VM.
        items = list(type_partitions((1, 1, 0), yield_dead_ends=True))
        assert [item for item in items if item is not None] == list(
            type_partitions((1, 1, 0))
        )
        assert items.count(None) == 1
