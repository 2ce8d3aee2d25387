"""Rendezvous (HRW) session placement: stable, minimally disruptive, uniform."""

import pytest

from repro.server import rendezvous_owner, rendezvous_score, session_home


# ---------------------------------------------------------------------------
# rendezvous (HRW) session placement — the ISSUE-10 property suite


#: 10k realistic session names, shared across the property tests below.
NAMES = [f"session-{i}" for i in range(10_000)]


class TestRendezvousPlacement:
    def test_owner_is_the_argmax_of_scores(self):
        for name in ("alpha", "beta", "s:17", ""):
            scores = [rendezvous_score(index, name) for index in range(8)]
            assert rendezvous_owner(name, 8) == scores.index(max(scores))

    def test_deterministic_across_processes(self):
        # blake2b, not Python hash(): no per-process salt.  Golden values
        # pin the function cross-version — a router and its restarted
        # successor (or two routers sharing a data_dir) must agree.
        assert [rendezvous_owner(n, 8) for n in ("alpha", "beta", "s:17", "")] == [
            1, 3, 7, 1,
        ]
        assert [rendezvous_owner(f"s{i}", 4) for i in range(8)] == [
            3, 3, 3, 2, 1, 0, 1, 0,
        ]

    def test_rejects_empty_pool(self):
        with pytest.raises(ValueError):
            rendezvous_owner("x", 0)

    @pytest.mark.parametrize("count", [2, 3, 4, 8])
    def test_grow_by_one_relocates_about_one_in_n(self, count):
        # The minimal-disruption property that motivates HRW over
        # hash-mod-N: adding a worker moves only the sessions whose new
        # worker wins the score race — an expected 1/(N+1) of them —
        # instead of re-homing nearly everything.
        moved = sum(
            1
            for name in NAMES
            if rendezvous_owner(name, count) != rendezvous_owner(name, count + 1)
        )
        expected = len(NAMES) / (count + 1)
        assert 0.8 * expected <= moved <= 1.25 * expected

    @pytest.mark.parametrize("count", [2, 3, 4, 8])
    def test_shrink_by_one_relocates_only_the_lost_workers_sessions(self, count):
        # Shrinking is exactly minimal: a session moves iff its owner was
        # the removed worker (every surviving worker's score is unchanged).
        for name in NAMES[:1000]:
            before = rendezvous_owner(name, count + 1)
            after = rendezvous_owner(name, count)
            if before < count:
                assert after == before
            else:
                assert after < count

    def test_uniform_within_tolerance_chi_square(self):
        # Chi-square goodness of fit over 10k names into 8 buckets:
        # df=7, p=0.001 critical value 24.32.  Deterministic inputs, so
        # this never flakes — it fails only if the hash is biased.
        count = 8
        buckets = [0] * count
        for name in NAMES:
            buckets[rendezvous_owner(name, count)] += 1
        expected = len(NAMES) / count
        chi_square = sum(
            (observed - expected) ** 2 / expected for observed in buckets
        )
        assert chi_square < 24.32, f"placement is biased: {buckets}"

    def test_session_home_is_rendezvous(self):
        for name in NAMES[:100]:
            assert session_home(name, 5) == rendezvous_owner(name, 5)
