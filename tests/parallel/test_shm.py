"""Differential and chaos tests for the shared-memory transport.

The contract under test: ``transport="shm"`` is *indistinguishable* from
``transport="pickle"`` and from single-process mining — identical
itemsets, identical budget-trip behaviour, identical partial results —
while shipping orders of magnitude fewer bytes and leaking no
``/dev/shm`` segment on any exit path.
"""

import os
import subprocess
import sys
import textwrap

import pytest

from repro.core.conditional import mine_conditional
from repro.core.flat import FlatPLT
from repro.core.plt import PLT
from repro.core.topdown import topdown_subset_frequencies
from repro.errors import BudgetExceeded, Cancelled, InvalidParameterError
from repro.parallel.executor import mine_parallel, topdown_parallel
from repro.parallel.shm import plan_path_slices, plan_rank_ranges
from repro.perf.counters import COUNTERS, collecting
from repro.robustness.governor import (
    CancellationToken,
    MiningBudget,
    ResourceGovernor,
)
from tests.conftest import random_database


def _segments():
    return [f for f in os.listdir("/dev/shm") if f.startswith("plt_shm_")]


needs_dev_shm = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="no /dev/shm on this platform"
)


class TestDifferential:
    """shm == pickle == single-process, across many seeded databases."""

    @pytest.mark.parametrize("seed", range(20))
    def test_conditional_three_ways(self, seed):
        db = random_database(seed + 1000, max_items=11, max_transactions=60)
        plt = PLT.from_transactions(db, 2)
        serial = sorted(mine_conditional(plt, 2))
        pickle_r = sorted(mine_parallel(plt, 2, n_workers=2, transport="pickle"))
        shm_r = sorted(mine_parallel(plt, 2, n_workers=2, transport="shm"))
        assert shm_r == pickle_r == serial

    @pytest.mark.parametrize("seed", range(6))
    def test_topdown_three_ways(self, seed):
        db = random_database(seed + 1100, max_items=9, max_transactions=40)
        plt = PLT.from_transactions(db, 2)
        serial = topdown_subset_frequencies(plt)
        pickle_r = topdown_parallel(plt, n_workers=2, transport="pickle")
        shm_r = topdown_parallel(plt, n_workers=2, transport="shm")
        assert shm_r == pickle_r == serial

    @pytest.mark.parametrize("seed", [3, 9])
    def test_sweep_fallback_range_miner(self, seed, monkeypatch):
        # force the range workers off the dense-matrix path so the
        # fused-engine formulation of range mining is exercised end to end
        import repro.core.flat as flat_mod

        monkeypatch.setattr(flat_mod, "_PAIR_MATRIX_MAX_CELLS", 0)
        db = random_database(seed + 1200, max_items=10, max_transactions=50)
        plt = PLT.from_transactions(db, 2)
        serial = sorted(mine_conditional(plt, 2))
        shm_r = sorted(mine_parallel(plt, 2, n_workers=2, transport="shm"))
        assert shm_r == serial

    def test_max_len_respected(self):
        db = random_database(1300, max_items=10, max_transactions=50)
        plt = PLT.from_transactions(db, 2)
        shm_r = mine_parallel(plt, 2, n_workers=2, transport="shm", max_len=2)
        assert shm_r and all(len(i) <= 2 for i, _ in shm_r)
        pickle_r = mine_parallel(
            plt, 2, n_workers=2, transport="pickle", max_len=2
        )
        assert sorted(shm_r) == sorted(pickle_r)

    def test_empty_and_single_worker(self):
        assert mine_parallel(
            PLT.from_transactions([], 1), 1, n_workers=2, transport="shm"
        ) == []
        # one worker never leaves the process regardless of transport
        db = random_database(1301, max_items=8, max_transactions=30)
        plt = PLT.from_transactions(db, 2)
        assert sorted(
            mine_parallel(plt, 2, n_workers=1, transport="shm")
        ) == sorted(mine_conditional(plt, 2))

    def test_unknown_transport_rejected(self):
        db = random_database(1302, max_items=8, max_transactions=30)
        plt = PLT.from_transactions(db, 2)
        with pytest.raises(InvalidParameterError, match="transport"):
            mine_parallel(plt, 2, n_workers=2, transport="tcp")
        with pytest.raises(InvalidParameterError, match="transport"):
            topdown_parallel(plt, n_workers=2, transport="tcp")


class TestPlanning:
    def test_rank_ranges_cover_frequent_span(self):
        db = random_database(1400, max_items=12, max_transactions=80)
        flat = FlatPLT.from_plt(PLT.from_transactions(db, 2))
        ranges = plan_rank_ranges(flat, 2, 3)
        assert ranges
        # contiguous, ordered, non-empty
        for (lo, hi), (lo2, _hi2) in zip(ranges, ranges[1:]):
            assert lo < hi == lo2
        sup = flat.rank_supports()
        frequent = [r for r, s in enumerate(sup) if r >= 1 and s >= 2]
        assert ranges[0][0] == frequent[0]
        assert ranges[-1][1] == frequent[-1] + 1

    def test_rank_ranges_empty_when_nothing_frequent(self):
        db = random_database(1401, max_items=8, max_transactions=20)
        flat = FlatPLT.from_plt(PLT.from_transactions(db, 1))
        assert plan_rank_ranges(flat, 10_000, 4) == []

    def test_path_slices_partition_all_paths(self):
        db = random_database(1402, max_items=9, max_transactions=50)
        flat = FlatPLT.from_plt(PLT.from_transactions(db, 2))
        slices = plan_path_slices(flat, 3)
        assert slices[0][0] == 0 and slices[-1][1] == flat.n_paths
        for (_, hi), (lo2, _) in zip(slices, slices[1:]):
            assert hi == lo2


class TestGoverned:
    """Budget trips must be transport-invariant."""

    def _plt(self):
        db = random_database(1500, max_items=11, max_transactions=70)
        return PLT.from_transactions(db, 2)

    def test_max_itemsets_trip_parity(self):
        plt = self._plt()
        outcomes = {}
        for transport in ("pickle", "shm"):
            governor = ResourceGovernor(MiningBudget(max_itemsets=8))
            with pytest.raises(BudgetExceeded) as info:
                mine_parallel(
                    plt, 2, n_workers=2, transport=transport, governor=governor
                )
            outcomes[transport] = (info.value.reason, len(info.value.partial))
        assert outcomes["shm"] == outcomes["pickle"]
        assert outcomes["shm"][0] == "max_itemsets"
        assert outcomes["shm"][1] == 8

    def test_partial_results_are_real_itemsets(self):
        plt = self._plt()
        serial = dict(mine_conditional(plt, 2))
        governor = ResourceGovernor(MiningBudget(max_itemsets=8))
        with pytest.raises(BudgetExceeded) as info:
            mine_parallel(
                plt, 2, n_workers=2, transport="shm", governor=governor
            )
        for itemset, support in info.value.partial:
            assert serial[itemset] == support

    def test_precancelled_token_parity(self):
        plt = self._plt()
        for transport in ("pickle", "shm"):
            token = CancellationToken()
            token.cancel("stop requested")
            governor = ResourceGovernor(cancel=token)
            with pytest.raises(Cancelled):
                mine_parallel(
                    plt, 2, n_workers=2, transport=transport, governor=governor
                )

    def test_facade_partial_result_parity(self):
        from repro.core.mining import PartialResult, mine_frequent_itemsets

        db = random_database(1501, max_items=11, max_transactions=70)
        markers = {}
        for transport in ("pickle", "shm"):
            result = mine_frequent_itemsets(
                db,
                2,
                method="plt-parallel",
                n_workers=2,
                transport=transport,
                max_itemsets=8,
            )
            assert isinstance(result, PartialResult)
            markers[transport] = (result.stop_reason, len(result))
        assert markers["shm"] == markers["pickle"]

    @needs_dev_shm
    def test_no_segment_leak_after_trip(self):
        before = set(_segments())
        self.test_max_itemsets_trip_parity()
        self.test_precancelled_token_parity()
        assert set(_segments()) == before


class TestIpcAccounting:
    def test_shm_ships_far_fewer_bytes(self):
        # needs a database big enough that pickled conditional tasks are
        # the dominant traffic (on toy inputs the shm meta dict wins)
        from repro.data.datasets import load

        db = load("T10.I4.D1K")
        plt = PLT.from_transactions(db, min_support=10)
        sent = {}
        for transport in ("pickle", "shm"):
            with collecting():
                mine_parallel(plt, 10, n_workers=2, transport=transport)
                sent[transport] = COUNTERS.snapshot().get("ipc_bytes_sent", 0)
        assert 0 < sent["shm"] < sent["pickle"] / 10


@needs_dev_shm
class TestCleanup:
    def test_success_leaves_no_segments(self):
        before = set(_segments())
        db = random_database(1700, max_items=10, max_transactions=50)
        plt = PLT.from_transactions(db, 2)
        mine_parallel(plt, 2, n_workers=2, transport="shm")
        topdown_parallel(plt, n_workers=2, transport="shm")
        assert set(_segments()) == before

    def test_chaos_sigkilled_worker(self, tmp_path):
        """SIGKILL a worker mid-block: results still correct, no leaked
        segment, no resource_tracker noise at interpreter exit.

        Runs in a subprocess because the resource tracker only reports
        (and the tracker process only prints) at interpreter shutdown.
        """
        script = textwrap.dedent(
            """
            import json, os, sys
            from repro.core.conditional import mine_conditional
            from repro.core.flat import FlatPLT
            from repro.core.plt import PLT
            from repro.parallel.executor import mine_parallel
            from repro.parallel.shm import CHAOS_KILL_ENV, plan_rank_ranges
            from repro.robustness.retry import RetryPolicy
            from tests.conftest import random_database
            import warnings

            db = random_database(1800, max_items=10, max_transactions=50)
            plt = PLT.from_transactions(db, 2)
            expected = sorted(mine_conditional(plt, 2))

            ranges = plan_rank_ranges(FlatPLT.from_plt(plt), 2, 2)
            # poison the first range's task; the driver pid guard lets the
            # in-process degraded fallback survive and finish the mine
            os.environ[CHAOS_KILL_ENV] = f"{ranges[0][0]}:{os.getpid()}"
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # expected degrade warning
                got = sorted(mine_parallel(
                    plt, 2, n_workers=2, transport="shm", timeout=2.0,
                    retry=RetryPolicy(
                        max_retries=1, base_delay=0.0, max_delay=0.0
                    ),
                ))
            assert got == expected, "chaos results diverged"
            leaked = [
                f for f in os.listdir("/dev/shm") if f.startswith("plt_shm_")
            ]
            assert not leaked, f"leaked segments: {leaked}"
            print("CHAOS_OK")
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        )
        assert proc.returncode == 0, proc.stderr
        assert "CHAOS_OK" in proc.stdout
        for needle in ("resource_tracker", "leaked", "KeyError"):
            assert needle not in proc.stderr, proc.stderr
