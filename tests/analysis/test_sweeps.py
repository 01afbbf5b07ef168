"""Analysis utilities: seed sweeps, beam-mode agreement, rank correlation."""

import math

import pytest

from repro.analysis import (
    AvfSweep,
    beam_mode_agreement,
    rank_correlation,
    seed_sweep_campaign,
)
from repro.arch.devices import KEPLER_K40C
from repro.common.errors import ConfigurationError
from repro.faultsim.frameworks import NvBitFi
from repro.faultsim.outcomes import Outcome
from repro.workloads.registry import get_workload


class TestAvfSweep:
    def test_statistics(self):
        sweep = AvfSweep("X", "F", Outcome.SDC, (0.4, 0.5, 0.45))
        assert sweep.mean == pytest.approx(0.45)
        assert sweep.spread == pytest.approx(0.1)
        assert sweep.stable_within(0.1)
        assert not sweep.stable_within(0.05)

    def test_single_seed_std_zero(self):
        assert AvfSweep("X", "F", Outcome.SDC, (0.4,)).std == 0.0

    def test_campaign_sweep_is_stable(self):
        """AVFs from independent seeds must agree within sampling noise —
        the reproducibility behind the paper's campaign sizing."""
        sweep = seed_sweep_campaign(
            KEPLER_K40C,
            NvBitFi(),
            lambda seed: get_workload("kepler", "FGAUSSIAN", seed=seed),
            injections=100,
            seeds=(0, 1, 2),
        )
        assert len(sweep.values) == 3
        assert sweep.stable_within(0.25)
        assert 0.0 < sweep.mean < 1.0

    def test_empty_seeds_rejected(self):
        with pytest.raises(ConfigurationError):
            seed_sweep_campaign(KEPLER_K40C, NvBitFi(), lambda s: None, 10, ())


class TestBeamModeAgreement:
    def test_estimators_agree(self):
        """MC counting statistics must center on the expected-value FIT."""
        agreement = beam_mode_agreement(
            KEPLER_K40C,
            lambda seed: get_workload("kepler", "FMXM", seed=seed),
            mc_seeds=(0, 1, 2),
            max_fault_evals=100,
        )
        assert agreement.expected_fit > 0
        assert 0.4 < agreement.ratio < 2.5


class TestRankCorrelation:
    def test_perfect_order(self):
        assert rank_correlation([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)

    def test_reversed_order(self):
        assert rank_correlation([1, 2, 3, 4], [40, 30, 20, 10]) == pytest.approx(-1.0)

    def test_ties_share_their_average_rank(self):
        # ranks [1, 2.5, 2.5, 4] vs [1, 3, 2, 4]: rho = 3 / sqrt(10)
        rho = rank_correlation([1, 2, 2, 3], [1, 3, 2, 4])
        assert rho == pytest.approx(3.0 / math.sqrt(10.0), rel=1e-12)

    def test_ties_on_both_sides(self):
        # scipy.stats.spearmanr([1, 1, 2, 3, 3], [2, 1, 1, 4, 5])
        rho = rank_correlation([1, 1, 2, 3, 3], [2, 1, 1, 4, 5])
        assert rho == pytest.approx(0.7299963950884315, rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            rank_correlation([1, 2, 3], [1, 2])

    def test_table1_ipc_ranks_track_paper(self):
        """Quantifies the Table I shape claim: our measured Kepler IPC
        ranking positively correlates with the paper's NVPROF ranking."""
        from repro.profiling import Profiler

        paper = {
            "CCL": 0.14, "BFS": 1.22, "FGAUSSIAN": 0.51, "FLUD": 0.58, "NW": 0.2,
            "FMXM": 1.5, "MERGESORT": 2.11, "QUICKSORT": 1.97, "FGEMM": 4.94,
        }
        profiler = Profiler(KEPLER_K40C)
        ours = [
            profiler.metrics(get_workload("kepler", code)).ipc for code in paper
        ]
        rho = rank_correlation(ours, list(paper.values()))
        assert rho > 0.3
