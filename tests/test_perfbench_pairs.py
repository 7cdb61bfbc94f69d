"""The verdict and pair lines of ``benchmarks/perfbench_pairs.py`` on
synthetic samples."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "perfbench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_pairs", _PATH)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)
verdict = pairs.verdict

#: ten base samples around 2.0 s: median 2.0, IQR 0.04
BASE = [1.96, 1.97, 1.98, 1.99, 2.0, 2.0, 2.01, 2.02, 2.03, 2.04]


class TestVerdict:
    def test_gain_needs_nine_wins_and_a_gap_beyond_the_iqr(self):
        change = [x - 0.3 for x in BASE]
        assert verdict(BASE, change, "lower", 0.25) == "gain"

    def test_eight_wins_are_not_a_gain(self):
        change = [x - 0.3 for x in BASE[:8]] + [x + 0.01 for x in BASE[8:]]
        assert verdict(BASE, change, "lower", 0.25) == "within bound"

    def test_ties_are_not_wins(self):
        change = [x - 0.3 for x in BASE[:8]] + BASE[8:]
        assert verdict(BASE, change, "lower", 0.25) == "within bound"

    def test_a_gap_inside_the_iqr_is_not_a_gain(self):
        change = [x - 0.01 for x in BASE]  # wins 10/10 by less than the IQR
        assert verdict(BASE, change, "lower", 0.25) == "within bound"

    def test_worse_beyond_the_bound_as_a_fraction_of_the_base_median(self):
        assert verdict(BASE, [x * 1.3 for x in BASE], "lower", 0.25) == "worse"
        assert verdict(BASE, [x * 1.2 for x in BASE], "lower", 0.25) == "within bound"

    def test_a_wide_change_is_unresolved(self):
        """Median within the bound, spread wider than it."""
        change = [1.5, 1.6, 1.7, 2.0, 2.0, 2.1, 2.6, 2.7, 2.8, 2.9]
        assert verdict(BASE, change, "lower", 0.25) == "unresolved"

    def test_a_wide_base_is_unresolved(self):
        base = [1.0, 1.0, 1.0, 1.5, 2.0, 2.0, 2.5, 3.0, 3.0, 3.0]
        assert verdict(base, list(base), "lower", 0.25) == "unresolved"

    def test_wide_but_every_change_run_better_is_within_bound(self):
        base = [2.0] * 5 + [4.0] * 5  # median 3, IQR 2: no gain below that
        assert verdict(base, [1.9] * 10, "lower", 0.1) == "within bound"
        assert verdict(base, [1.9] * 9 + [2.1], "lower", 0.1) == "unresolved"

    def test_more_failed_checks_gain_nothing(self):
        change = [x - 0.3 for x in BASE]
        assert verdict(BASE, change, "lower", 0.25, failed_more=True) == "within bound"

    def test_higher_is_better(self):
        assert verdict(BASE, [x + 0.3 for x in BASE], "higher", 0.25) == "gain"
        assert verdict(BASE, [x * 0.7 for x in BASE], "higher", 0.25) == "worse"
        assert verdict(BASE, [x - 0.3 for x in BASE], "higher", 0.25) == "within bound"

    def test_one_pair(self):
        assert verdict([2.0], [1.5], "lower", 0.25) == "gain"
        assert verdict([2.0], [2.6], "lower", 0.25) == "worse"

    @pytest.mark.parametrize(
        "base, change, better",
        [([], [], "lower"), ([1.0], [1.0, 2.0], "lower"), ([1.0], [1.0], "faster")],
    )
    def test_bad_samples_rejected(self, base, change, better):
        with pytest.raises(ValueError):
            verdict(base, change, better, 0.25)


def test_each_pair_prints_wall_and_peak_rss(tmp_path, monkeypatch, capsys):
    """A pair's line gives both sides' ``wall_s`` and ``peak_rss_mb``."""
    def fake_run(root, workload, seed, seconds):
        side = 1.0 if root == tmp_path.resolve() else 2.0
        values = {"setup_s": 0.25, "wall_s": side, "peak_rss_mb": 100.0 + side}
        return {"failed": 0, "attempted": 1,
                "metrics": {k: {"value": v} for k, v in values.items()}}

    monkeypatch.setattr(pairs, "_run", fake_run)
    pairs.main(["--workload", "fleet-hot-check", "--pairs", "2", "--base", str(tmp_path)])
    lines = [s for s in capsys.readouterr().out.splitlines() if s.startswith("pair ")]
    assert lines == [
        "pair  1 (base first): wall_s base 1, change 2; peak_rss_mb base 101, change 102",
        "pair  2 (change first): wall_s base 1, change 2; peak_rss_mb base 101, change 102",
    ]
