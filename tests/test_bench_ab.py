"""``bench/ab.py``: the one rule that judges every metric, and a probe worker.

The rule is the one for claiming a gain: at least ten pairs, the change
better in at least nine tenths of them with ties counting for neither side,
and a gap between the medians beyond the parent's quartile spread.  The
worker runs against this checkout, so an API change in ``src/`` that breaks
a probe fails here, not first in an A/B run.
"""

import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
AB_PATH = ROOT / "bench" / "ab.py"
_spec = importlib.util.spec_from_file_location("bench_ab", AB_PATH)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

PARENT = [100.0 + i for i in range(10)]  # quartiles 102.25 and 106.75: spread 4.5


def judge(parent, change, better="higher"):
    runs = {"parent": [{"m": v} for v in parent], "change": [{"m": v} for v in change]}
    return ab.summarize([{"name": "m", "better": better, "bound": 0.2}], runs)["m"]


class TestSummary:
    def test_ten_wins_beyond_the_spread_claim(self):
        s = judge(PARENT, [v + 10 for v in PARENT])
        assert s["change_wins"] == 10 and s["pairs"] == 10
        assert s["parent"] == {"median": 104.5, "q1": 102.25, "q3": 106.75}
        assert s["median_ratio"] == pytest.approx(114.5 / 104.5)
        assert s["gain_beats_parent_quartile_spread"] and s["claims_gain"]
        assert s["better"] == "higher" and s["bound"] == 0.2

    def test_nine_wins_and_one_tie_claim(self):
        change = [v + 10 for v in PARENT]
        change[0] = PARENT[0]
        s = judge(PARENT, change)
        assert s["change_wins"] == 9 and s["claims_gain"]

    def test_eight_wins_and_two_ties_do_not_claim(self):
        change = [v + 10 for v in PARENT]
        change[:2] = PARENT[:2]
        s = judge(PARENT, change)
        assert s["change_wins"] == 8
        assert s["gain_beats_parent_quartile_spread"] and not s["claims_gain"]

    def test_gap_inside_the_parent_spread_does_not_claim(self):
        s = judge(PARENT, [v + 1 for v in PARENT])
        assert s["change_wins"] == 10
        assert not s["gain_beats_parent_quartile_spread"] and not s["claims_gain"]

    def test_lower_is_better_judged_the_right_way_round(self):
        faster = [v - 10 for v in PARENT]
        lower = judge(PARENT, faster, better="lower")
        assert lower["change_wins"] == 10 and lower["claims_gain"]
        higher = judge(PARENT, faster, better="higher")
        assert higher["change_wins"] == 0 and not higher["claims_gain"]
        assert not judge(PARENT, [v + 10 for v in PARENT], better="lower")["claims_gain"]

    def test_fewer_than_ten_pairs_never_claim(self):
        s = judge(PARENT[:9], [v + 100 for v in PARENT[:9]])
        assert s["change_wins"] == 9 and s["gain_beats_parent_quartile_spread"]
        assert not s["claims_gain"]

    def test_equal_counts_are_ties_and_a_zero_base_has_no_ratio(self):
        s = judge([0] * 10, [0] * 10, better="lower")
        assert s["change_wins"] == 0 and s["median_ratio"] is None and not s["claims_gain"]


class TestCommandLine:
    @pytest.mark.parametrize("argv", [
        ["a", "b", "--out", "x.json"],
        ["a", "b", "--workload", "kinetic", "--out", "x.json"],
        ["a", "b", "--probe", "op", "--pairs", "0", "--out", "x.json"],
    ], ids=["no_workload_or_probe", "workload_without_seed", "no_pairs"])
    def test_rejected(self, argv):
        with pytest.raises(SystemExit) as exc:
            ab.parse_args(argv)
        assert exc.value.code == 2


@pytest.mark.parametrize("probe, cases", [
    ("kinetic_kpq", ["family_k_pq_S4.new_point", "kinetic_kpq_3_3.from_table",
                     "kinetic_kpq_3_3.new_point"]),
    ("coeffs", ["cells_N8_S6.new_point", "coefficient_request.build", "constraints.new_point",
                "h_pqr_2_2_0.repeat", "k_pq_3_3.new_point"]),
    ("potentials", ["h_alone.N6", "h_then_phi.N6", "lab_potentials.N6"]),
    ("cold_verify", ["verify.N18_S12"]),
], ids=["kinetic_kpq", "coeffs", "potentials", "cold_verify"])
def test_probe_worker_runs_against_this_checkout(probe, cases):
    res = subprocess.run([sys.executable, str(AB_PATH), "--worker", str(ROOT), probe,
                          "one_blas_thread"], cwd=ROOT, capture_output=True, text=True,
                         timeout=300)
    assert res.returncode == 0, res.stderr[-2000:]
    lines = res.stdout.splitlines()
    assert len(lines) == 1, res.stdout
    times = json.loads(lines[0])
    assert sorted(times) == cases
    assert all(math.isfinite(t) and t > 0 for t in times.values()), times


def test_fresh_inputs_reach_one_call_each():
    seen = []
    time_calls = ab.timer((lambda i: [i], seen.append))
    for calls in (1, 3, 2):
        assert time_calls(calls) >= 0
    assert [x for (x,) in seen] == list(range(6))
    assert len({id(x) for x in seen}) == 6


def test_src_lines_counts_this_checkout():
    files = sorted((ROOT / "src").glob("**/*.py"))
    assert files
    direct = sum(len(path.read_text().splitlines()) for path in files)
    assert ab.src_lines(ROOT) == direct
    env = ab.environment({"parent": ROOT, "change": ROOT})
    assert env["src_lines"] == {"parent": direct, "change": direct}
