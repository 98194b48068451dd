"""The BENCH record tool's timing primitive and frontier search, on a fake
clock, so that no call sleeps, and its table of frontiers on the library."""

import importlib.util
import json
import os
import sys
from pathlib import Path

import pytest

from wehrl_lab.disc import NoConvergence
from wehrl_lab.exactnum import FloatRangeExceeded

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"


@pytest.fixture(scope="module")
def tool():
    # The tool imports perfbench/run.py, which pins the BLAS thread counts in
    # os.environ, and puts perfbench/ and src/ on sys.path: both are put back,
    # so that neither reaches later tests or their subprocesses.
    environ, path = dict(os.environ), list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location("bench_record", TOOL)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        os.environ.clear()
        os.environ.update(environ)
        sys.path[:] = path
    return module


class Fake:
    """A fake clock, and the log of the calls and host-slowdown readings
    made on it; the k-th reading of the slowdown is k."""

    def __init__(self):
        self.now, self.log = 0.0, []

    def slowdown(self) -> int:
        self.log.append("slowdown")
        return self.log.count("slowdown")

    def cost(self, n, refuse_from=None, error=None, label=None):
        """The call at size n, which takes n/100 s, or raises error from
        size refuse_from on."""
        def call():
            self.log.append(n if label is None else label)
            if error is not None and n >= refuse_from:
                raise error
            self.now += n / 100
        return call


@pytest.fixture
def fake(tool, monkeypatch):
    fake = Fake()
    monkeypatch.setattr(tool, "perf_counter", lambda: fake.now)
    monkeypatch.setattr(tool, "host_slowdown", fake.slowdown)
    return fake


def test_frontier_doubles_then_bisects(tool, fake):
    got = tool.one_second_frontier(fake.cost, 8)
    assert got.keys() == {"size_1s", "seconds", "refused", "host_slowdown"}
    assert got["size_1s"] == 100 and got["refused"] is None
    assert got["seconds"][101] > 1 >= got["seconds"][100]
    assert got["host_slowdown"] == {"before": 1, "after": 2}


def test_frontier_bisects_on_the_median_of_its_rounds(tool, fake):
    # At every size the second round runs 2 s slow and the third in half the
    # time, as on a noisy host: a frontier on the second round alone would
    # read 0 (no size fits), on the third 200; the median reads the true 100.
    def noisy(n):
        def call():
            fake.log.append(n)
            rnd = fake.log.count(n)  # 1, 2, 3
            fake.now += (n / 100, n / 100 + 2, n / 200)[rnd - 1]
        return call

    got = tool.one_second_frontier(noisy, 8)
    assert tool.FRONTIER_ROUNDS == 3
    assert got["size_1s"] == 100
    assert got["seconds"][100] == pytest.approx(1)
    assert got["seconds"][101] == pytest.approx(1.01)
    sizes = [n for n in fake.log if n != "slowdown"]
    # each size three times, back to back
    assert sizes == [n for n in dict.fromkeys(sizes) for _ in range(3)]


def test_frontier_counts_a_library_refusal_as_too_slow(tool, fake):
    refusal = FloatRangeExceeded("past the float range")
    got = tool.one_second_frontier(lambda n: fake.cost(n, 64, refusal), 8)
    assert got["size_1s"] == 63 and got["refused"] == {
        "size": 64, "error": "FloatRangeExceeded: past the float range",
        "stop_reason": None}


def test_frontier_record_is_json_with_the_stop_reason(tool, fake):
    # the one record shape: the refusal as text, with a NoConvergence's
    # stop_reason, as JSON keeps it
    refusal = NoConvergence("no ascent in 60 halvings",
                            "line_search_exhausted")
    got = tool.one_second_frontier(lambda n: fake.cost(n, 20, refusal), 8)
    assert got["size_1s"] == 19 and got["refused"] == {
        "size": 20, "error": "NoConvergence: no ascent in 60 halvings",
        "stop_reason": "line_search_exhausted"}
    assert json.loads(json.dumps(got))["refused"] == got["refused"]


def test_frontier_lets_any_other_error_through(tool, fake):
    with pytest.raises(RuntimeError, match="^a bug$"):
        tool.one_second_frontier(
            lambda n: fake.cost(n, 64, RuntimeError("a bug")), 8)


def test_frontier_refuses_to_double_past_max_size(tool, fake):
    def free(n):
        def call():
            fake.log.append(n)
            assert len(set(fake.log)) < 40, "the doubling did not stop"
        return call

    got = tool.one_second_frontier(free, 8)
    sizes = [n for n in fake.log if n != "slowdown"]
    assert len(set(sizes)) <= 20 and max(sizes) == tool.MAX_SIZE
    assert got["size_1s"] is None
    assert got["refused"]["size"] == 2 * tool.MAX_SIZE
    assert got["refused"]["error"].startswith("SizeLimit: no size doubled")
    assert got["refused"]["stop_reason"] is None


@pytest.mark.parametrize("interleaved, order", [
    (False, "aaabbb"), (True, "ababab")])
def test_timed_gives_medians_within_one_host_slowdown(tool, fake,
                                                      interleaved, order):
    got = tool.timed({"a": fake.cost(1e-4, label="a"),
                      ("b", "2"): fake.cost(2e-4, label="b")},
                     3, interleaved=interleaved)
    assert got.keys() == {"rounds", "host_slowdown", "a", "b"}
    assert got["rounds"] == 3 and got["b"].keys() == {"2"}
    assert got["a"] == pytest.approx(1) and got["b"]["2"] == pytest.approx(2)
    # one reading just before the first call and one just after the last
    assert got["host_slowdown"] == {"before": 1, "after": 2}
    assert fake.log == ["slowdown", *order, "slowdown"]


def test_frontiers_is_one_record_per_row(tool, fake, monkeypatch):
    monkeypatch.setattr(tool, "FRONTIERS", {
        "a": (8, fake.cost), "b": (1, lambda n: fake.cost(2 * n))})
    got = tool.frontiers()
    # the rows in turn, each its own search from its own first size
    assert list(got) == ["a", "b"]
    assert [min(r["seconds"]) for r in got.values()] == [8, 1]
    assert [r["size_1s"] for r in got.values()] == [100, 50]
    assert [r["host_slowdown"] for r in got.values()] == [
        {"before": 1, "after": 2}, {"before": 3, "after": 4}]


def test_every_frontier_row_runs_at_its_start_size(tool):
    # each row's call on the library, once at the size its search starts
    # at, so that a row wired to the wrong call or arguments fails here
    assert list(tool.FRONTIERS) == [
        "completeness_degree", "maximize_degree", "su2_m_cold", "su2_m_warm",
        "gauss_jacobi_nodes", "selberg_rank_a1", "selberg_rank_a2",
        "selberg_rank_a4"]
    for start, call_at in tool.FRONTIERS.values():
        call_at(start)()


def test_help_exits_cleanly(tool, capsys):
    with pytest.raises(SystemExit) as exc:
        tool.main(["--help"])
    assert exc.value.code == 0
    assert "--pr" in capsys.readouterr().out
