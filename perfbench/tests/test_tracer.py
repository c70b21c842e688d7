"""Self-checks of the benchmark's tracer.

Run from the checkout root:  python3 -m pytest perfbench/tests -q
"""

import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import permchannel  # noqa: E402
import permchannel.cli  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import Job, check_verify  # noqa: E402


def _holders(obj) -> list[tuple[dict, str]]:
    """(namespace or module-level dict, key) pairs that hold ``obj``."""
    out = []
    for module in tracer._package_modules():
        for key, value in vars(module).items():
            if value is obj:
                out.append((vars(module), key))
            elif type(value) is dict:
                out += [(value, k) for k, v in value.items() if v is obj]
    return out


def test_every_holder_of_a_wrapped_original_resolves_to_the_wrapper():
    before = {
        name: (holder, attr, original, _holders(original))
        for name, _layer, holder, attr, original in tracer.targets()
    }
    # names imported directly into other modules, which home-module patching misses
    assert (vars(permchannel.cli), "square_root_count") in before["perms.square_root_count"][3]
    assert (vars(permchannel.channel), "message_basis_cyclic") in before["encoding.message_basis_cyclic"][3]
    t = tracer.Tracer()
    t.install()
    try:
        assert sorted(t.wrapped) == sorted(before)
        for name, (holder, attr, original, places) in before.items():
            if isinstance(holder, type):
                assert vars(holder)[attr].__wrapped__ is original, name
            for container, key in places:
                assert container[key].__wrapped__ is original, (name, key)
    finally:
        t.restore()
    for name, (holder, attr, original, places) in before.items():
        if isinstance(holder, type):
            assert vars(holder)[attr] is original
        for container, key in places:
            assert container[key] is original


def test_calls_through_a_direct_import_are_counted(capsys):
    t = tracer.Tracer()
    t.install()
    try:
        rc = permchannel.cli.main(["verify", "--group", "symmetric", "--n", "4", "--d", "2"])
    finally:
        t.restore()
    capsys.readouterr()
    assert rc == 0
    # cli calls square_root_count once per element of S4, through its own import
    assert t.calls["perms.square_root_count"] == 24
    assert t.calls["cli.main"] == 1
    assert t.calls["perms.Permutation.__mul__"] > 0
    assert all(value >= 0 for value in t.self_s.values())


def test_call_counts_repeat_across_two_traced_runs(monkeypatch):
    monkeypatch.chdir(run.ROOT)
    run.RESULTS.mkdir(exist_ok=True)
    job = Job("verify S6", {"argv": ["verify", "--group", "symmetric", "--n", "6", "--d", "2"]}, check_verify)
    counts = []
    for _ in range(2):
        records = run.run_pass([job], [0], "trace", time.monotonic() + run.JOB_TIMEOUT_S, 0)
        run.finish([job], records)
        (record,) = records
        assert record["outcome"] == "ok", record["reason"]
        counts.append(record["trace"]["calls"])
    assert counts[0] == counts[1]
    assert counts[0]["perms.Permutation.__mul__"] > 0
    assert counts[0]["perms.square_root_count"] == 720
