#!/usr/bin/env python3
"""permchannel benchmark: fixed job lists, one fresh child process per job.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cyclic-certify --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

A closed loop with one client: run.py starts one child at a time and
the next job starts when the previous child has exited.  The seed only
permutes the job order of each pass.  An untraced run repeats whole passes
over the workload's jobs while they fit in ``--seconds`` (at least one) and
reports the end-to-end metrics named in BENCHMARK.json.  A traced run
(``--trace 1``) makes one untraced pass, one traced pass and one tracemalloc
pass, and reports the per-layer metrics.  The last stdout line is a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the run
record, with every job's outcome, goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import PEAK_FUNCTIONS
from workloads import ENCODE_OUT, WORKLOADS, Job

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

BLAS_THREADS = 1  # every job is single-process and single-threaded
MEMORY_CAP_MB = 1024  # RLIMIT_AS of each child, set in the child only
JOB_TIMEOUT_S = 60.0
RUN_LIMIT_S = 165.0  # no job starts or runs past this point of a run


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _cap_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_MB << 20, MEMORY_CAP_MB << 20))


def spawn(spec: dict, deadline: float, stdout_path: Path) -> dict:
    """Run child.py with ``spec``, its stdout going to ``stdout_path``.

    Returns the exit status, rusage, stderr and the child's report.  The
    parent keeps no job output in memory while jobs run: a forked child's
    ``ru_maxrss`` counts the parent's resident memory at the fork.
    """
    read_fd, write_fd = os.pipe()
    timeout = max(0.0, min(JOB_TIMEOUT_S, deadline - time.monotonic()))
    with open(stdout_path, "wb") as stdout:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(write_fd), json.dumps(spec)],
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=stdout,
            stderr=subprocess.PIPE,
            pass_fds=(write_fd,),
            # Runs in the child before exec.  It also makes Popen fork rather
            # than vfork; after a vfork the child's ru_maxrss would include the
            # parent's own high-water mark.
            preexec_fn=_cap_address_space,
        )
    os.close(write_fd)
    err_fd = proc.stderr.fileno()
    buffers = {err_fd: bytearray(), read_fd: bytearray()}
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for fd in buffers:
            sel.register(fd, selectors.EVENT_READ)
        while sel.get_map():
            remaining = t_spawn + timeout - time.monotonic()
            if remaining <= 0 and not timed_out:
                proc.kill()
                timed_out = True
            for key, _ in sel.select(timeout=1.0 if timed_out else remaining):
                chunk = os.read(key.fd, 1 << 16)
                if chunk:
                    buffers[key.fd] += chunk
                else:
                    sel.unregister(key.fd)
    _, status, usage = os.wait4(proc.pid, 0)
    t_exit = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stderr.close()
    os.close(read_fd)
    try:
        report = json.loads(bytes(buffers[read_fd]) or b"{}")
    except json.JSONDecodeError:
        report = {}
    return {
        "rc": proc.returncode,
        "stderr": buffers[err_fd].decode(errors="replace").strip(),
        "timed_out": timed_out,
        "rss_mb": usage.ru_maxrss / 1024,
        "t_spawn": t_spawn,
        "t_exit": t_exit,
        "report": report,
    }


def crash_reason(out: dict) -> str | None:
    if out["timed_out"]:
        return f"timed out after {JOB_TIMEOUT_S:g} s or at the run limit"
    if out["rc"] < 0:
        return f"killed by signal {-out['rc']}"
    if "Traceback (most recent call last)" in out["stderr"]:
        return "traceback: " + out["stderr"].splitlines()[-1][:200]
    return None


def run_pass(jobs: list[Job], order: list[int], mode: str, deadline: float, pass_no: int) -> list[dict]:
    """Run the jobs in ``order``; outcomes stay pending until ``finish``."""
    records = []
    for pos in order:
        job = jobs[pos]
        stdout_path = RESULTS / f"stdout-{mode}-{pass_no}-{pos}.txt"
        record = {"job": job.label, "pass": pass_no, "mode": mode, "is_cli": "argv" in job.call, "outcome": None,
                  "rc": None, "setup_s": None, "wall_s": 0.0, "stdout_path": str(stdout_path), "trace": None}
        records.append(record)
        if time.monotonic() >= deadline:
            record.update(outcome="crash", reason="not started: run limit reached")
            stdout_path.write_bytes(b"")
            continue
        out = spawn({"call": job.call, "mode": mode}, deadline, stdout_path)
        result = out["report"].get("result", {})
        if Path(ENCODE_OUT).exists():
            result["out_file"] = str(stdout_path.with_suffix(".out.json"))
            os.replace(ENCODE_OUT, result["out_file"])
        rep = out["report"]
        t_setup = rep.get("t_setup")
        t_start = rep.get("t_start", t_setup)
        record.update(
            rc=out["rc"],
            stderr=out["stderr"][-2000:],
            crash=crash_reason(out),
            result=result,
            setup_s=None if t_setup is None else t_setup - out["t_spawn"],
            wall_s=rep.get("t_done", out["t_exit"]) - (out["t_spawn"] if t_start is None else t_start),
            rss_mb=out["rss_mb"],
            trace=rep.get("trace"),
        )
    return records


def finish(jobs: list[Job], records: list[dict]) -> None:
    """Check each pending record's output, then delete the output files.

    A crash, or an exit code outside the job's set, fails the job; an
    output that fails its check is a wrong answer.
    """
    by_label = {job.label: job for job in jobs}
    for r in records:
        path = Path(r.pop("stdout_path"))
        stdout = path.read_bytes()
        path.unlink()
        r["stdout_bytes"] = len(stdout)
        r["stdout_sha256"] = hashlib.sha256(stdout).hexdigest()
        if r["outcome"] is not None:
            continue
        job, result, err = by_label[r["job"]], r.pop("result"), r.pop("stderr")
        r["outcome"], r["reason"] = judge(job, r.pop("crash"), r["rc"], err, stdout, result)
        if "out_file" in result:
            os.remove(result["out_file"])


def judge(job: Job, crash: str | None, rc: int, err: str, stdout: bytes, result: dict) -> tuple[str, str]:
    """("ok" | "crash" | "wrong", reason)."""
    if crash:
        return "crash", crash
    if rc not in job.allowed_rc:
        return "wrong", f"exit code {rc}: {err[-200:]}"
    if rc == 3:
        return ("ok", "bound refused: " + err) if err and "\n" not in err else ("wrong", "exit 3 without a one-line message")
    try:
        problem = job.check(stdout.decode(), result)
    except (ValueError, TypeError, KeyError, IndexError, OSError) as exc:
        problem = f"unreadable output: {exc!r}"
    return ("wrong", problem) if problem else ("ok", "")


def run_record() -> dict:
    out = spawn({"probe": True}, time.monotonic() + JOB_TIMEOUT_S, RESULTS / "stdout-probe.txt")
    (RESULTS / "stdout-probe.txt").unlink()
    probe = out["report"].get("probe", {})
    return {
        **probe,
        "git_commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "memory_cap_mb": MEMORY_CAP_MB,
        "job_timeout_s": JOB_TIMEOUT_S,
        "load": "closed loop, one client, one child process at a time",
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def end_to_end(records: list[dict], attempted: int) -> dict:
    setups = [r["setup_s"] for r in records if r["setup_s"] is not None]
    by_job: dict[str, list[dict]] = {}
    for r in records:
        by_job.setdefault(r["job"], []).append(r)
    ok = [r for r in records if r["outcome"] == "ok"]
    return {
        "setup_s": statistics.median(setups) if setups else 0.0,
        "wall_s": sum(statistics.median(r["wall_s"] for r in runs) for runs in by_job.values()),
        "peak_rss_mb": max((r["rss_mb"] for r in ok), default=0.0),
        "ok_rate": len(ok) / attempted,
    }


def per_layer(names: list[str], traced: list[dict], peak: list[dict], overhead: float) -> tuple[dict, list]:
    """Per-layer metrics from the traced and tracemalloc passes, and the absent names."""
    calls, inclusive, self_s, counters = {}, {}, {}, {}
    wrapped, hits, lookups, stdout_bytes = set(), 0, 0, 0
    for rec in traced:
        tr = rec["trace"]
        if not tr:
            continue
        wrapped.update(tr["wrapped"])
        for dst, src in ((calls, tr["calls"]), (inclusive, tr["inclusive"]), (self_s, tr["self"])):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
        for k, v in tr["counters"].items():
            counters[k] = max(counters.get(k, 0), v) if k == "channel.dense_bytes" else counters.get(k, 0) + v
        if tr["decode_cache"]:
            hits += tr["decode_cache"]["hits"]
            lookups += tr["decode_cache"]["hits"] + tr["decode_cache"]["misses"]
        stdout_bytes += rec["stdout_bytes"] if rec["is_cli"] else 0
    peaks = {}
    for rec in peak:
        if rec["outcome"] == "ok" and rec["trace"]:
            wrapped.update(rec["trace"]["wrapped"])
            for k, v in rec["trace"]["peaks"].items():
                peaks[k] = max(peaks.get(k, 0), v / 2**20)
    kernel_s = inclusive.get("kernels.action_table", 0.0) + inclusive.get("kernels.orbit_reps", 0.0)
    special = {
        "perms.mul_calls": ("perms.Permutation.__mul__", calls.get("perms.Permutation.__mul__", 0)),
        "kernels.entries": ("kernels.action_table", counters.get("kernels.entries", 0)),
        "kernels.entries_per_s": ("kernels.action_table", counters.get("kernels.entries", 0) / kernel_s if kernel_s else 0.0),
        "channel.dense_bytes": ("channel.verify_zero_error", counters.get("channel.dense_bytes", 0)),
        "channel.decode_cache_hit_ratio": ("channel.decode_classical", hits / lookups if lookups else 0.0),
        "encoding.out_bytes": ("encoding.write_basis_json", counters.get("encoding.out_bytes", 0)),
        "cli.stdout_bytes": ("cli.main", stdout_bytes),
        "trace.overhead_s": (None, overhead),
    }
    metrics, absent = {}, []
    for name in names:
        if name in special:
            fn, value = special[name]
        elif name.endswith(".self_s"):
            fn, value = None, self_s.get(name[: -len(".self_s")], 0.0)
        else:
            fn, suffix = name.rsplit(".", 1)
            value = {"calls": calls, "s": inclusive, "peak_mb": peaks}[suffix].get(fn, 0)
        if fn is not None and fn not in wrapped:
            absent.append(name)
        metrics[name] = value
    return metrics, absent


def summarize(records: list[dict]) -> tuple[bool, int, int]:
    attempted = len(records)
    failed = sum(r["outcome"] != "ok" for r in records)
    correct = not any(r["outcome"] == "wrong" for r in records)
    return correct, attempted, failed


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    jobs = WORKLOADS[name]()
    rng = random.Random(seed)

    def shuffled() -> list[int]:
        order = list(range(len(jobs)))
        rng.shuffle(order)
        return order

    record = {"workload": name, "seed": seed, "trace": trace, "run": run_record()}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if not trace:
        passes = []
        while True:
            t0 = time.monotonic()
            passes.append(run_pass(jobs, shuffled(), "plain", deadline, len(passes)))
            now = time.monotonic()
            if now + (now - t0) > start + seconds or now >= deadline:
                break
        records = [r for p in passes for r in p]
        finish(jobs, records)
        correct, attempted, failed = summarize(records)
        metrics = end_to_end(records, attempted)
        record["passes"] = len(passes)
    else:
        plain = run_pass(jobs, shuffled(), "plain", deadline, 0)
        traced = run_pass(jobs, shuffled(), "trace", deadline, 0)
        finish(jobs, plain + traced)
        needs_peak = {
            r["job"] for r in traced
            if r["outcome"] == "ok" and any(r["trace"]["calls"].get(fn) for fn in PEAK_FUNCTIONS)
        }
        peak_jobs = [job for job in jobs if job.label in needs_peak]
        peak = run_pass(peak_jobs, list(range(len(peak_jobs))), "peak", deadline, 0)
        finish(jobs, peak)
        overhead = sum(r["wall_s"] for r in traced) - sum(r["wall_s"] for r in plain)
        metrics, absent = per_layer([m["name"] for m in spec["per_layer"]], traced, peak, overhead)
        records = plain + traced + peak
        correct, attempted, failed = summarize(records)
        record["absent"] = absent
        record["spans_dropped"] = sum(r["trace"]["spans_dropped"] for r in traced if r["trace"])
        record["measure_errors"] = sum(sum(r["trace"]["measure_errors"].values()) for r in traced if r["trace"])
        write_spans(name, seed, traced)
    for r in records:
        if r.get("trace"):
            r["trace"] = {k: v for k, v in r["trace"].items() if k != "spans"}
    record["jobs"] = records
    record["elapsed_s"] = time.monotonic() - start
    (RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    print_summary(record, metrics, units, attempted, failed)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def write_spans(name: str, seed: int, traced: list[dict]) -> None:
    with open(RESULTS / f"{name}-seed{seed}-spans.jsonl", "w", encoding="utf-8") as fh:
        for rec in traced:
            for span_id, fn, start, end, parent in (rec["trace"] or {}).get("spans", []):
                fh.write(json.dumps({"job": rec["job"], "id": span_id, "name": fn, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def print_summary(record: dict, metrics: dict, units: dict, attempted: int, failed: int) -> None:
    run = record["run"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {int(record['trace'])}  "
          f"passes {record.get('passes', 1)}  elapsed {record['elapsed_s']:.1f} s")
    print(f"  python {run.get('python')}  numpy {run.get('numpy')}  blas {run.get('blas')}  "
          f"blas threads {run['blas_threads']}  nproc {run['nproc']}  commit {run['git_commit'][:12]}")
    print(f"  memory cap {run['memory_cap_mb']} MiB (RLIMIT_AS)  job timeout {run['job_timeout_s']:g} s  "
          f"JIT_ENABLED {run.get('jit_enabled')}  numba imports {run.get('numba_imports')}")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>16.6g} {units[name]}")
    print(f"  {'error_rate':<44} {failed / attempted:>16.6g} ratio   ({failed} of {attempted} jobs failed)")
    if record.get("absent"):
        print(f"  absent (reported as 0): {', '.join(record['absent'])}")
    if record.get("measure_errors"):
        print(f"  {record['measure_errors']} calls whose arguments could not be measured (see the run record)")
    for r in record["jobs"]:
        if r["outcome"] != "ok" or r["reason"]:
            print(f"  {r['outcome'].upper():<5} [{r['mode']}] {r['job']}: {r['reason']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "permchannel" / "__init__.py").is_file():
        print(f"error: no permchannel sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    RESULTS.mkdir(exist_ok=True)
    if args.workload == "all":
        # one run.py process per workload, so that no workload's output checks
        # sit in the parent's memory while the next one's jobs run
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
            for name in WORKLOADS
        ]
        return max(codes)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace), spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
