"""The benchmark's workloads: fixed job lists, expected answers and output checks.

Every expected value is computed here, from closed forms or from a small
permutation-group enumeration of this file's own; nothing in this module
imports permchannel.  Paths are relative to the checkout root, where the
benchmark runs every job.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Callable

GROUP_DIR = "perfbench/groups"
ENCODE_OUT = "perfbench/results/encode-out.json"


@dataclass(frozen=True)
class Job:
    """One unit of work, run in its own fresh child process.

    ``call`` is ``{"argv": [...]}`` for a CLI invocation or ``{"lib": name,
    ...}`` for a library call (see ``child.LIBRARY_JOBS``).  ``check`` gets
    the job's stdout and a result dict: the library call's summary, plus
    ``out_file``, where run.py kept what the job wrote to ``ENCODE_OUT``.
    It returns a problem description, or None when the output is correct.
    """

    label: str
    call: dict
    check: Callable[[str, dict], str | None]
    allowed_rc: tuple[int, ...] = (0,)


# ---------------------------------------------------------------- expected values


def _phi(k: int) -> int:
    return sum(1 for j in range(1, k + 1) if math.gcd(j, k) == 1)


def necklaces(n: int, d: int) -> int:
    """Orbits of the cyclic group C_n on d**n strings (gcd sum)."""
    return sum(_phi(k) * d ** (n // k) for k in range(1, n + 1) if n % k == 0) // n


def bracelets(n: int, d: int) -> int:
    """Orbits of the dihedral group D_n (order 2n) on d**n strings."""
    reflections = n * d ** ((n + 1) // 2) if n % 2 else (n // 2) * (d ** (n // 2 + 1) + d ** (n // 2))
    return (n * necklaces(n, d) + reflections) // (2 * n)


def partition_count(n: int) -> int:
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def read_generators(path: str) -> list[tuple[int, ...]]:
    with open(path, encoding="utf-8") as fh:
        lines = [line.split() for line in fh if line.strip() and not line.lstrip().startswith("#")]
    return [tuple(int(tok) for tok in line) for line in lines]


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(p[i] for i in q)


def closure(gens: list[tuple[int, ...]]) -> set[tuple[int, ...]]:
    identity = tuple(range(len(gens[0])))
    elements, frontier = {identity}, [identity]
    while frontier:
        p = frontier.pop()
        for g in gens:
            q = _compose(p, g)
            if q not in elements:
                elements.add(q)
                frontier.append(q)
    return elements


def _cycles(p: tuple[int, ...]) -> int:
    seen, count = set(), 0
    for start in range(len(p)):
        if start not in seen:
            count += 1
            i = start
            while i not in seen:
                seen.add(i)
                i = p[i]
    return count


def group_counts(path: str, d: int) -> dict[str, int]:
    """N_c and N_a by Burnside over the enumerated group, plus the
    square-root average that equals N_q when every irrep is real."""
    elements = closure(read_generators(path))
    roots = Counter(_compose(h, h) for h in elements)
    cyc = {g: _cycles(g) for g in elements}
    order = len(elements)
    return {
        "N_c": sum(d ** c for c in cyc.values()) // order,
        "N_a": sum(d ** (2 * c) for c in cyc.values()) // order,
        "N_q_real": sum(d ** cyc[g] * roots[g] for g in elements) // order,
    }


def expected_custom_counts() -> dict[str, dict[str, int]]:
    s3wrs3 = group_counts(f"{GROUP_DIR}/s3wrs3.txt", 2)
    a7 = group_counts(f"{GROUP_DIR}/a7.txt", 2)
    f21 = group_counts(f"{GROUP_DIR}/f21.txt", 3)
    d = 3
    return {
        # S_m wr S_n has only real (indeed rational) irreps.
        "s3wrs3": {"N_c": s3wrs3["N_c"], "N_q": s3wrs3["N_q_real"], "N_a": s3wrs3["N_a"]},
        # At d = 2 only two-row partitions of 7 occur (Schur-Weyl), with
        # GL(2) dimensions n - 2k + 1; none is self-conjugate, so each stays
        # irreducible and distinct on restriction to A7.
        "a7": {"N_c": a7["N_c"], "N_q": sum(7 - 2 * k + 1 for k in range(4)), "N_a": a7["N_a"]},
        # F21 character table: 3 linear characters and a conjugate pair of
        # degree 3 taking (-1 +- i sqrt 7)/2 on the 7-cycles and 0 on the
        # elements of order 3; summing the multiplicities gives (3 d^7 + 4 d) / 7.
        "f21": {"N_c": f21["N_c"], "N_q": (3 * d**7 + 4 * d) // 7, "N_a": f21["N_a"]},
    }


# ---------------------------------------------------------------- output checks


def _table_rows(stdout: str) -> list[list[str]]:
    lines = [line.split() for line in stdout.splitlines() if line.strip()]
    return lines[1:]  # drop the header


def check_verify(stdout: str, result: dict) -> str | None:
    rows = _table_rows(stdout)
    if len(rows) < 3:
        return f"verify printed {len(rows)} rows"
    bad = [" ".join(row[1:4]) for row in rows if row[0] != "ok"]
    return f"rows not ok: {bad}" if bad else None


def check_simulate(n: int, d: int, modes: tuple[str, ...], stdout: str, result: dict) -> str | None:
    reports = {}
    for line in stdout.splitlines():
        if line.startswith("["):
            mode, payload = line.split("] ", 1)
            reports[mode[1:]] = json.loads(payload)
    if tuple(reports) != modes:
        return f"modes reported {tuple(reports)}, expected {modes}"
    expected_messages = {"classical": necklaces(n, d), "quantum": d**n}
    for mode, report in reports.items():
        if report["failures"]:
            return f"{mode} reported failures"
        if mode in expected_messages and report["messages"] != expected_messages[mode]:
            return f"{mode} messages {report['messages']} != {expected_messages[mode]}"
    ancilla = reports.get("ancilla")
    if ancilla and not ancilla["triples"] == ancilla["expected_triples"] == necklaces(n, d * d):
        return f"ancilla triples {ancilla['triples']}, expected {necklaces(n, d * d)}"
    return None


def check_count(expected: dict[str, int], stdout: str, result: dict) -> str | None:
    got = {row[0]: row[1] for row in _table_rows(stdout)}
    wrong = {k: got.get(k) for k, v in expected.items() if got.get(k) != str(v)}
    return f"counts {wrong}, expected {expected}" if wrong else None


def check_chartable(n: int, stdout: str, result: dict) -> str | None:
    rows = _table_rows(stdout)
    dims = [int(row[1]) for row in rows]
    if len(rows) != partition_count(n) or sum(x * x for x in dims) != math.factorial(n):
        return f"{len(rows)} irreps with squared dimensions summing to {sum(x * x for x in dims)}"
    return None


def _check_basis(payload: dict, size: int) -> str | None:
    if len(payload["entries"]) != size or sum(payload["multiplicities"]) != size:
        return f"{len(payload['entries'])} entries, multiplicities sum {sum(payload['multiplicities'])}"
    return None


def check_encode(n: int, d: int, to_file: bool, stdout: str, result: dict) -> str | None:
    lines = stdout.rstrip("\n").split("\n")
    if lines[-2] != f"states: {d**n}":
        return f"summary line {lines[-2]!r}"
    if to_file:
        with open(result["out_file"], encoding="utf-8") as fh:
            return _check_basis(json.load(fh), d**n)
    return _check_basis(json.loads("\n".join(lines[:-2])), d**n)


def check_representatives(n: int, d: int, stdout: str, result: dict) -> str | None:
    count = len(stdout.splitlines())
    return None if count == necklaces(n, d) else f"{count} representatives, expected {necklaces(n, d)}"


def check_orbits(expected: int, stdout: str, result: dict) -> str | None:
    return None if result.get("orbits") == expected else f"{result.get('orbits')} orbits, expected {expected}"


def check_projectors(irreps: int, stdout: str, result: dict) -> str | None:
    if result.get("irreps") != irreps or not result.get("residual", 1.0) < 1e-8:
        return f"projectors over {result.get('irreps')} irreps sum to I within {result.get('residual')}"
    return None


def check_multiplicities(n: int, d: int, stdout: str, result: dict) -> str | None:
    want = {"total": d**n, "orbit_rows": necklaces(n, d), "orbit_total": d**n}
    got = {k: result.get(k) for k in want}
    return None if got == want else f"multiplicities {got}, expected {want}"


# ---------------------------------------------------------------- workloads


def _cli(*argv: str, check, allowed_rc=(0,)) -> Job:
    return Job("permchannel " + " ".join(argv), {"argv": list(argv)}, check, allowed_rc)


def _simulate(n: int, d: int, mode: str = "all", allowed_rc=(0,)) -> Job:
    modes = ("classical", "quantum", "ancilla") if mode == "all" else (mode,)
    argv = ["simulate", "--group", "cyclic", "--n", str(n), "--d", str(d)]
    argv += [] if mode == "all" else ["--mode", mode]
    return _cli(*argv, check=partial(check_simulate, n, d, modes), allowed_rc=allowed_rc)


def cyclic_certify() -> list[Job]:
    # The last two are the resource-contract jobs: inside the default bounds,
    # so they must finish or exit 3 with a one-line message.
    return [
        _simulate(6, 2),
        _simulate(4, 3),
        _simulate(10, 2, "quantum"),
        _simulate(11, 2, "quantum"),
        _cli("verify", "--group", "cyclic", "--n", "10", "--d", "2", check=check_verify),
        _cli("verify", "--group", "cyclic", "--n", "6", "--d", "3", check=check_verify),
        _simulate(14, 2, "quantum", allowed_rc=(0, 3)),
        _simulate(10, 2, allowed_rc=(0, 3)),
    ]


def group_algebra() -> list[Job]:
    counts = expected_custom_counts()
    return [
        _cli("verify", "--group", "symmetric", "--n", "6", "--d", "2", check=check_verify),
        _cli("verify", "--group-file", f"{GROUP_DIR}/s4xs4.txt", "--d", "2", check=check_verify),
        _cli("verify", "--group", "dihedral", "--n", "12", "--d", "2", check=check_verify),
        _cli("verify", "--group-file", f"{GROUP_DIR}/f21.txt", "--d", "2", check=check_verify),
        _cli("chartable", "--group", "symmetric", "--n", "7", check=partial(check_chartable, 7)),
        _cli("count", "--group-file", f"{GROUP_DIR}/s3wrs3.txt", "--d", "2",
             check=partial(check_count, counts["s3wrs3"])),
        _cli("count", "--group-file", f"{GROUP_DIR}/a7.txt", "--d", "2", check=partial(check_count, counts["a7"])),
        _cli("count", "--group-file", f"{GROUP_DIR}/f21.txt", "--d", "3", check=partial(check_count, counts["f21"])),
    ]


def cyclic_export() -> list[Job]:
    return [
        _cli("encode", "--group", "cyclic", "--n", "14", "--d", "2", "--out", ENCODE_OUT,
             check=partial(check_encode, 14, 2, True)),
        _cli("encode", "--group", "cyclic", "--n", "8", "--d", "3", check=partial(check_encode, 8, 3, False)),
        _cli("representatives", "--group", "cyclic", "--n", "20", "--d", "2",
             check=partial(check_representatives, 20, 2)),
        _simulate(16, 2, "classical"),
        _simulate(10, 3, "classical"),
    ]


def library_kernels() -> list[Job]:
    orbit_jobs = [
        Job(f"orbits({kind} n={n} d={d})", dict(lib="orbits", group=kind, n=n, d=d), partial(check_orbits, count(n, d)))
        for kind, count in (("cyclic", necklaces), ("dihedral", bracelets))
        for n, d in ((20, 2), (12, 3))
    ]
    return orbit_jobs + [
        Job("isotypic_projector(symmetric n=6 d=3, every irrep)",
            dict(lib="isotypic_projectors", group="symmetric", n=6, d=3), partial(check_projectors, partition_count(6))),
        Job("ambient_multiplicities(cyclic n=12 d=2, per_orbit)",
            dict(lib="ambient_multiplicities", group="cyclic", n=12, d=2), partial(check_multiplicities, 12, 2)),
    ]


WORKLOADS = {
    "cyclic-certify": cyclic_certify,
    "group-algebra": group_algebra,
    "cyclic-export": cyclic_export,
    "library-kernels": library_kernels,
}
