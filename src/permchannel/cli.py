"""Command-line interface: counting tables, basis export, certification.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 resource
bound exceeded.  All output is deterministic for a given invocation, so
identical runs are byte-identical.

The options are declared once, in :data:`GRAMMAR`.  Plain argv (a command,
then exact ``--flag value`` pairs and switches) is read straight from it by
:func:`read_plain_argv`, which neither imports argparse nor builds a parser
(``main`` of a plain ``count`` in a fresh interpreter on a 2-core x86-64 host:
0.12-0.15 ms, against 4-6 ms through argparse).  Any other argv (help,
abbreviations, ``--flag=value``, usage errors) goes to the argparse parser
that :func:`build_parser` makes from the same table, so help text and error
messages come from argparse alone.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import channel as channel_mod
from . import characters, counting, encoding, kernels
from .errors import PermChannelError, ResourceBoundError
from .perms import (
    DEFAULT_MAX_STATES,
    PermutationGroup,
    load_group_file,
    make_named_group,
    orbit_labels,
    square_root_count,
    stabilizer_orders,
)

if TYPE_CHECKING:
    import argparse

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_BOUND = 3

# The named families and their closed-form counts.
CLOSED_FORMS = {
    "cyclic": counting.count_cyclic,
    "dihedral": counting.count_dihedral,
    "symmetric": counting.count_symmetric,
}
NAMED_KINDS = tuple(CLOSED_FORMS)
QUANTITY_BY_MODE = {"classical": "N_c", "quantum": "N_q", "ancilla": "N_a"}


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    command: str
    group_kind: str | None
    group_file: str | None
    n: int | None
    d: int | None
    mode: str
    fmt: str
    out: str | None
    n_max: int | None
    enum_bound: int
    oracle_bound: int


class Option(NamedTuple):
    """One flag of the grammar; ``type`` is ``int``, ``str``, or ``bool`` for a switch."""

    dest: str
    type: type
    choices: tuple[str, ...] | None
    default: object
    help: str | None


_COMMON_OPTIONS = {
    "--group": Option("group", str, NAMED_KINDS, None, "named group family"),
    "--group-file": Option("group_file", str, None, None, "custom group: one permutation per line, image notation"),
    "--n": Option("n", int, None, None, "number of positions"),
    "--d": Option("d", int, None, None, "alphabet size"),
    "--mode": Option("mode", str, ("classical", "quantum", "ancilla", "all"), "all", "which protocol(s) to consider"),
    "--format": Option("format", str, ("json", "csv", "table"), None, None),
    "--unsafe-bounds": Option("unsafe_bounds", bool, None, False, "lift the default size bounds"),
}

# The command-line grammar, read by both parsers: per command, its help line and its flags in help order.
GRAMMAR: dict[str, tuple[str, dict[str, Option]]] = {
    "count": ("exact message counts N_c / N_q / N_a", _COMMON_OPTIONS),
    "representatives": ("lexicographic orbit representatives (cyclic channels)", _COMMON_OPTIONS),
    "encode": (
        "construct and export the cyclic message basis",
        {
            **_COMMON_OPTIONS,
            "--out": Option("out", str, None, None, "write the basis JSON to this file instead of stdout"),
        },
    ),
    "simulate": ("run the channel and certify decoding", _COMMON_OPTIONS),
    "verify": ("run the full cross-check suite for a group", _COMMON_OPTIONS),
    "chartable": ("character table and Frobenius-Schur indicators", _COMMON_OPTIONS),
    "scaling": (
        "exact versus asymptotic counts over a range of n",
        {**_COMMON_OPTIONS, "--n-max": Option("n_max", int, None, None, "upper end of the n range (inclusive)")},
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of :data:`GRAMMAR`: help text, abbreviations and usage errors."""
    import argparse  # imported here: plain argv is read without it (see :func:`read_plain_argv`)

    parser = argparse.ArgumentParser(
        prog="permchannel",
        description="Zero-error message counting and encoding for permutation channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, options) in GRAMMAR.items():
        sp = sub.add_parser(name, help=text)
        for flag, opt in options.items():
            if opt.type is bool:
                sp.add_argument(flag, action="store_true", help=opt.help)
            else:
                sp.add_argument(flag, type=opt.type, choices=opt.choices, default=opt.default, help=opt.help)
    return parser


def read_plain_argv(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse gives for plain argv, read straight from :data:`GRAMMAR`; None for any other argv.

    Plain argv is a command, then exact ``--flag value`` pairs and switches,
    no value starting with ``-``, each value converted and checked as
    argparse does, the last occurrence of a flag winning.  Everything else
    (help, abbreviations, ``--flag=value``, negative numbers, errors) is left
    to argparse, so help and usage errors come from one place.
    """
    if not argv or argv[0] not in GRAMMAR:
        return None
    options = GRAMMAR[argv[0]][1]
    values = {"command": argv[0], **{opt.dest: opt.default for opt in options.values()}}
    i = 1
    while i < len(argv):
        opt = options.get(argv[i])
        if opt is None:
            return None
        if opt.type is bool:
            values[opt.dest] = True
            i += 1
            continue
        if i + 1 == len(argv) or argv[i + 1].startswith("-"):
            return None
        try:
            value = opt.type(argv[i + 1])
        except ValueError:
            return None
        if opt.choices is not None and value not in opt.choices:
            return None
        values[opt.dest] = value
        i += 2
    return SimpleNamespace(**values)


def _config(ns: argparse.Namespace | SimpleNamespace) -> RunConfig:
    if ns.group and ns.group_file:
        raise UsageError("--group and --group-file are mutually exclusive")
    if ns.d is not None and ns.d < 1:
        raise UsageError("--d must be >= 1")
    unsafe = ns.unsafe_bounds
    fmt = ns.format or ("csv" if ns.command == "scaling" else "table")
    return RunConfig(
        command=ns.command,
        group_kind=ns.group,
        group_file=ns.group_file,
        n=ns.n,
        d=ns.d,
        mode=ns.mode,
        fmt=fmt,
        out=getattr(ns, "out", None),
        n_max=getattr(ns, "n_max", None),
        enum_bound=sys.maxsize if unsafe else DEFAULT_MAX_STATES,
        oracle_bound=sys.maxsize if unsafe else characters.DEFAULT_MAX_GROUP_ORDER,
    )


def _require(cfg: RunConfig, *names: str) -> None:
    for name in names:
        if getattr(cfg, name) is None:
            raise UsageError(f"--{name.replace('_', '-')} is required for {cfg.command}")


def _resolve_group(cfg: RunConfig) -> PermutationGroup:
    if cfg.group_file:
        return load_group_file(cfg.group_file)
    if cfg.group_kind:
        _require(cfg, "n")
        return make_named_group(cfg.group_kind, cfg.n)
    raise UsageError("specify --group or --group-file")


def _printable(value: int, name: str) -> int:
    """``value``, unless it has more digits than the interpreter converts to text; the limit is not raised."""
    limit = sys.get_int_max_str_digits()
    # 10**limit has more than 3 * limit bits, so only a longer value needs the exact comparison
    if limit and abs(value).bit_length() > 3 * limit and abs(value) >= 10**limit:
        raise ResourceBoundError(f"{name} has more than {limit} digits, the limit for printing an integer")
    return value


def _fmt_value(value, name: str) -> str:
    if value is None:
        return "undefined"
    return str(_printable(value, name))


def _print_rows(cfg: RunConfig, header: list[str], rows: list[list], json_obj=None) -> None:
    if cfg.fmt == "json":
        payload = json_obj if json_obj is not None else [dict(zip(header, row)) for row in rows]
        print(json.dumps(payload, indent=1, default=str))
    elif cfg.fmt == "csv":
        import csv  # imported here: no other format needs it

        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    else:
        widths = [max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(h) for i, h in enumerate(header)]
        print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        for row in rows:
            print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))


def cmd_count(cfg: RunConfig) -> int:
    _require(cfg, "d")
    if cfg.group_kind:
        _require(cfg, "n")
        report = CLOSED_FORMS[cfg.group_kind](cfg.n, cfg.d)
    else:
        group = _resolve_group(cfg)
        report = counting.count_report(group, cfg.d, oracle_max_order=cfg.oracle_bound)
    rows = []
    values = {
        "N_c": (report.n_c, report.n_c_method),
        "N_q": (report.n_q, report.n_q_method or report.n_q_reason or "no applicable formula"),
        "N_a": (report.n_a, report.n_a_method),
    }
    wanted = ("N_c", "N_q", "N_a") if cfg.mode == "all" else (QUANTITY_BY_MODE[cfg.mode],)
    for name in wanted:
        value, method = values[name]
        rows.append([name, _fmt_value(value, name), method])
    json_obj = {"group": cfg.group_kind or cfg.group_file, "n": report.n, "d": report.d}
    for name in wanted:
        value, method = values[name]
        json_obj[name] = {"value": _fmt_value(value, name), "method": method}
    _print_rows(cfg, ["quantity", "value", "method"], rows, json_obj)
    return EXIT_OK


def _digit_lines(block: np.ndarray) -> str:
    """Each row of symbols below 10 as a line of ASCII digits, built as one byte array."""
    text = np.full((len(block), block.shape[1] + 1), ord("\n"), dtype=np.uint8)
    np.add(block, ord("0"), out=text[:, :-1])
    return text.tobytes().decode("ascii")


def cmd_representatives(cfg: RunConfig) -> int:
    _require(cfg, "n", "d")
    if cfg.group_kind != "cyclic":
        raise UsageError("representatives are generated for --group cyclic only")
    blocks = encoding.necklaces(cfg.n, cfg.d, max_count=cfg.enum_bound)
    # Each line is str(ColoredString): one digit per symbol for d <= 10, else comma-joined.
    if cfg.d <= 10 and cfg.fmt != "json":
        sys.stdout.writelines(map(_digit_lines, blocks))
        return EXIT_OK
    if cfg.d <= 10:
        strings = "".join(map(_digit_lines, blocks)).splitlines()
    else:
        strings = [",".join(map(str, symbols)) for block in blocks for symbols in block.tolist()]
    if cfg.fmt == "json":
        print(json.dumps(strings))
    else:
        print("\n".join(strings))
    return EXIT_OK


def cmd_encode(cfg: RunConfig) -> int:
    _require(cfg, "n", "d")
    if cfg.group_kind != "cyclic":
        raise UsageError("encoding bases are constructed for --group cyclic only")
    basis = encoding.message_basis_cyclic(cfg.n, cfg.d, max_states=cfg.enum_bound)
    if cfg.out:
        encoding.write_basis_json(basis, cfg.out)
    else:
        sys.stdout.writelines(encoding.basis_json_lines(basis))
    print(f"states: {len(basis)}")
    print(f"m: [{','.join(str(m) for m in basis.multiplicities)}]")
    return EXIT_OK


def cmd_simulate(cfg: RunConfig) -> int:
    _require(cfg, "d")
    group = _resolve_group(cfg)
    modes = ("classical", "quantum", "ancilla") if cfg.mode == "all" else (cfg.mode,)
    if group.kind != "cyclic" and ("quantum" in modes or "ancilla" in modes):
        raise UsageError("quantum/ancilla simulation requires a cyclic group")
    reports = {}
    failed = False
    if "classical" in modes:
        report = channel_mod.verify_classical(group, cfg.d, max_states=cfg.enum_bound)
        reports["classical"] = {
            "messages": report.messages_tested,
            "elements": report.group_elements_tested,
            "failures": len(report.failures),
        }
        failed |= not report.zero_error
    if "quantum" in modes or "ancilla" in modes:  # one overlap pass certifies both
        basis = encoding.message_basis_cyclic(group.degree, cfg.d, max_states=cfg.enum_bound)
        report = channel_mod.verify_zero_error(basis.group, basis)
    if "quantum" in modes:
        reports["quantum"] = report.to_json()
        failed |= not report.zero_error
    if "ancilla" in modes:
        summary = channel_mod.dense_coding_summary(basis, report)
        expected = counting.count_ancilla_polya(group, cfg.d)
        summary["expected_triples"] = expected
        reports["ancilla"] = summary
        failed |= bool(summary["failures"]) or summary["triples"] != expected
    if cfg.fmt == "json":
        print(json.dumps(reports, indent=1, default=str))
    else:
        for mode, payload in reports.items():
            print(f"[{mode}] {json.dumps(payload, default=str)}")
    return EXIT_VERIFY if failed else EXIT_OK


def _verify_checks(cfg: RunConfig, group: PermutationGroup, d: int):
    """Yield (name, passed, detail) for the whole cross-check suite."""
    group.validate()
    yield "group axioms", True, f"order {len(group)}"

    n_c = counting.count_classical_burnside(group, d)
    if d**group.degree <= cfg.enum_bound:
        reps, orbit_of = orbit_labels(group, d, max_states=cfg.enum_bound)
        yield "orbit count matches group average", n_c == len(reps), f"{_fmt_value(n_c, 'N_c')} == {len(reps)}"
        sizes = kernels.label_counts(orbit_of, len(reps))[:200]
        ok = bool((stabilizer_orders(group, reps[:200], d) * sizes == len(group)).all())
        yield "orbit-stabilizer product", ok, f"{len(sizes)} representatives"
        report = channel_mod.verify_classical(group, d, max_states=cfg.enum_bound)
        yield "classical decoding is orbit-invariant", report.zero_error, f"{len(report.failures)} mismatches"
    n_a = counting.count_ancilla_polya(group, d)
    yield (
        "ancilla count equals squared-alphabet classical count",
        n_a == counting.count_classical_burnside(group, d * d),
        _fmt_value(n_a, "N_a"),
    )

    if group.kind in CLOSED_FORMS:
        closed = CLOSED_FORMS[group.kind](group.degree, d)
        ok = closed.n_c == n_c and closed.n_a == n_a
        detail = f"N_c {_fmt_value(closed.n_c, 'N_c')}, N_a {_fmt_value(closed.n_a, 'N_a')}"
        yield "closed forms match group averages", ok, detail

    if len(group) <= cfg.oracle_bound:
        table = characters.character_table(group, max_order=cfg.oracle_bound)
        yield "character table invariants", True, f"{len(table.irreps)} irreps"
        fs = characters.frobenius_schur_indicators(group, table)
        mults = characters.ambient_multiplicities(group, d, table=table)
        nq_sum = sum(mults.values)
        na_sum = sum(m * m for m in mults.values)
        detail = f"{_fmt_value(na_sum, 'the squared multiplicity sum')} == {_fmt_value(n_a, 'N_a')}"
        yield "squared multiplicities match ancilla count", na_sum == n_a, detail
        if all(v == 1 for v in fs.values):
            formula = counting.count_quantum_totally_orthogonal(group, d, certify=False)
            yield (
                "real-irrep quantum formula matches multiplicity sum",
                formula == nq_sum,
                f"{_fmt_value(formula, 'N_q')} == {_fmt_value(nq_sum, 'the multiplicity sum')}",
            )
            class_sums = table.value_matrix().sum(axis=0)  # sum over the irreps, per class
            ok = all(
                abs(class_sums[c] - square_root_count(group, p)) < 1e-9
                for p, c in zip(group.elements, table.class_index.tolist())
            )
            yield "character sums count square roots", ok, f"{len(group)} elements"
        else:
            formula = counting.count_quantum_totally_orthogonal(group, d, certify=False)
            yield (
                "not totally orthogonal: squared-cycle formula inapplicable",
                True,
                f"FS = {list(fs.values)}; formula {_fmt_value(formula, 'the squared-cycle formula')} "
                f"vs multiplicity sum {_fmt_value(nq_sum, 'the multiplicity sum')}",
            )
        if group.kind == "cyclic":
            yield (
                "multiplicity sum equals full space dimension",
                nq_sum == d**group.degree,
                f"{_fmt_value(nq_sum, 'the multiplicity sum')} == {_fmt_value(d**group.degree, 'd**n')}",
            )

    if group.kind == "cyclic" and d**group.degree <= cfg.enum_bound:
        reps, _orbit_of = orbit_labels(group, d, max_states=cfg.enum_bound)
        symbols = np.concatenate(list(encoding.necklaces(group.degree, d, max_count=cfg.enum_bound)))
        ok = np.array_equal(symbols @ kernels.digit_powers(group.degree, d), reps)
        yield "necklace generator matches orbit representatives", ok, f"{len(symbols)} representatives"
        basis = encoding.message_basis_cyclic(group.degree, d, max_states=cfg.enum_bound)
        report = channel_mod.verify_zero_error(group, basis)
        yield (
            "zero-error quantum decoding",
            report.zero_error,
            f"{report.messages_tested} messages x {report.group_elements_tested} elements, "
            f"max off-diagonal overlap {report.max_offdiag_overlap:.2e}",
        )


def cmd_verify(cfg: RunConfig) -> int:
    _require(cfg, "d")
    group = _resolve_group(cfg)
    failed = False
    rows = []
    for name, passed, detail in _verify_checks(cfg, group, cfg.d):
        failed |= not passed
        rows.append([("ok" if passed else "FAIL"), name, detail])
    _print_rows(cfg, ["status", "check", "detail"], rows)
    return EXIT_VERIFY if failed else EXIT_OK


def _format_complex(z: complex) -> str:
    re = round(z.real, 6)
    im = round(z.imag, 6)
    re = re + 0.0
    im = im + 0.0
    if im == 0:
        return f"{re:g}"
    if re == 0:
        return f"{im:g}i"
    return f"{re:g}{im:+g}i"


def cmd_chartable(cfg: RunConfig) -> int:
    group = _resolve_group(cfg)
    table = characters.character_table(group, max_order=cfg.oracle_bound)
    fs = characters.frobenius_schur_indicators(group, table)
    class_names = [
        "[" + " ".join(f"{part}^{mult}" if mult > 1 else str(part) for part, mult in c.partition) + "]"
        for c in table.classes
    ]
    if cfg.fmt == "json":
        payload = {
            "group_order": table.group_order,
            "classes": [
                {"cycle_type": name, "size": c.size, "representative": list(c.representative.images)}
                for name, c in zip(class_names, table.classes)
            ],
            "irreps": [
                {
                    "label": ir.label,
                    "dim": ir.dim,
                    "fs_indicator": fs.values[i],
                    "values": [{"re": v.real, "im": v.imag} for v in ir.values],
                }
                for i, ir in enumerate(table.irreps)
            ],
        }
        print(json.dumps(payload, indent=1))
        return EXIT_OK
    header = ["irrep", "dim", "FS"] + [f"{name}x{c.size}" for name, c in zip(class_names, table.classes)]
    rows = [
        [ir.label, ir.dim, f"{fs.values[i]:+d}"] + [_format_complex(v) for v in ir.values]
        for i, ir in enumerate(table.irreps)
    ]
    _print_rows(cfg, header, rows)
    return EXIT_OK


def cmd_scaling(cfg: RunConfig) -> int:
    _require(cfg, "d", "n")
    if cfg.mode == "all":
        raise UsageError("scaling requires a single --mode (classical, quantum or ancilla)")
    if not cfg.group_kind:
        raise UsageError("scaling requires a named --group")
    if cfg.group_kind == "cyclic" and cfg.mode == "quantum":
        raise UsageError("the cyclic quantum count is exact (d**n); no asymptotic law is tabulated")
    tag = {"classical": "Nc", "quantum": "Nq", "ancilla": "Na"}[cfg.mode]
    kind = f"{cfg.group_kind}_{tag}"
    n_lo = cfg.n
    n_hi = cfg.n_max if cfg.n_max is not None else cfg.n
    if n_hi < n_lo:
        raise UsageError("--n-max must be >= --n")
    counter = CLOSED_FORMS[cfg.group_kind]
    rows = []
    for n in range(n_lo, n_hi + 1):
        report = counter(n, cfg.d)
        exact = {"classical": report.n_c, "quantum": report.n_q, "ancilla": report.n_a}[cfg.mode]
        quantity = f"{QUANTITY_BY_MODE[cfg.mode]} at n={n}"
        _printable(exact, f"the exact {quantity}")
        estimate = counting.asymptotic_estimate(kind, n, cfg.d)
        try:
            asymptotic = float(estimate.leading_value)
        except OverflowError:
            raise ResourceBoundError(f"the asymptotic {quantity} is beyond float range") from None
        ratio = Fraction(exact) / estimate.leading_value
        rows.append([n, exact, asymptotic, float(ratio)])
    _print_rows(cfg, ["n", "exact", "asymptotic", "ratio"], rows)
    return EXIT_OK


COMMANDS = {
    "count": cmd_count,
    "representatives": cmd_representatives,
    "encode": cmd_encode,
    "simulate": cmd_simulate,
    "verify": cmd_verify,
    "chartable": cmd_chartable,
    "scaling": cmd_scaling,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    ns = read_plain_argv(argv)
    if ns is None:
        try:
            ns = build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    try:
        cfg = _config(ns)
        return COMMANDS[cfg.command](cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceBoundError as exc:
        print(f"resource bound: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except MemoryError as exc:
        detail = " ".join(str(exc).split()) or "allocation failed"
        print(f"resource bound: out of memory ({detail})", file=sys.stderr)
        return EXIT_BOUND
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PermChannelError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
