import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import permchannel
from oracles import fkm_necklaces
from permchannel import cli, kernels, perms
from permchannel.cli import main
from permchannel.errors import ResourceBoundError

GROUP_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "groups"


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_cyclic_table(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--group", "cyclic", "--n", "4", "--d", "2")
        assert code == 0
        lines = out.splitlines()
        assert any(line.startswith("N_c") and " 6 " in line for line in lines)
        assert any(line.startswith("N_q") and " 16 " in line for line in lines)
        assert any(line.startswith("N_a") and " 70 " in line for line in lines)

    def test_symmetric_json_uses_strings(self, capsys):
        code, out, _ = run_cli(
            capsys, "count", "--group", "symmetric", "--n", "3", "--d", "2", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["N_c"]["value"] == "4"
        assert payload["N_q"]["value"] == "6"
        assert payload["N_a"]["value"] == "20"

    def test_group_file(self, capsys, tmp_path):
        path = tmp_path / "trivial.txt"
        path.write_text("# identity only\n0 1 2\n")
        code, out, _ = run_cli(capsys, "count", "--group-file", str(path), "--d", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["N_c"]["value"] == "8"
        assert payload["N_q"]["value"] == "8"
        assert payload["N_a"]["value"] == "64"

    def test_mode_filter(self, capsys):
        code, out, _ = run_cli(
            capsys, "count", "--group", "cyclic", "--n", "4", "--d", "2", "--mode", "classical"
        )
        assert code == 0
        assert "N_c" in out and "N_q" not in out

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_counts_past_the_digit_limit_are_a_bound(self, capsys, fmt):
        # N_c of C20000 at d=2 has about 6000 digits; the interpreter prints at most 4300 by default.
        code, out, err = run_cli(capsys, "count", "--group", "cyclic", "--n", "20000", "--d", "2", "--format", fmt)
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("resource bound: N_c has more than")

    def test_digit_limit_edge(self):
        limit = sys.get_int_max_str_digits()
        assert cli._printable(10**limit - 1, "x") == 10**limit - 1
        with pytest.raises(ResourceBoundError, match=f"more than {limit} digits"):
            cli._printable(10**limit, "x")

    def test_missing_d_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "count", "--group", "cyclic", "--n", "4")
        assert code == 2
        assert "--d" in err

    def test_missing_group_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "count", "--d", "2")
        assert code == 2


class TestRepresentatives:
    def test_lexicographic_list(self, capsys):
        code, out, _ = run_cli(capsys, "representatives", "--group", "cyclic", "--n", "4", "--d", "2")
        assert code == 0
        assert out.splitlines() == ["0000", "0001", "0011", "0101", "0111", "1111"]

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "representatives", "--group", "cyclic", "--n", "1", "--d", "3", "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == ["0", "1", "2"]

    @pytest.mark.parametrize("n,d", [(6, 2), (3, 10), (3, 11), (2, 12), (5, 1), (8, 3)])
    def test_lines_are_the_representative_strings(self, capsys, n, d):
        sep = "" if d <= 10 else ","
        expected = [sep.join(map(str, symbols)) for symbols in fkm_necklaces(n, d)]
        args = ("representatives", "--group", "cyclic", "--n", str(n), "--d", str(d))
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        assert out == "\n".join(expected) + "\n"
        code, out, _ = run_cli(capsys, *args, "--format", "json")
        assert code == 0
        assert out == json.dumps(expected) + "\n"

    @pytest.mark.parametrize("n,d", [(20, 2), (12, 3)])
    @pytest.mark.parametrize("fmt", ["table", "csv"])
    def test_lines_across_many_blocks(self, capsys, n, d, fmt):
        args = ("representatives", "--group", "cyclic", "--n", str(n), "--d", str(d), "--format", fmt)
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        assert out == "".join("".join(map(str, symbols)) + "\n" for symbols in fkm_necklaces(n, d))

    def test_non_cyclic_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "representatives", "--group", "dihedral", "--n", "4", "--d", "2")
        assert code == 2

    def test_bound_exceeded(self, capsys):
        code, _, err = run_cli(capsys, "representatives", "--group", "cyclic", "--n", "30", "--d", "2")
        assert code == 3
        assert "bound" in err


class TestEncode:
    def test_writes_basis_and_prints_summary(self, capsys, tmp_path):
        out_path = tmp_path / "basis.json"
        code, out, _ = run_cli(
            capsys, "encode", "--group", "cyclic", "--n", "4", "--d", "2", "--out", str(out_path)
        )
        assert code == 0
        assert "states: 16" in out
        assert "m: [6,3,4,3]" in out
        payload = json.loads(out_path.read_text())
        assert len(payload["entries"]) == 16

    def test_two_positions_summary(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "encode", "--group", "cyclic", "--n", "2", "--d", "2",
            "--out", str(tmp_path / "b.json"),
        )
        assert code == 0
        assert "m: [3,1]" in out

    def test_stdout_payload_without_out(self, capsys):
        code, out, _ = run_cli(capsys, "encode", "--group", "cyclic", "--n", "1", "--d", "3")
        assert code == 0
        assert '"multiplicities": [' in out and "states: 3" in out

    def test_non_cyclic_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "encode", "--group", "symmetric", "--n", "3", "--d", "2")
        assert code == 2


@pytest.mark.parametrize("command", ["count", "verify", "simulate"])
def test_out_is_an_encode_flag_only(capsys, tmp_path, command):
    path = tmp_path / "out.json"
    code, out, err = run_cli(capsys, command, "--group", "cyclic", "--n", "4", "--d", "2", "--out", str(path))
    assert code == 2
    assert out == "" and "unrecognized arguments: --out" in err
    assert not path.exists()


class TestSimulate:
    def test_all_modes_pass_for_cyclic(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--group", "cyclic", "--n", "3", "--d", "2", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["classical"]["failures"] == 0
        assert payload["quantum"]["failures"] == []
        assert payload["ancilla"]["triples"] == 24

    def test_classical_mode_works_for_any_group(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--group", "symmetric", "--n", "4", "--d", "2",
            "--mode", "classical", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["classical"]["failures"] == 0

    def test_quantum_mode_requires_cyclic(self, capsys):
        code, _, _ = run_cli(
            capsys, "simulate", "--group", "dihedral", "--n", "4", "--d", "2", "--mode", "quantum"
        )
        assert code == 2


    def test_ten_positions_all_modes_finish(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--group", "cyclic", "--n", "10", "--d", "2", "--format", "json")
        assert code == 0
        ancilla = json.loads(out)["ancilla"]
        assert ancilla["failures"] == [] and ancilla["triples"] == ancilla["expected_triples"] == 104968

    def test_ten_positions_three_symbols_ancilla_finishes(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--group", "cyclic", "--n", "10", "--d", "3", "--mode", "ancilla", "--format", "json"
        )
        assert code == 0
        ancilla = json.loads(out)["ancilla"]
        assert ancilla["failures"] == [] and ancilla["triples"] == ancilla["expected_triples"] == 348684381

    def test_fourteen_positions_quantum_finishes(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--group", "cyclic", "--n", "14", "--d", "2", "--mode", "quantum", "--format", "json"
        )
        assert code == 0
        quantum = json.loads(out)["quantum"]
        assert quantum["messages"] == 16384 and quantum["elements"] == 14 and quantum["failures"] == []


class TestQuantumOutput:
    """Every byte of the quantum certificate but the round-off digits of the largest off-diagonal overlap."""

    def test_simulate_quantum_line(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--group", "cyclic", "--n", "8", "--d", "2", "--mode", "quantum")
        assert code == 0
        head = '[quantum] {"messages": 256, "elements": 8, "failures": [], "max_offdiag_overlap": '
        assert out.startswith(head) and out.endswith("}\n") and out.count("\n") == 1
        assert 0.0 <= float(out[len(head) : -2]) < 1e-30

    def test_simulate_all_modes_make_one_overlap_pass(self, capsys, monkeypatch):
        # One d**n transpose per element for the pattern pass (8), none for the ancilla, and the orbit-label
        # pulls: the classical check and the cyclic basis each label C8 at d=2 once (on their own groups),
        # pulling along r, r**2 and r**4 (windows of 2, 4 and 8 steps, each lowering some label); the next
        # jump, r**8 == e, ends the fixpoint unpulled: 2 * 3 transposes.
        calls = []
        moved_values = kernels.moved_values
        monkeypatch.setattr(kernels, "moved_values", lambda *args: calls.append(args) or moved_values(*args))
        code, out, _ = run_cli(capsys, "simulate", "--group", "cyclic", "--n", "8", "--d", "2")
        assert code == 0
        assert len(calls) == 8 + 2 * 3
        classical, quantum, ancilla = out.splitlines(keepends=True)
        assert classical == '[classical] {"messages": 36, "elements": 8, "failures": 0}\n'
        head = '[quantum] {"messages": 256, "elements": 8, "failures": [], "max_offdiag_overlap": '
        assert quantum.startswith(head) and quantum.endswith("}\n")
        assert 0.0 <= float(quantum[len(head) : -2]) < 1e-30
        assert ancilla == '[ancilla] {"triples": 8230, "failures": [], "expected_triples": 8230}\n'

    def test_verify_quantum_row(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--group", "cyclic", "--n", "8", "--d", "2")
        assert code == 0
        rows = [line for line in out.splitlines() if "zero-error quantum decoding" in line]
        assert len(rows) == 1
        head, tail = rows[0].split("max off-diagonal overlap ")
        assert head == "ok      zero-error quantum decoding" + " " * 33 + "256 messages x 8 elements, "
        value = tail.rstrip()
        assert tail == value + " " * 5 and value == f"{float(value):.2e}" and float(value) < 1e-30


def _imported_after(argv, module):
    """Run the CLI on argv in a fresh interpreter; its exit code, and whether ``module`` was imported."""
    script = (
        "import contextlib, io, sys\n"
        "from permchannel.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(sys.argv[2:])\n"
        "print(code, sys.argv[1] in sys.modules)\n"
    )
    src = str(Path(permchannel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", script, module, *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    code, imported = done.stdout.split()
    return int(code), imported == "True"


@pytest.mark.parametrize(
    "argv",
    [("simulate", "--group", "cyclic", "--n", "6", "--d", "2"), ("encode", "--group", "cyclic", "--n", "4", "--d", "2")],
)
def test_commands_leave_numpy_ma_unimported(argv):
    # ``np.unique`` without return options imports numpy.ma (about 13 ms) to check for a mask.
    assert _imported_after(argv, "numpy.ma") == (0, False)


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--group", "symmetric", "--n", "5", "--d", "2"),
        ("count", "--group-file", str(GROUP_DIR / "f21.txt"), "--d", "3"),
        ("chartable", "--group", "dihedral", "--n", "6"),
    ],
    ids=["verify S5", "count f21", "chartable D6"],
)
def test_character_tables_leave_numpy_random_unimported(argv):
    # The eigensolver draws its class-sum weights from the stdlib ``random``; importing
    # numpy.random costs about 17 ms and 5.6 MB in each fresh process.
    assert _imported_after(argv, "numpy.random") == (0, False)


def test_memory_error_exits_with_bound_code(capsys, monkeypatch):
    def exhausted(_cfg):
        raise MemoryError("Unable to allocate 4.00 GiB for an array with shape (16384, 16384)")

    monkeypatch.setitem(cli.COMMANDS, "simulate", exhausted)
    code, out, err = run_cli(capsys, "simulate", "--group", "cyclic", "--n", "14", "--d", "2")
    assert code == 3
    assert out == ""
    assert err.startswith("resource bound: ") and err.count("\n") == 1
    assert "Traceback" not in err


class TestVerify:
    def test_dihedral_cross_checks(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--group", "dihedral", "--n", "4", "--d", "2")
        assert code == 0
        assert "13 == 13" in out
        assert "FAIL" not in out

    def test_cyclic_negative_control(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--group", "cyclic", "--n", "4", "--d", "2")
        assert code == 0
        assert "FS = [1, 0, 1, 0]" in out
        assert "formula 10 vs multiplicity sum 16" in out

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    @pytest.mark.parametrize("kind", ["cyclic", "symmetric"])
    def test_counts_past_the_digit_limit_are_a_bound(self, capsys, kind, fmt):
        # At d = 10**1500, N_c on three points has about 4500 digits and N_a about 9000; the interpreter
        # prints at most 4300 by default.
        d = str(10**1500)
        code, out, err = run_cli(capsys, "verify", "--group", kind, "--n", "3", "--d", d, "--format", fmt)
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("resource bound: N_a has more than")

    def test_trivial_cyclic(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--group", "cyclic", "--n", "1", "--d", "2")
        assert code == 0
        assert "FAIL" not in out

    def test_cycle_counts_tallied_once_per_group(self, capsys, monkeypatch):
        # The group averages at d, at d**2 and for N_a share the element tally; N_q reads the squares tally.
        calls = []
        cycle_counts = perms._cycle_counts
        monkeypatch.setattr(perms, "_cycle_counts", lambda rows: calls.append(rows.shape) or cycle_counts(rows))
        code, out, _ = run_cli(capsys, "verify", "--group", "symmetric", "--n", "6", "--d", "2")
        assert code == 0 and "FAIL" not in out
        assert len(calls) <= 2

    def test_custom_group_file(self, capsys, tmp_path):
        path = tmp_path / "klein.txt"
        path.write_text("1 0 3 2\n2 3 0 1\n")
        code, out, _ = run_cli(capsys, "verify", "--group-file", str(path), "--d", "2")
        assert code == 0
        assert "FAIL" not in out


class TestChartable:
    def test_s3_table(self, capsys):
        code, out, _ = run_cli(capsys, "chartable", "--group", "symmetric", "--n", "3")
        assert code == 0
        assert "mu2" in out and "FS" in out

    def test_json_payload(self, capsys):
        code, out, _ = run_cli(capsys, "chartable", "--group", "cyclic", "--n", "4", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["group_order"] == 4
        assert [ir["fs_indicator"] for ir in payload["irreps"]] == [1, 0, 1, 0]

    def test_bound(self, capsys):
        code, _, _ = run_cli(capsys, "chartable", "--group", "symmetric", "--n", "8")
        assert code == 3


class TestScaling:
    def test_symmetric_classical_ratio(self, capsys):
        code, out, _ = run_cli(
            capsys, "scaling", "--group", "symmetric", "--n", "1", "--n-max", "5",
            "--d", "2", "--mode", "classical",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,exact,asymptotic,ratio"
        rows = [line.split(",") for line in lines[1:]]
        for n, row in zip(range(1, 6), rows):
            assert int(row[1]) == n + 1
            assert float(row[3]) == (n + 1) / n

    def test_single_color_is_constant(self, capsys):
        code, out, _ = run_cli(
            capsys, "scaling", "--group", "cyclic", "--n", "2", "--n-max", "6",
            "--d", "1", "--mode", "classical",
        )
        assert code == 0
        for line in out.splitlines()[1:]:
            assert line.split(",")[1] == "1"

    def test_requires_single_mode(self, capsys):
        code, _, _ = run_cli(capsys, "scaling", "--group", "cyclic", "--n", "2", "--d", "2")
        assert code == 2

    @pytest.mark.parametrize("n", ["1100", "20000"])
    def test_values_past_float_or_digit_range_are_a_bound(self, capsys, n):
        # At n=1100 the asymptotic 2**n / n overflows a float; at n=20000 the exact count has too many digits.
        code, out, err = run_cli(
            capsys, "scaling", "--group", "cyclic", "--n", n, "--d", "2", "--mode", "classical"
        )
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("resource bound:")

    def test_cyclic_quantum_has_no_law(self, capsys):
        code, _, err = run_cli(
            capsys, "scaling", "--group", "cyclic", "--n", "2", "--d", "2", "--mode", "quantum"
        )
        assert code == 2
        assert "exact" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("--group", "dihedral", "--n", "4"),  # detail "N_c 6, N_a 55"
        ("--group-file", str(GROUP_DIR / "f21.txt")),  # detail "FS = [1, 0, 0, 0, 0]; ..."
    ],
    ids=["dihedral-4", "f21"],
)
def test_verify_csv_rows_have_three_fields(capsys, argv):
    code, out, _ = run_cli(capsys, "verify", *argv, "--d", "2", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["status", "check", "detail"]
    assert any("," in row[2] for row in rows[1:])
    assert all(len(row) == 3 for row in rows)


@pytest.mark.parametrize("d", ["0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--group", "cyclic", "--n", "4"),
        ("count", "--group-file", "GROUP_FILE"),
        ("representatives", "--group", "cyclic", "--n", "4"),
        ("encode", "--group", "cyclic", "--n", "4"),
        ("simulate", "--group", "cyclic", "--n", "4"),
        ("simulate", "--group", "cyclic", "--n", "4", "--mode", "quantum"),
        ("verify", "--group", "cyclic", "--n", "4"),
        ("chartable", "--group", "cyclic", "--n", "4"),
        ("scaling", "--group", "cyclic", "--n", "4", "--mode", "classical"),
    ],
    ids=" ".join,
)
def test_alphabet_below_one_is_a_usage_error(capsys, tmp_path, argv, d):
    path = tmp_path / "c4.txt"
    path.write_text("1 2 3 0\n")
    argv = [str(path) if arg == "GROUP_FILE" else arg for arg in argv]
    code, out, err = run_cli(capsys, *argv, "--d", d)
    assert code == 2
    assert out == ""
    assert err == "error: --d must be >= 1\n"


class TestLargeCyclicGroupFile:
    """A 40-cycle file: the multiplicity sums reach 2**40 / 40, far past a fixed rounding tolerance."""

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "c40.txt"
        path.write_text(" ".join(str((i + 1) % 40) for i in range(40)) + "\n")
        return str(path)

    def test_count_prints_the_full_quantum_count(self, capsys, path):
        code, out, err = run_cli(capsys, "count", "--group-file", path, "--d", "2", "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["N_q"] == {"value": str(2**40), "method": "oracle"}

    def test_verify_passes(self, capsys, path):
        code, out, err = run_cli(capsys, "verify", "--group-file", path, "--d", "2")
        assert (code, err) == (0, "")
        assert "FAIL" not in out and "40 irreps" in out


class TestCycleFileBeyondFloat64:
    """52- and 56-cycle files: the trivial irrep's sum passes float64 resolution, and is formed in Python ints."""

    @pytest.fixture(params=[52, 56])
    def cycle(self, request, tmp_path):
        n = request.param
        path = tmp_path / f"c{n}.txt"
        path.write_text(" ".join(str((i + 1) % n) for i in range(n)) + "\n")
        return n, str(path)

    def test_count_prints_the_full_quantum_count(self, capsys, cycle):
        n, path = cycle
        code, out, err = run_cli(capsys, "count", "--group-file", path, "--d", "2")
        assert (code, err) == (0, "")
        assert f"N_q {2**n} oracle" in " ".join(out.split())  # table columns, whitespace collapsed

    def test_verify_passes(self, capsys, cycle):
        n, path = cycle
        code, out, err = run_cli(capsys, "verify", "--group-file", path, "--d", "2")
        assert (code, err) == (0, "")
        assert "FAIL" not in out and f"{n} irreps" in out


class TestExactMultiplicities:
    """Groups whose multiplicity sums pass float64 resolution: the projection is exact, so verify passes."""

    def test_verify_transposition_file_passes(self, capsys, tmp_path):
        path = tmp_path / "t56.txt"
        path.write_text(" ".join(map(str, [1, 0, *range(2, 56)])) + "\n")  # <(0 1)> on 56 points
        code, out, err = run_cli(capsys, "verify", "--group-file", str(path), "--d", "2")
        assert (code, err) == (0, "")
        assert "failure" not in out and "FAIL" not in out and "2 irreps" in out

    def test_verify_dihedral_forty_passes(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--group", "dihedral", "--n", "40", "--d", "3")
        assert (code, err) == (0, "")
        assert "failure" not in out and "FAIL" not in out and "23 irreps" in out


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ("count", "--group", "dihedral", "--n", "5", "--d", "3", "--format", "json"),
            ("verify", "--group", "cyclic", "--n", "4", "--d", "2"),
            ("chartable", "--group", "symmetric", "--n", "4", "--format", "json"),
            ("simulate", "--group", "cyclic", "--n", "4", "--d", "2", "--format", "json"),
        ],
    )
    def test_identical_invocations_identical_bytes(self, capsys, args):
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second


def test_help_exits_cleanly(capsys):
    code, _, _ = run_cli(capsys, "--help")
    assert code == 0
