import csv
import hashlib
import io
import json
import tracemalloc
import xml.etree.ElementTree as ET
from math import sqrt
from pathlib import Path
from time import perf_counter

import pytest

from dicke import SpinSpecies, dicke_expansion, enumerate_basis
import dicke.cli
from dicke.cli import BASIS_CAP, CHAIN_CAP, SWEEP_CAP, main


GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden"


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def test_no_arguments_prints_usage_and_exits_2(capsys):
    code, out, err = run([], capsys)
    assert code == 2
    assert "usage" in err.lower()


def test_console_entry_point_reads_the_arguments_after_the_program(
    capsys, monkeypatch
):
    monkeypatch.setattr("sys.argv", ["dicke", "negativity", "--state", "psie"])
    with pytest.raises(SystemExit) as exit_info:
        dicke.cli.console_main()
    assert exit_info.value.code == 0
    assert capsys.readouterr().out == "0.822109\n"


def test_unknown_command_exits_2(capsys):
    code, _, _ = run(["frobnicate"], capsys)
    assert code == 2


def test_parser_exits_return_their_status(capsys):
    code, out, err = run(["--help"], capsys)
    assert (code, err) == (0, "")
    assert out.startswith("usage: dicke")
    code, out, err = run(["basis"], capsys)
    assert (code, out) == (2, "")
    assert "required" in err


def test_unknown_flag_exits_2(capsys):
    code, _, _ = run(["basis", "--spin", "1", "--n", "4", "--m", "0", "--bogus"], capsys)
    assert code == 2


def test_basis_csv(capsys):
    code, out, err = run(["basis", "--spin", "1", "--n", "10", "--m", "5"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["n_+1", "n_0", "n_-1"]
    assert {tuple(map(int, row)) for row in rows} == {
        (7, 1, 2), (6, 3, 1), (5, 5, 0),
    }


def test_basis_flags_parametric_count_mismatch(capsys):
    code, out, err = run(["basis", "--spin", "3/2", "--n", "6", "--m", "0"], capsys)
    assert code == 0
    assert "parametric count formula gives 14" in err
    assert "direct enumeration gives 8" in err


def test_basis_json(capsys):
    code, out, _ = run(
        ["basis", "--spin", "3/2", "--n", "6", "--m", "0", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    basis = [list(v) for v in enumerate_basis(SpinSpecies.from_str("3/2"), 6, 0)]
    assert payload == {
        "spin": "3/2",
        "n": 6,
        "m": "0",
        "count": 8,
        "parametric_count": 14,
        "basis": basis,
    }


def test_basis_out_of_range_exits_2(capsys):
    code, _, err = run(["basis", "--spin", "2", "--n", "5", "--m", "99"], capsys)
    assert code == 2
    assert "out of range" in err


def test_basis_half_integer_magnetization(capsys):
    code, out, _ = run(["basis", "--spin", "3/2", "--n", "5", "--m", "13/2"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header[0] == "n_+3/2"
    assert all(len(row) == 4 for row in rows)


@pytest.mark.parametrize(
    "argv, first_row",
    [
        (["basis", "--spin", "3/2", "--n", "3", "--m", "-7/2"], "0,0,1,2"),
        (["expand", "--spin", "3/2", "--n", "3", "--m", "-7/2"], "0,0,1,2,1"),
        (["oracle", "--spin", "1/2", "--n", "3", "--m", "-1/2"], "1,2,1"),
        (["expand", "--spin", "1", "--n", "4", "--m", "-3"], "0,1,3,1"),
        (["expand", "--spin", "1", "--n", "2", "--m", "0"], "1,0,1,0.57735026918962573"),
    ],
    ids=["basis", "expand", "oracle", "integer", "zero"],
)
def test_m_takes_the_next_token_as_its_value(argv, first_row, capsys):
    """The token after `--m` is its value, as in `--m=M`, even `-7/2`."""
    code, out, err = run(argv, capsys)
    assert code == 0
    assert out.splitlines()[1] == first_row
    assert run([*argv[:-2], f"--m={argv[-1]}"], capsys) == (code, out, err)


def test_bare_trailing_m_is_a_usage_error(capsys):
    code, out, err = run(["expand", "--spin", "1", "--n", "2", "--m"], capsys)
    assert (code, out) == (2, "")
    assert "argument --m: expected one argument" in err


#: every value flag of every command, with a value that each command accepts
STATE_FLAGS = {"--spin": "1", "--n": "2", "--m": "0", "--format": "csv"}
VALUE_FLAGS = {
    "basis": STATE_FLAGS,
    "expand": STATE_FLAGS,
    "oracle": STATE_FLAGS,
    "antisym": {"--spin": "1", "--format": "csv"},
    "negativity": {"--state": "dicke", "--n": "4", "--m": "0"},
    "figures": {"--out-dir": "figures"},
    "plot": {"--in": "sweep.csv", "--out": "sweep.svg"},
}


@pytest.mark.parametrize(
    "command, flag, form",
    [
        (command, flag, form)
        for command, flags in VALUE_FLAGS.items()
        for flag in flags
        for form in ("joined", "spaced")
        if form == "joined" or flag == "--m"
    ],
)
def test_double_dash_as_a_value_is_a_usage_error(
    command, flag, form, capsys, monkeypatch, tmp_path
):
    """argparse leaves `--flag=--` as an empty list, and `--m --` is joined
    to `--m=--`: each exits 2 before its command runs."""
    monkeypatch.chdir(tmp_path)
    argv = [command]
    for name, value in VALUE_FLAGS[command].items():
        if name != flag:
            argv += [name, value]
        else:
            argv += [f"{name}=--"] if form == "joined" else [name, "--"]
    code, out, err = run(argv, capsys)
    assert (code, out) == (2, "")
    assert f"dicke {command}: error: no value for " in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_expand_reproduces_the_worked_example(capsys):
    code, out, _ = run(["expand", "--spin", "1", "--n", "10", "--m", "-1"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["n_+1", "n_0", "n_-1", "coefficient"]
    values = {tuple(map(int, row[:3])): float(row[3]) for row in rows}
    assert values[(4, 1, 5)] == pytest.approx(0.1225, abs=5e-5)
    assert values[(2, 5, 3)] == pytest.approx(0.6929, abs=5e-5)
    assert len(values) == 5


def test_expand_csv_round_trips_exactly(capsys):
    code, out, _ = run(["expand", "--spin", "2", "--n", "5", "--m", "3"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    reference = dicke_expansion(SpinSpecies.from_str("2"), 5, 6).as_dict()
    for row in rows:
        occ = tuple(map(int, row[:5]))
        assert float(row[5]) == reference[occ]  # 17 significant digits


def test_expand_spin_half_at_a_hundred_million_particles(capsys):
    start = perf_counter()
    code, out, _ = run(
        ["expand", "--spin", "1/2", "--n", "100000000", "--m", "0"], capsys
    )
    assert perf_counter() - start < 1.0
    assert code == 0
    assert out == "n_+1/2,n_-1/2,coefficient\n50000000,50000000,1\n"


def test_expand_json(capsys):
    code, out, _ = run(
        ["expand", "--spin", "1", "--n", "2", "--m", "0", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["spin"] == "1"
    assert payload["m"] == "0"
    terms = {tuple(t["occupation"]): t["coefficient"] for t in payload["terms"]}
    assert terms[(0, 2, 0)] == pytest.approx(sqrt(2 / 3), abs=1e-12)


def test_oracle_matches_expand_and_reports_deviation(capsys):
    code, oracle_out, err = run(
        ["oracle", "--spin", "3/2", "--n", "6", "--m", "-1", "--diff-closed-form"],
        capsys,
    )
    assert code == 0
    assert "max deviation from closed form" in err
    code, expand_out, _ = run(["expand", "--spin", "3/2", "--n", "6", "--m", "-1"], capsys)
    _, oracle_rows = parse_csv(oracle_out)
    _, expand_rows = parse_csv(expand_out)
    assert len(oracle_rows) == len(expand_rows) == 8
    for o_row, e_row in zip(oracle_rows, expand_rows):
        assert o_row[:4] == e_row[:4]
        assert float(o_row[4]) == pytest.approx(float(e_row[4]), abs=1e-10)


def test_oracle_deviation_covers_the_terms_the_oracle_prunes(capsys):
    """Spin 3/2 at N = 48, M = 0 has closed-form amplitudes below the
    oracle's prune threshold: a pruned term counts as amplitude 0."""
    species = SpinSpecies.from_str("3/2")
    basis_size = len(dicke_expansion(species, 48, 0).terms)
    assert len(dicke.ladder.oracle_expansion(species, 48, 0).terms) < basis_size
    code, _, err = run(
        ["oracle", "--spin", "3/2", "--n", "48", "--m", "0", "--diff-closed-form"],
        capsys,
    )
    assert code == 0
    assert err.startswith("max deviation from closed form: ")
    assert float(err.rsplit(":", 1)[1]) < 1e-13


#: sha256 of the .17g CSV each oracle command prints; the spin-3/2 and
#: spin-2 chains are long enough to switch to the factor tables, which must
#: not move a bit, and the spin-1 chain walks 400 steps without them
ORACLE_DIGESTS = {
    ("2", "40", "0"): "c6f4d65811f3c8c3a046dbd63a0dfc6ebca6c836b159666532e4510cd5c4a2cb",
    ("3/2", "40", "1"): "2f3498630b39505418ae6b9509e0bbf2da218fec0e197298708d96c6a2967ae5",
    ("2", "60", "0"): "09100d82e7052832a5aa5cfa6af21c46f0fd283b7880ea546bea2982a5db04e0",
    ("1", "400", "-9"): "7808456957d2d3c0cc928a3cf39910682d32967f7433699c65abbcbcf9341864",
}


@pytest.mark.parametrize("spin,n,m", sorted(ORACLE_DIGESTS))
def test_oracle_output_bytes_are_pinned(spin, n, m, capsys):
    code, out, err = run(["oracle", "--spin", spin, "--n", n, "--m", m], capsys)
    assert code == 0 and err == ""
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == ORACLE_DIGESTS[spin, n, m]


#: sha256 of the .17g CSV each expand command prints, across the walk's
#: runs, the sub-normal amplitudes of spin 1 N = 2400 and a half-integer M
EXPAND_DIGESTS = {
    ("2", "60", "0"): "09dce4f59fd1f63fc13084c1f9509f9f9c9202df9db3b738a9f8daee614201b9",
    ("1", "2400", "0"): "84c19eaa4c77b75802eb63fff91c1920e514459a9c766af4894e220e965474fd",
    ("3/2", "41", "1/2"): "e828b90a28baf7730d0e9b03c4d1df0dd4cb03e02b66e310ab15229fe5823916",
}


@pytest.mark.parametrize("spin,n,m", sorted(EXPAND_DIGESTS))
def test_expand_output_bytes_are_pinned(spin, n, m, capsys):
    code, out, err = run(["expand", "--spin", spin, "--n", n, "--m", m], capsys)
    assert code == 0 and err == ""
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == EXPAND_DIGESTS[spin, n, m]


#: sha256 of the .17g CSV `antisym` prints for each spin: every sign and
#: order of the first-quantized terms
ANTISYM_DIGESTS = {
    "1/2": "1d37cf0354874f6cb331224c66e3b5b966b970a6e5682542fd0442c6d53749b7",
    "1": "cf3a853627242b77679fe4eb80f7324ac5c81f373cafe0ac3f95cd7c438c1e9d",
    "3/2": "1dc1057626911c742050a5638251dd7e9beabf20624f9277f5f0e1e4de102022",
    "2": "f144590e43c64f0c7fa7abc8d22047b01dacbb75e857f9f2b9347d934b6c88b6",
}


@pytest.mark.parametrize("spin", sorted(ANTISYM_DIGESTS))
def test_antisym_output_bytes_are_pinned(spin, capsys):
    code, out, err = run(["antisym", "--spin", spin], capsys)
    assert code == 0 and err == ""
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == ANTISYM_DIGESTS[spin]


#: sha256 of each `--help` text at 80 columns: the top-level parser, then
#: every subcommand
HELP_DIGESTS = {
    "": "24eaad03ffa4b87c480087190f481f0918eca4c686834f6529f6ea92e8b9aa11",
    "basis": "24b199ab9776d93a521b6a95934f312abdeedc3d9780d7715d5753ceee7024b9",
    "expand": "9324efb1934249d6f72a6577c26d2f00900389fdc5da519ba555e685be01f602",
    "oracle": "0e5b6e9b3bd2f7c1ab4174ff843370b02b068e54c18a1908b5a1b1af3d2d0d86",
    "verify-tables": "0ba31a123ca699f970c861167ed9f8165c738a684b092cb5ab8926c869849bf9",
    "antisym": "be4634244b52defc7b175faf254c48353b65922f438d2a40fe5dcf56176b10f6",
    "negativity": "5850a8f4cb7e26f96a64d7dca23cb2cee8332687f2239918afac7849dace6e86",
    "figures": "e1cc36b21f619bd391aad426836e420a0fb7b72f8fceb7c1a156b60f139afc2b",
    "plot": "4dbeaa8e85f396b5feb352da6d4414d8afa723b0b803455f67c71ad11b2aab5a",
}


@pytest.mark.parametrize("command", sorted(HELP_DIGESTS))
def test_help_text_is_pinned(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run([command, "--help"] if command else ["--help"], capsys)
    assert (code, err) == (0, "")
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == HELP_DIGESTS[command], out


#: sha256 of the `--format json` bytes of one command of each JSON writer
JSON_DIGESTS = {
    ("basis", "--spin", "3/2", "--n", "6", "--m", "0"):
        "2ce36c7df77d78c427abf0833acaee8dbe1d48c5aeb05890f9bd23ca39fcdbf7",
    ("expand", "--spin", "1", "--n", "10", "--m", "-1"):
        "85033862b3e6bd3bfb2e671108caa80fe4fcd12ddb5969052ce308115dc9236a",
    ("oracle", "--spin", "2", "--n", "12", "--m", "2"):
        "ae3ce9d2d0a1098899b209cf75c2b0f6fa405076761a017d620443e05d95fa1d",
    ("antisym", "--spin", "3/2"):
        "a9a5e88ddb49e79362f5a473cd85ae846c5de0efc8f100a001395c249625279b",
}


@pytest.mark.parametrize("argv", sorted(JSON_DIGESTS))
def test_json_output_bytes_are_pinned(argv, capsys):
    code, out, _ = run([*argv, "--format", "json"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == JSON_DIGESTS[argv]


@pytest.mark.parametrize("command", ["basis", "expand", "oracle"])
def test_inputs_past_the_size_caps_exit_2_before_enumerating(
    command, capsys, monkeypatch
):
    def unreachable(*args):
        raise AssertionError("the basis was built")

    for target in (
        "dicke.basis.enumerate_basis",
        "dicke.coefficients.dicke_expansion",
        "dicke.ladder.oracle_expansion",
    ):
        monkeypatch.setattr(target, unreachable)
    start = perf_counter()
    code, out, err = run([command, "--spin", "2", "--n", "400", "--m", "0"], capsys)
    assert perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "past the CLI cap" in err


@pytest.mark.parametrize("extra", [["--m", "0"], ["--sweep"]])
def test_equal_family_past_the_basis_cap_exits_2_before_enumerating(
    extra, capsys, monkeypatch
):
    def unreachable(*args):
        raise AssertionError("the basis was built")

    monkeypatch.setattr(dicke.basis, "enumerate_basis", unreachable)
    code, out, err = run(
        ["negativity", "--state", "equal", "--n", "1000000", *extra], capsys
    )
    assert code == 2
    assert out == ""
    assert "past the CLI cap" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["expand", "--spin", "1", "--n", "100000000", "--m", "0"],
        ["oracle", "--spin", "1", "--n", "100000000", "--m", "0"],
        ["negativity", "--state", "equal", "--n", "100000000", "--sweep"],
        ["negativity", "--state", "equal", "--n", "5000", "--sweep"],
        ["negativity", "--state", "dicke", "--n", "100000000", "--sweep"],
        ["expand", "--spin", "2", "--n", "10000000", "--m", "0"],
    ],
)
def test_size_checks_stop_once_past_the_cap(argv, capsys, monkeypatch):
    """Each refusal is timed and measured; the jobs past it raise when
    called, so a dropped size check fails at once instead of running."""
    import dicke.coefficients, dicke.entanglement, dicke.ladder  # imported unmeasured

    def unreachable(*args):
        raise AssertionError("the job past the cap was started")

    for target in (
        "dicke.basis.enumerate_basis",
        "dicke.coefficients.dicke_expansion",
        "dicke.ladder.oracle_expansion",
        "dicke.entanglement.negativity_sweep",
        "dicke.entanglement.family_pair_reduction",
    ):
        monkeypatch.setattr(target, unreachable)
    tracemalloc.start()
    try:
        start = perf_counter()
        code, out, err = run(argv, capsys)
        elapsed = perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert "past the CLI cap" in err
    assert elapsed < 0.5
    assert peak < 10 * 2**20


@pytest.mark.parametrize("family", ["dicke", "equal"])
def test_sweep_cap_admits_up_to_cap_m_values(family, capsys, monkeypatch):
    monkeypatch.setattr(dicke.cli, "SWEEP_CAP", 11)
    argv = ["negativity", "--state", family, "--sweep", "--n"]
    code, out, _ = run([*argv, "10"], capsys)
    assert code == 0
    assert len(parse_csv(out)[1]) == 11
    code, out, err = run([*argv, "11"], capsys)
    assert (code, out) == (2, "")
    assert "a sweep of more than 11 M values is past the CLI cap" in err


def test_equal_sweep_reports_too_few_particles_before_sizing(capsys, monkeypatch):
    """One particle is refused as too few even when a size check would
    refuse it too; two particles are sized like any other sweep."""
    monkeypatch.setattr(dicke.cli, "BASIS_CAP", 1)
    argv = ["negativity", "--state", "equal", "--sweep", "--n"]
    code, _, err = run([*argv, "1"], capsys)
    assert code == 2
    assert "particles" in err and "cap" not in err
    code, _, err = run([*argv, "2"], capsys)
    assert code == 2
    assert "sweep bases of more than 1 vectors is past the CLI cap" in err


def test_dicke_family_point_at_a_million_particles(capsys):
    code, out, _ = run(
        ["negativity", "--state", "dicke", "--n", "1000000", "--m", "0"], capsys
    )
    assert code == 0
    assert out == "0.000001\n"


def test_size_caps_admit_the_documented_sizes():
    spin_one, spin_two = SpinSpecies.from_str("1"), SpinSpecies.from_str("2")
    assert dicke.basis_size(spin_two, 200, 0, cap=BASIS_CAP) <= BASIS_CAP
    assert dicke.basis_size(spin_two, 60, 0, True, CHAIN_CAP) <= CHAIN_CAP
    assert dicke.basis_size(spin_one, 2400, 0, True, CHAIN_CAP) <= CHAIN_CAP
    assert 2400 + 1 <= SWEEP_CAP


def test_verify_tables_passes(capsys):
    code, out, _ = run(["verify-tables"], capsys)
    assert code == 0
    assert out.count("PASS") == 7  # six tables + the overall line
    assert "FAIL" not in out


def test_verify_tables_weights_option_is_a_usage_error(capsys):
    code, out, err = run(["verify-tables", "--weights", "alt"], capsys)
    assert code == 2
    assert out == ""
    assert "usage" in err and "--weights" in err
    assert "Traceback" not in err


def test_verify_tables_failing_table_exits_4(capsys, monkeypatch):
    import dicke.tables

    reports = [
        dicke.tables.TableReport("good", 3, 0, 1e-9, 2e-9),
        dicke.tables.TableReport("bad", 4, 1, 1e-9, 1.0),
    ]
    monkeypatch.setattr(dicke.tables, "verify_tables", lambda: reports)
    code, out, _ = run(["verify-tables"], capsys)
    assert code == 4
    assert out.splitlines() == [
        "good: rows=3 corrected=0 max_dev_closed_form=1.00e-09 "
        "max_dev_oracle=2.00e-09 PASS",
        "bad: rows=4 corrected=1 max_dev_closed_form=1.00e-09 "
        "max_dev_oracle=1.00e+00 FAIL",
        "overall: FAIL (tolerance 5e-05, weights=binomial)",
    ]


#: sha256 of the `verify-tables` stdout on the bundled data
VERIFY_TABLES_DIGEST = "c809ec2ee35037167818add14c33772c51c009a5bebb18215ffc880b55532e90"


def test_verify_tables_output_bytes_are_pinned(capsys):
    code, out, err = run(["verify-tables"], capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == VERIFY_TABLES_DIGEST


def _reference_data(tmp_path, monkeypatch, edit):
    """Point the table loader at a copy of the bundled CSV whose rows, as
    lists of cells, went through `edit`."""
    import types

    import dicke.tables

    source = dicke.tables.resources.files(dicke.tables.DATA_PACKAGE)
    text = source.joinpath(dicke.tables.DATA_FILENAME).read_text(encoding="utf-8")
    rows = edit(list(csv.reader(io.StringIO(text))))
    with open(tmp_path / dicke.tables.DATA_FILENAME, "w", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)
    monkeypatch.setattr(
        dicke.tables, "resources", types.SimpleNamespace(files=lambda _: tmp_path)
    )


def _cell(line, column, value):
    """An edit that sets one cell of the 1-based CSV `line` to `value`."""
    return lambda rows: [
        r[:column] + [value] + r[column + 1 :] if i == line else r
        for i, r in enumerate(rows, 1)
    ]


@pytest.mark.parametrize(
    "edit, message",
    [
        # n and m swapped in every row: read by name this is the same data,
        # read by position it is another
        (lambda rows: [r[:2] + [r[3], r[2]] + r[4:] for r in rows], "header"),
        (lambda rows: [r[:-1] for r in rows], "header"),
        (lambda rows: [r[:-1] for r in rows[:1]] + rows[1:], "header"),
        (lambda rows: [], "header []"),
        (lambda rows: rows[:3] + [rows[3][:-1]] + rows[4:], "line 4"),
        (lambda rows: rows[:5] + [rows[5] + ["x"]] + rows[6:], "line 6"),
        (lambda rows: rows[:2] + [["table1", "1", "ten"] + rows[2][3:]], "line 3"),
        (lambda rows: rows + [rows[1][:1] + ["5/2"] + rows[1][2:]], "unknown spin"),
        (_cell(3, 3, "19/2"), "line 3: magnetization 2M=19 has the wrong parity"),
        (_cell(5, 3, "11"), "line 5: magnetization out of range"),
        (_cell(3, 2, "0"), "line 3: need at least one particle"),
    ],
    ids=[
        "reordered-header",
        "missing-column",
        "short-header",
        "empty",
        "short-row",
        "long-row",
        "bad-n",
        "bad-spin",
        "wrong-parity",
        "m-out-of-range",
        "no-particles",
    ],
)
def test_verify_tables_malformed_data_exits_3(
    edit, message, tmp_path, capsys, monkeypatch
):
    _reference_data(tmp_path, monkeypatch, edit)
    code, out, err = run(["verify-tables"], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("error: malformed reference table data")
    assert message in err


def test_verify_tables_reads_a_copy_of_the_data(tmp_path, capsys, monkeypatch):
    _reference_data(tmp_path, monkeypatch, lambda rows: rows)
    code, out, _ = run(["verify-tables"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == VERIFY_TABLES_DIGEST


def test_verify_tables_row_outside_its_basis_reads_amplitude_0(
    tmp_path, capsys, monkeypatch
):
    """Table 1 (spin 1, N = 10) gains a row at M = 9 whose vector has
    M = 8: neither engine has it, so both deviate by the printed 1.0."""
    extra = ["table1", "1", "10", "9", "8 2 0", "1.0000", "ok", ""]
    _reference_data(tmp_path, monkeypatch, lambda rows: rows + [extra])
    code, out, _ = run(["verify-tables"], capsys)
    assert code == 4
    assert out.splitlines()[0] == (
        "table1: rows=12 corrected=1 max_dev_closed_form=1.00e+00 "
        "max_dev_oracle=1.00e+00 FAIL"
    )


def test_verify_tables_missing_data_exits_3(capsys, monkeypatch):
    import dicke.tables

    monkeypatch.setattr(dicke.tables, "DATA_FILENAME", "no_such_file.csv")
    code, _, err = run(["verify-tables"], capsys)
    assert code == 3
    assert "missing" in err


def test_figures_shape_violation_exits_4(tmp_path, capsys, monkeypatch):
    import dicke.cli

    def broken_sweep(family, n):
        # increases with M
        return [(tm, 0.001 * tm) for tm in range(0, 2 * n + 1, 2)]

    monkeypatch.setattr(dicke.entanglement, "negativity_sweep", broken_sweep)
    code, _, err = run(["figures", "--out-dir", str(tmp_path)], capsys)
    assert code == 4
    assert "shape violation" in err
    assert not (tmp_path / "fig1.csv").exists()  # nothing written on failure


def _figures_with_sweeps(tmp_path, capsys, monkeypatch, dicke_value, equal_value):
    """Run `figures` on made-up sweeps: value(n, 2M) per family."""

    def sweep(family, n):
        value = dicke_value if family == "dicke" else equal_value
        return [(tm, value(n, tm)) for tm in range(0, 2 * n + 1, 2)]

    monkeypatch.setattr(dicke.entanglement, "negativity_sweep", sweep)
    return run(["figures", "--out-dir", str(tmp_path)], capsys)


def test_figures_checks_the_equal_state_at_m0_not_at_the_next_m(
    tmp_path, capsys, monkeypatch
):
    """The equal state ties the Dicke state at M = 0 and beats it at M = 1."""
    code, _, err = _figures_with_sweeps(
        tmp_path, capsys, monkeypatch,
        lambda n, tm: 1.0 / (n * (1 + tm)),
        lambda n, tm: 1.0 / n if tm == 0 else 1.0,
    )
    assert code == 4
    assert "does not beat the Dicke state at M=0, N=30" in err
    assert "N=80" in err and "does not decrease" not in err
    assert not (tmp_path / "fig1.csv").exists()


def test_figures_checks_the_decrease_with_n_at_m0_not_at_the_next_m(
    tmp_path, capsys, monkeypatch
):
    """The Dicke M = 0 negativity is flat in N; at M = 1 it decreases."""
    code, _, err = _figures_with_sweeps(
        tmp_path, capsys, monkeypatch,
        lambda n, tm: 1.0 if tm == 0 else 0.5 / (n * (1 + tm)),
        lambda n, tm: 2.0,
    )
    assert code == 4
    assert "M=0 negativity does not decrease from N=20 to N=30" in err
    assert "does not beat" not in err
    assert not (tmp_path / "fig1.csv").exists()


def test_antisym_spin2_lists_26_states(capsys):
    code, out, _ = run(["antisym", "--spin", "2"], capsys)
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["state", "assignment", "amplitude"]
    states = {}
    for row in rows:
        states.setdefault(int(row[0]), []).append(row)
    assert len(states) == 26
    # reconstruct each state and check normalization at 17-digit precision
    for terms in states.values():
        norm_sq = sum(float(t[2]) ** 2 for t in terms)
        assert norm_sq == pytest.approx(1.0, abs=1e-12)


def test_antisym_assignment_cells_use_half_integers(capsys):
    code, out, _ = run(["antisym", "--spin", "3/2"], capsys)
    assert code == 0
    _, rows = parse_csv(out)
    assert any(row[1].startswith("3/2,") for row in rows)


def test_antisym_json_counts(capsys):
    code, out, _ = run(["antisym", "--spin", "1", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 4
    assert len(payload["states"]) == 4


@pytest.mark.parametrize(
    "state,expected",
    [("bg", 1.0), ("psie", 0.822109), ("psi2", 0.957107), ("bsplus", 1.0)],
)
def test_negativity_named_states(state, expected, capsys):
    code, out, _ = run(["negativity", "--state", state], capsys)
    assert code == 0
    assert float(out.strip()) == pytest.approx(expected, abs=5e-4)


def test_negativity_psi1_with_parameters(capsys):
    code, out, _ = run(
        ["negativity", "--state", f"psi1:{sqrt(1 / 3)},{sqrt(2 / 3)}"], capsys
    )
    assert code == 0
    assert float(out.strip()) == pytest.approx(0.8221, abs=5e-4)


def test_negativity_dicke_point_value(capsys):
    code, out, _ = run(["negativity", "--state", "dicke", "--n", "2", "--m", "0"], capsys)
    assert code == 0
    assert float(out.strip()) == pytest.approx(0.8333, abs=5e-4)


def test_negativity_requires_n_for_families(capsys):
    code, _, err = run(["negativity", "--state", "dicke"], capsys)
    assert code == 2
    code, _, err = run(["negativity", "--state", "equal", "--n", "10"], capsys)
    assert code == 2


def test_negativity_sweep_rejected_for_pure_states(capsys):
    code, _, err = run(["negativity", "--state", "bg", "--sweep"], capsys)
    assert code == 2
    assert "sweep" in err


def test_negativity_sweep_csv(capsys):
    code, out, _ = run(
        ["negativity", "--state", "dicke", "--n", "10", "--sweep"], capsys
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["M", "negativity"]
    assert len(rows) == 11
    assert [row[0] for row in rows] == [str(m) for m in range(11)]
    assert float(rows[-1][1]) == 0.0


def test_negativity_output_is_deterministic(capsys):
    for family, n in (("dicke", 12), ("equal", 8)):
        args = ["negativity", "--state", family, "--n", str(n), "--sweep"]
        code, first, _ = run(args, capsys)
        code2, second, _ = run(args, capsys)
        assert code == code2 == 0
        assert first == second
        # each row is the value of that M computed on its own
        _, rows = parse_csv(first)
        for m_text, value in rows:
            code, point, _ = run(
                ["negativity", "--state", family, "--n", str(n), "--m", m_text],
                capsys,
            )
            assert code == 0
            assert point.strip() == value


def test_negativity_sweep_rejects_too_few_particles(capsys):
    for n in ("-3", "0", "1"):
        code, out, err = run(
            ["negativity", "--state", "equal", "--n", n, "--sweep"], capsys
        )
        assert code == 2
        assert out == ""
        assert "particles" in err


@pytest.mark.parametrize("state", ["bg:1,2,3", "psie:0.1,0.2", "bg:"])
def test_negativity_rejects_parameters_of_fixed_states(state, capsys):
    code, out, err = run(["negativity", "--state", state], capsys)
    assert code == 2
    assert out == ""
    assert "parameters" in err


def test_negativity_rejects_parameters_of_families(capsys):
    code, out, err = run(
        ["negativity", "--state", "dicke:7", "--n", "5", "--m", "1"], capsys
    )
    assert code == 2
    assert out == ""
    assert "parameters" in err


@pytest.mark.parametrize("extra", [["--n", "5"], ["--m", "1"]])
def test_negativity_rejects_n_and_m_for_named_states(extra, capsys):
    code, out, err = run(["negativity", "--state", "bg"] + extra, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_negativity_sweep_rejects_m(capsys):
    code, out, err = run(
        ["negativity", "--state", "dicke", "--n", "10", "--m", "1", "--sweep"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert "--sweep" in err


@pytest.mark.parametrize("params", ["nan,nan", "nan,1", "inf,0"])
def test_negativity_rejects_non_finite_parameters(params, capsys):
    code, out, err = run(["negativity", "--state", f"psi1:{params}"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_figures_writes_files_with_expected_shapes(tmp_path, capsys):
    code, out, err = run(["figures", "--out-dir", str(tmp_path)], capsys)
    assert code == 0, err
    for name in (
        "fig1.csv", "fig1.svg", "fig2_n30.csv", "fig2_n30.svg",
        "fig2_n80.csv", "fig2_n80.svg",
    ):
        assert (tmp_path / name).is_file()
    header, rows = parse_csv((tmp_path / "fig1.csv").read_text())
    assert header == ["N", "M", "negativity"]
    by_n = {}
    for row in rows:
        by_n.setdefault(int(row[0]), []).append(float(row[2]))
    assert sorted(by_n) == list(range(20, 81, 10))
    for n, values in by_n.items():
        assert len(values) == n + 1
        assert values == sorted(values, reverse=True)
    # M = 0 ordering across N
    zero_m = [by_n[n][0] for n in sorted(by_n)]
    assert zero_m == sorted(zero_m, reverse=True)
    header, rows = parse_csv((tmp_path / "fig2_n30.csv").read_text())
    assert header == ["M", "dicke", "equal"]
    assert float(rows[0][2]) > float(rows[0][1])
    ET.fromstring((tmp_path / "fig1.svg").read_text())  # well-formed XML


SVG_DIGESTS = {
    "fig1.svg": "6b490f3121a6ef9f39f9142982268ceaaa8da1c448f1a518ed68b0d914f8f26a",
    "fig2_n30.svg": "d2d2a759f95a7aedbbae4a5fc442fc5308c0a144609585768f57d7bfc09d3827",
    "fig2_n80.svg": "e858d0394cae6d876a0c2358cccc96dd5bd4746dd95f4de0230b0003971b2f04",
}
#: half-integer M and a different number in every cell of both series
PLOT_CSV = "M,dicke,equal\n-1/2,0.4,0.9\n1/2,0.3,0.7\n3/2,0.125,0.5\n5/2,0.0,0.25\n"
PLOT_DIGEST = "b5c05d3926699f1e6fa7208122eeade2a85ab1c8b5372b79afd0dceef32db87f"
#: nine series: the palette wraps to its first colour on the ninth legend
#: row, whose label carries markup
NINE_SERIES_CSV = (
    "M,s1,s2,s3,s4,s5,s6,s7,s8,s9<&>\n"
    "-1,0.875,0.5,0.125,1.0,0.625,0.25,1.125,0.75,0.375\n"
    "-1/2,0.0,0.875,0.5,0.125,1.0,0.625,0.25,1.125,0.75\n"
    "0,0.375,0.0,0.875,0.5,0.125,1.0,0.625,0.25,1.125\n"
    "3/2,0.75,0.375,0.0,0.875,0.5,0.125,1.0,0.625,0.25\n"
)
NINE_SERIES_DIGEST = "19c38d5d00d5e6e86d848b17a6824850936036e52515429b1b3d200300d9b443"


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_figures_output_is_byte_identical(tmp_path, capsys):
    run(["figures", "--out-dir", str(tmp_path)], capsys)
    for name in ("fig1.csv", "fig2_n30.csv", "fig2_n80.csv"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()
    for name, digest in SVG_DIGESTS.items():
        assert sha256_of(tmp_path / name) == digest
    source = tmp_path / "plot.csv"
    source.write_text(PLOT_CSV, encoding="utf-8")
    out_svg = tmp_path / "plot.svg"
    code, _, _ = run(["plot", "--in", str(source), "--out", str(out_svg)], capsys)
    assert code == 0
    assert sha256_of(out_svg) == PLOT_DIGEST
    code, out, _ = run(["negativity", "--state", "psie"], capsys)
    assert code == 0
    assert out == (GOLDEN / "negativity_psie.txt").read_text(encoding="utf-8")
    for family in ("dicke", "equal"):
        code, out, _ = run(
            ["negativity", "--state", family, "--n", "80", "--sweep"], capsys
        )
        assert code == 0
        golden = GOLDEN / f"negativity_{family}_n80.csv"
        assert out == golden.read_text(encoding="utf-8")


def test_plot_of_nine_series_is_byte_identical(tmp_path, capsys):
    source = tmp_path / "nine.csv"
    source.write_text(NINE_SERIES_CSV, encoding="utf-8")
    out_svg = tmp_path / "nine.svg"
    code, _, _ = run(["plot", "--in", str(source), "--out", str(out_svg)], capsys)
    assert code == 0
    assert sha256_of(out_svg) == NINE_SERIES_DIGEST


def test_plot_renders_a_sweep_csv(tmp_path, capsys):
    source = tmp_path / "sweep.csv"
    source.write_text("M,negativity\n0,0.3\n1,0.2\n2,0.1\n", encoding="utf-8")
    out_svg = tmp_path / "fig.svg"
    code, _, _ = run(["plot", "--in", str(source), "--out", str(out_svg)], capsys)
    assert code == 0
    root = ET.fromstring(out_svg.read_text())
    polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
    assert len(polylines) == 1


def test_plot_multi_series(tmp_path, capsys):
    source = tmp_path / "two.csv"
    source.write_text("M,dicke,equal\n0,0.3,0.4\n1,0.2,0.3\n", encoding="utf-8")
    out_svg = tmp_path / "two.svg"
    code, _, _ = run(["plot", "--in", str(source), "--out", str(out_svg)], capsys)
    assert code == 0
    root = ET.fromstring(out_svg.read_text())
    polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
    assert len(polylines) == 2


def test_figures_out_dir_that_is_a_file_exits_3(tmp_path, capsys):
    target = tmp_path / "taken"
    target.write_text("", encoding="utf-8")
    code, _, err = run(["figures", "--out-dir", str(target)], capsys)
    assert code == 3
    assert err.startswith("error:")


def test_plot_input_that_is_a_directory_exits_3(tmp_path, capsys):
    code, _, err = run(
        ["plot", "--in", str(tmp_path), "--out", str(tmp_path / "x.svg")], capsys
    )
    assert code == 3
    assert err.startswith("error:")


def test_plot_short_row_exits_2(tmp_path, capsys):
    source = tmp_path / "short.csv"
    source.write_text("M,dicke,equal\n0,0.3,0.4\n1,0.2\n", encoding="utf-8")
    out_svg = tmp_path / "short.svg"
    code, _, err = run(["plot", "--in", str(source), "--out", str(out_svg)], capsys)
    assert code == 2
    assert "fewer than 3 cells" in err
    assert not out_svg.exists()


@pytest.mark.parametrize("text", ["M,negativity\n", "M,negativity\n\n"])
def test_plot_header_without_data_rows_exits_2(text, tmp_path, capsys):
    source = tmp_path / "header.csv"
    source.write_text(text, encoding="utf-8")
    out_svg = tmp_path / "header.svg"
    code, _, err = run(["plot", "--in", str(source), "--out", str(out_svg)], capsys)
    assert code == 2
    assert err.startswith("error:")
    assert "no data rows" in err
    assert not out_svg.exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "is empty"),
        ("M\n0\n1\n", "an x column"),
        ("M,negativity\n0,0.3\n1,high\n", "not a number: 'high'"),
        ("M,negativity\nx/2,0.3\n", "not a number: 'x/2'"),
    ],
)
def test_plot_malformed_input_exits_2(text, message, tmp_path, capsys):
    source = tmp_path / "bad.csv"
    source.write_text(text, encoding="utf-8")
    out_svg = tmp_path / "bad.svg"
    code, out, err = run(["plot", "--in", str(source), "--out", str(out_svg)], capsys)
    assert code == 2
    assert out == ""
    assert message in err
    assert not out_svg.exists()


def test_chart_of_one_x_value_and_a_flat_y_gets_unit_axes():
    from dicke.svg import HEIGHT, MARGIN_BOTTOM, MARGIN_LEFT, polyline_chart

    root = ET.fromstring(polyline_chart([("flat", [(2.0, 0.0)])]))
    labels = [e.text for e in root.iter() if e.tag.endswith("text")]
    assert labels == ["2", "3", "0", "1", "flat"]
    (line,) = [e for e in root.iter() if e.tag.endswith("polyline")]
    assert line.get("points") == f"{MARGIN_LEFT:.2f},{HEIGHT - MARGIN_BOTTOM:.2f}"


def test_chart_of_negative_values_runs_from_the_lowest_to_the_highest():
    from dicke.svg import (
        HEIGHT, MARGIN_BOTTOM, MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, WIDTH,
        polyline_chart,
    )

    root = ET.fromstring(polyline_chart([("below", [(0.0, -2.0), (1.0, -1.0)])]))
    labels = [e.text for e in root.iter() if e.tag.endswith("text")]
    assert labels == ["0", "1", "-2", "-1", "below"]
    (line,) = [e for e in root.iter() if e.tag.endswith("polyline")]
    assert line.get("points") == (
        f"{MARGIN_LEFT:.2f},{HEIGHT - MARGIN_BOTTOM:.2f} "
        f"{WIDTH - MARGIN_RIGHT:.2f},{MARGIN_TOP:.2f}"
    )


def test_plot_input_that_is_not_utf8_exits_2(tmp_path, capsys):
    source = tmp_path / "latin1.csv"
    source.write_bytes(b"M,negativity\n0,\xff\xfe\n")
    code, _, err = run(
        ["plot", "--in", str(source), "--out", str(tmp_path / "x.svg")], capsys
    )
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_plot_non_finite_value_exits_2(cell, tmp_path, capsys):
    source = tmp_path / "bad.csv"
    source.write_text(f"M,negativity\n0,0.3\n1,{cell}\n", encoding="utf-8")
    out_svg = tmp_path / "bad.svg"
    code, _, err = run(["plot", "--in", str(source), "--out", str(out_svg)], capsys)
    assert code == 2
    assert "finite" in err
    assert not out_svg.exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("M,a\n0,1e308\n1,-1e308\n", "columns ['a'] span no finite y range"),
        ("M,a,b\n0,1e308,0\n1,0,-1e308\n", "columns ['a', 'b'] span no finite y range"),
        ("M,a\n-1e308,0\n1e308,1\n", "column 'M' spans no finite x range"),
        # x + 1 == x: the unit range of a single x value is empty
        ("M,a\n1e17,0.5\n", "column 'M' spans no finite x range"),
        ("M,a\n0,-1e17\n", "columns ['a'] span no finite y range"),
    ],
    ids=["y", "y-of-two-columns", "x", "x-plus-1", "y-plus-1"],
)
def test_plot_range_past_a_float_exits_2(text, message, tmp_path, capsys):
    source = tmp_path / "huge.csv"
    source.write_text(text, encoding="utf-8")
    out_svg = tmp_path / "huge.svg"
    code, out, err = run(["plot", "--in", str(source), "--out", str(out_svg)], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {source}: {message}\n"
    assert not out_svg.exists()


def test_plot_escapes_markup_in_column_names(tmp_path, capsys):
    source = tmp_path / "markup.csv"
    source.write_text("x<y,a<b&c\n0,1\n1/2,2\n", encoding="utf-8")
    out_svg = tmp_path / "markup.svg"
    code, _, _ = run(["plot", "--in", str(source), "--out", str(out_svg)], capsys)
    assert code == 0
    texts = [e.text for e in ET.parse(out_svg).iter() if e.tag.endswith("text")]
    assert texts[-2:] == ["x<y", "a<b&c"]


def test_chart_escapes_markup_and_refuses_an_infinite_range():
    from dicke.svg import polyline_chart

    chart = polyline_chart([("s>1", [(0.0, 1.0)])], "<&>", "x&", "y<")
    texts = [e.text for e in ET.fromstring(chart).iter() if e.tag.endswith("text")]
    assert texts == ["<&>", "0", "1", "0", "1", "x&", "y<", "s>1"]
    with pytest.raises(ValueError, match="span no finite y range"):
        polyline_chart([("s", [(0.0, 1e308), (1.0, -1e308)])])


def test_plot_cell_past_the_csv_field_limit_exits_2(tmp_path, capsys):
    limit = csv.field_size_limit()
    source = tmp_path / "big.csv"
    source.write_text(f"M,negativity\n0,0.3\n1,{'1' * 200_000}\n", encoding="utf-8")
    out_svg = tmp_path / "big.svg"
    code, out, err = run(["plot", "--in", str(source), "--out", str(out_svg)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {source}, line 3: field larger than field limit")
    assert not out_svg.exists()
    assert csv.field_size_limit() == limit


def test_plot_missing_input_exits_3(tmp_path, capsys):
    code, _, err = run(
        ["plot", "--in", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "x.svg")],
        capsys,
    )
    assert code == 3
