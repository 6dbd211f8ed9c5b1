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

from dicke import SpinSpecies, dicke_expansion
import dicke.cli
from dicke.cli import BASIS_CAP, CHAIN_CAP, main


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


#: sha256 of the .17g CSV each oracle command prints; both chains are long
#: enough to switch to the factor tables, which must not move a bit
ORACLE_DIGESTS = {
    ("2", "40", "0"): "c6f4d65811f3c8c3a046dbd63a0dfc6ebca6c836b159666532e4510cd5c4a2cb",
    ("3/2", "40", "1"): "2f3498630b39505418ae6b9509e0bbf2da218fec0e197298708d96c6a2967ae5",
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
        ["expand", "--spin", "2", "--n", "10000000", "--m", "0"],
    ],
)
def test_size_checks_stop_once_past_the_cap(argv, capsys):
    import dicke.coefficients, dicke.entanglement, dicke.ladder  # imported unmeasured

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


def test_dicke_family_point_at_a_million_particles(capsys):
    code, out, _ = run(
        ["negativity", "--state", "dicke", "--n", "1000000", "--m", "0"], capsys
    )
    assert code == 0
    assert out == "0.000001\n"


def test_size_caps_admit_the_documented_sizes():
    species = SpinSpecies.from_str("2")
    assert dicke.basis_size(species, 200, 0) <= BASIS_CAP
    assert dicke.ladder.chain_vectors(species, 60, 0) <= CHAIN_CAP
    assert dicke.ladder.chain_vectors(SpinSpecies.from_str("1"), 2400, 0) <= CHAIN_CAP


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


def test_verify_tables_missing_data_exits_3(capsys, monkeypatch):
    import dicke.tables

    monkeypatch.setattr(dicke.tables, "DATA_FILENAME", "no_such_file.csv")
    code, _, err = run(["verify-tables"], capsys)
    assert code == 3
    assert "missing" in err


def test_figures_shape_violation_exits_4(tmp_path, capsys, monkeypatch):
    import dicke.cli

    def broken_sweep(family, n, twice_ms=None):
        if twice_ms is None:
            twice_ms = list(range(0, 2 * n + 1, 2))
        return [(tm, 0.001 * tm) for tm in twice_ms]  # increases with M

    monkeypatch.setattr(dicke.entanglement, "negativity_sweep", broken_sweep)
    code, _, err = run(["figures", "--out-dir", str(tmp_path)], capsys)
    assert code == 4
    assert "shape violation" in err
    assert not (tmp_path / "fig1.csv").exists()  # nothing written on failure


def _figures_with_sweeps(tmp_path, capsys, monkeypatch, dicke_value, equal_value):
    """Run `figures` on made-up sweeps: value(n, 2M) per family."""

    def sweep(family, n, twice_ms=None):
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


def test_plot_missing_input_exits_3(tmp_path, capsys):
    code, _, err = run(
        ["plot", "--in", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "x.svg")],
        capsys,
    )
    assert code == 3
