"""The lazy package namespace, the record types, and the modules each
command loads in a fresh interpreter (pytest has already imported most of
the package, so the budget is read in a subprocess)."""

import os
import pkgutil
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import dicke
from dicke.species import SPIN_ONE

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = SRC.parent / "perfbench" / "golden"
SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(dicke.__path__))

#: runs its arguments as a CLI command (none: only `import dicke`) and
#: writes the modules this loaded, past those loaded at start-up, to stderr
CHILD = """
import sys
before = set(sys.modules)
import dicke
code = 0
if sys.argv[1:]:
    from dicke.cli import main
    code = main(sys.argv[1:])
sys.stdout.flush()
sys.stderr.write(" ".join(sorted(set(sys.modules) - before)))
sys.exit(code)
"""


#: the first spin-2 Majorana-mixture reduction after the entanglement layer
PAIR_CHILD = """
import sys
from dicke.entanglement import dicke_pair_reduction
from dicke.species import SPIN_TWO
before = set(sys.modules)
dicke_pair_reduction(SPIN_TWO, 80, 0)
sys.stderr.write(" ".join(sorted(set(sys.modules) - before)))
"""

#: what the standard library's record and rational machinery loads
HEAVY = {"dataclasses", "inspect", "ast", "dis", "tokenize", "fractions", "decimal"}


def loaded_by(*argv, child=CHILD):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", child, *argv],
        env=env,
        stdin=subprocess.DEVNULL,
        capture_output=True,
        text=True,
        timeout=60,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stderr.split())
    return {m for m in loaded if m.partition(".")[0] == "dicke"}, loaded


def test_import_dicke_loads_no_submodule():
    package, _ = loaded_by()
    assert package == {"dicke"}


def test_named_pure_state_loads_only_its_layers():
    package, loaded = loaded_by("negativity", "--state", "psie")
    assert package == {
        "dicke", "dicke.cli", "dicke.species", "dicke.linalg", "dicke.entanglement",
    }
    assert not loaded & {"dataclasses", "fractions", "decimal", "json", "csv"}


def test_dicke_family_sweep_loads_no_basis_layer():
    """The spin-1 mixture builds its floats from integers: no fractions."""
    for argv in (["--sweep"], ["--m", "0"]):
        package, loaded = loaded_by("negativity", "--state", "dicke", "--n", "80", *argv)
        assert package == {
            "dicke", "dicke.cli", "dicke.species", "dicke.linalg", "dicke.entanglement",
        }
        assert not loaded & {
            "dataclasses", "inspect", "ast", "dis", "tokenize", "json", "fractions",
            "decimal",
        }


def test_antisym_loads_only_its_layer():
    package, _ = loaded_by("antisym", "--spin", "2")
    assert package == {"dicke", "dicke.cli", "dicke.species", "dicke.antisym"}


@pytest.mark.parametrize(
    "argv",
    [
        ["basis", "--spin", "3/2", "--n", "6", "--m", "0"],
        ["expand", "--spin", "2", "--n", "5", "--m", "1"],
        ["oracle", "--spin", "1", "--n", "10", "--m", "0", "--diff-closed-form"],
        ["verify-tables"],
        ["antisym", "--spin", "2"],
        ["negativity", "--state", "equal", "--n", "20", "--m", "0"],
        ["figures", "--out-dir", "{tmp}"],
        ["plot", "--in", str(GOLDEN / "fig2_n30.csv"), "--out", "{tmp}/x.svg"],
    ],
    ids=lambda argv: argv[0],
)
def test_no_command_loads_dataclasses_or_fractions(argv, tmp_path):
    _, loaded = loaded_by(*(a.format(tmp=tmp_path) for a in argv))
    assert not loaded & HEAVY


def test_first_spin_two_pair_reduction_loads_only_its_two_layers():
    package, loaded = loaded_by(child=PAIR_CHILD)
    assert package == {"dicke.basis", "dicke.coefficients"}
    assert not loaded & HEAVY


def test_plot_loads_no_entanglement_layer(tmp_path):
    package, _ = loaded_by(
        "plot", "--in", str(GOLDEN / "fig2_n30.csv"), "--out", str(tmp_path / "x.svg")
    )
    assert "dicke.svg" in package
    assert not package & {"dicke.entanglement", "dicke.linalg"}


def test_public_names_are_their_submodules_objects():
    for name in dicke.__all__:
        module = import_module(f"dicke.{dicke._SOURCE[name]}")
        value = getattr(dicke, name)
        assert value is getattr(module, name)
        defined_in = getattr(value, "__module__", "")
        if defined_in.startswith("dicke."):
            assert defined_in == module.__name__


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from dicke import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(dicke.__all__)


def test_dir_lists_public_names_and_submodules():
    listed = set(dir(dicke))
    assert set(dicke.__all__) <= listed
    assert set(SUBMODULES) <= listed
    assert all(isinstance(getattr(dicke, name), type(dicke)) for name in SUBMODULES)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        dicke.no_such_name
    assert not hasattr(dicke, "__no_such_dunder__")


#: each record type: its module, its fields in order, and sample values
RECORDS = {
    "EnumerationParams": (
        "basis",
        "species n_particles twice_m parity_min k0 k_max sign alpha gamma beta mk",
        (SPIN_ONE, 4, 0, 0, 0, 2, 1, None, {}, {}, {}),
    ),
    "DickeExpansion": (
        "coefficients",
        "species n_particles twice_m terms",
        (SPIN_ONE, 2, 0, (((1, 0, 1), 0.5),)),
    ),
    "RawExpansion": ("ladder", "species n_particles terms", (SPIN_ONE, 2, {})),
    "TableRow": (
        "tables",
        "table species n_particles twice_m occupation coefficient status printed",
        ("t", SPIN_ONE, 10, 0, (1, 8, 1), 0.5, "ok", ""),
    ),
    "TableReport": (
        "tables",
        "table rows corrected_rows max_dev_closed_form max_dev_oracle",
        ("t", 3, 0, 0.0, 0.0),
    ),
    "FirstQuantizedState": (
        "antisym",
        "n_particles terms",
        (2, (((1, -1), 0.5), ((-1, 1), -0.5))),
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_immutable_namedtuples(name):
    module, fields, values = RECORDS[name]
    cls = getattr(import_module(f"dicke.{module}"), name)
    fields = tuple(fields.split())
    record = cls(**dict(zip(fields, values)))
    assert cls._fields == fields and cls.__slots__ == ()
    assert cls(*values) == record == values
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None
