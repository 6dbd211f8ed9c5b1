"""The lazy package namespace, and the modules each command loads in a
fresh interpreter (pytest has already imported most of the package, so
the budget is read in a subprocess)."""

import os
import pkgutil
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import dicke

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


def loaded_by(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, *argv],
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
