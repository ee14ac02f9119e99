"""The package namespace: names resolve lazily to their defining modules, and
each command loads only the modules it runs."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import noncong

SRC = Path(__file__).resolve().parent.parent / "src"
SUBMODULES = ("series", "surfaces", "catalog", "residues", "traces", "congruence", "cli")


def test_every_exported_name_is_the_object_of_its_defining_module():
    for name in noncong.__all__:
        home = importlib.import_module(noncong._MODULE_OF[name])
        assert getattr(noncong, name) is vars(home)[name], name


def test_star_import():
    namespace = {}
    exec("from noncong import *", namespace)
    assert set(noncong.__all__) <= namespace.keys()
    assert namespace["get_group"] is noncong.catalog.get_group
    assert namespace["COVERINGS"] is noncong.surfaces.COVERINGS


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        noncong.no_such_name
    assert not hasattr(noncong, "_factorize")     # module-private, not exported


def test_dir_lists_the_exported_names():
    assert set(noncong.__all__) <= set(dir(noncong))
    assert "__version__" in dir(noncong)


def test_resolving_names_leaves_the_package_namespace_unchanged():
    for module in SUBMODULES:
        importlib.import_module(f"noncong.{module}")
    before = dict(vars(noncong))
    for name in noncong.__all__:
        getattr(noncong, name)
    after = vars(noncong)
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


# A command must not load what it does not run: `aswd` needs neither the
# surface geometry nor the trace kernels, and the structural commands and
# `expand` need no numpy and no arithmetic mod m.  No command loads
# `dataclasses`, and a text-format command does not load `json`.  Each case
# runs in a fresh interpreter.
LOADED = """
import contextlib, io, sys
from noncong.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    rc = main(sys.argv[1:])
print(rc, *sorted(name for name in sys.modules
                  if name in ("numpy", "dataclasses", "json") or name.startswith("noncong.")))
"""


@pytest.mark.parametrize("argv,absent", [
    (["aswd", "gamma_24.6.1^6", "--pmax", "13"], {"noncong.surfaces", "noncong.traces"}),
    (["dim", "--all"], {"numpy", "noncong.residues", "noncong.surfaces", "noncong.traces",
                         "noncong.congruence"}),
    (["noncongruence", "--all"], {"numpy", "noncong.residues", "noncong.surfaces",
                                  "noncong.traces", "noncong.congruence"}),
    (["catalog"], {"numpy", "noncong.residues", "noncong.traces", "noncong.congruence"}),
    (["isogeny", "--pair", "4a", "--primes", "7", "--samples", "4"],
     {"numpy", "noncong.residues", "noncong.traces", "noncong.congruence"}),
    (["traces", "gamma_24.6.1^6", "--primes", "7"], {"noncong.congruence"}),
    (["expand", "gamma_24.6.1^6", "h1", "--order", "30"],
     {"numpy", "noncong.residues", "noncong.surfaces", "noncong.traces", "noncong.congruence"}),
], ids=lambda v: v[0] if isinstance(v, list) else None)
def test_command_loads_only_its_layers(argv, absent):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", LOADED, *argv], env=env, check=True,
                          capture_output=True, text=True, timeout=60)
    rc, *loaded = done.stdout.split()
    assert rc == "0"
    assert "noncong.cli" in loaded
    assert not (absent | {"dataclasses", "json"}) & set(loaded)     # every case writes text


def test_no_module_loads_dataclasses():
    # the records are namedtuples and plain classes: no code generated at import
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    code = ("import importlib, sys\n"
            f"for m in {SUBMODULES!r}: importlib.import_module('noncong.' + m)\n"
            "print('dataclasses' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=60)
    assert done.stdout.split() == ["False"]


def test_no_function_imports_numpy():
    """numpy is imported at the top of the modules that compute mod m or
    over F_q, never inside a function."""
    found = []
    for path in sorted((SRC / "noncong").glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            for node in ast.walk(fn):
                names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                         else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
                found += [f"{path.name}:{node.lineno}" for name in names
                          if name.split(".")[0] == "numpy"]
    assert not found


def test_import_noncong_loads_no_submodule():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    code = ("import sys, noncong; print(*sorted(n for n in sys.modules "
            "if n == 'numpy' or n.startswith('noncong')))")
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=60)
    assert done.stdout.split() == ["noncong"]


# noncong makes no BLAS call, so a CLI process starts no OpenBLAS worker
# threads: `main` sets OPENBLAS_NUM_THREADS before any command imports numpy,
# keeps a value the caller set, and a library process is left alone.  Fails
# if a module-level numpy import runs ahead of `main`.
THREADS = """
import contextlib, io, os, sys
if sys.argv[1] == "cli":
    from noncong.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(["aswd", "gamma_24.6.1^6", "--pmax", "13"])
else:
    import noncong, noncong.residues
    noncong.residues.coefficient_residues(noncong.get_group("gamma_24.6.1^6"), 20, (25,))
    rc = 0
import numpy
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
except TypeError:       # numpy < 1.25 does not report its BLAS
    blas = ""
threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else 0
print(rc, os.environ.get("OPENBLAS_NUM_THREADS"), "openblas" in blas.lower(), threads)
"""


@pytest.mark.parametrize("mode,preset,setting", [
    ("cli", None, "1"),
    ("cli", "2", "2"),
    ("library", None, "None"),
])
def test_cli_process_starts_no_blas_thread(mode, preset, setting):
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = str(SRC)
    if preset:
        env["OPENBLAS_NUM_THREADS"] = preset
    done = subprocess.run([sys.executable, "-c", THREADS, mode], env=env, check=True,
                          capture_output=True, text=True, timeout=60)
    rc, read, openblas, threads = done.stdout.split()
    assert (rc, read) == ("0", setting)
    if setting == "1" and openblas == "True" and threads != "0":
        assert threads == "1"


# The records: frozen ones are tuples that refuse assignment, compare and
# hash by value and check their fields on construction and on _replace; the
# mutable reports take only their own attributes.
def test_records_keep_their_semantics():
    from noncong import catalog, congruence, series, surfaces, traces
    g = catalog.GROUPS["gamma_24.6.1^6"]
    frozen = [g, g.parent, catalog.NEWFORMS["L48"], catalog.BiquadraticNumber.make(2, -3, 1),
              series.EtaQuotient.of({1: 2}), congruence.TwistMatch("L48", 1, 1, 2),
              surfaces.beauville_short("E8"), surfaces.BEAUVILLE["E8"]["family"],
              surfaces.COVERINGS[g.name], surfaces.ISOGENY_BY_INVOLUTION["E8:-t"],
              surfaces.ModularPolynomial.from_dict(1, {(1, 0): 1, (0, 1): -1}),
              traces.LocalTrace(0, "smooth", 1), traces.SurfaceFamily("f", "E8", (1, 0, 0, 1))]
    assert len({type(r) for r in frozen}) == 13
    for rec in frozen:
        name = rec._fields[0]
        with pytest.raises(AttributeError):
            setattr(rec, name, getattr(rec, name))
        with pytest.raises(AttributeError):
            rec.extra = 1
        assert rec == rec._replace() and hash(rec) == hash(rec._replace())
    assert {g: 1}[g._replace(newform="L48")] == 1  # GroupRecord hashes by name
    zero = catalog.BiquadraticNumber.make(2, -3)
    assert zero == 0 and not zero != 0 and zero != 1
    with pytest.raises(ValueError, match="squarefree non-unit"):
        zero._replace(d2=2)
    with pytest.raises(ValueError, match="must be distinct"):
        series.EtaQuotient(((1, 2), (1, 3)))
    with pytest.raises(ValueError, match="no nonzero term"):
        frozen[10]._replace(terms=())
    assert frozen[12]._replace(mobius=(-2, 0, 0, -2)).mobius == (1, 0, 0, 1)
    for report in (catalog.HeckeReport("L48", 5, 5, 0, []),
                   congruence.ThreeTermReport(5, 1, [], []),
                   congruence.CongruenceReport("g", 5, "case1")):
        setattr(report, report.__slots__[1], 7)
        assert getattr(report, report.__slots__[1]) == 7
        with pytest.raises(AttributeError):
            report.extra = 1
