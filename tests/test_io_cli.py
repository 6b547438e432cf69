import copy
import json
import math
import multiprocessing
import os
import shutil
import stat

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sassc import cli, io, solvers
from sassc.cli import main

import reference_impl

TINY_ARGS = ["--preset", "tiny"]


def run_cli(argv):
    return main(argv)


def test_canonical_json_sorted_and_formatted():
    text = io.canonical_json({"b": 1.5, "a": [True, None, 0.1]})
    assert text == '{"a":[true,null,0.10000000000000001],"b":1.5}\n'


def test_canonical_json_rejects_nonfinite():
    with pytest.raises(ValueError):
        io.canonical_json({"x": float("nan")})
    with pytest.raises(ValueError):
        io.canonical_json({"x": float("inf")})


EDGE_FLOATS = (-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7e308, -1.7e308,
               1.7976931348623157e308)
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
FLOAT_ARRAYS = hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0,
                                                       max_side=4), elements=FINITE)
ARRAYS = (FLOAT_ARRAYS
          | hnp.arrays(np.float32, hnp.array_shapes(min_dims=0, max_dims=2, max_side=3),
                       elements=st.floats(width=32, allow_nan=False, allow_infinity=False))
          | hnp.arrays(np.int64, hnp.array_shapes(min_dims=0, max_dims=2, max_side=3))
          | hnp.arrays(np.bool_, hnp.array_shapes(min_dims=0, max_dims=2, max_side=3)))
SCALARS = (st.none() | st.booleans() | st.integers(-2**70, 2**70) | FINITE
           | FINITE.map(np.float64) | st.integers(-2**31, 2**31).map(np.int64)
           | st.text(max_size=4))
DOCUMENTS = st.recursive(
    SCALARS | ARRAYS,
    lambda children: (st.lists(children, max_size=4) | st.tuples(children, children)
                      | st.dictionaries(st.text(max_size=4), children, max_size=4)),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(doc=DOCUMENTS)
def test_canonical_json_matches_reference_renderer(doc):
    """Float arrays are checked once and formatted in one pass, with the
    bytes of the plain renderer that takes each entry through its type
    tests: -0.0, subnormals, +-1.7e308, ints, bools, None, numpy scalars,
    and 0-d and 2-d arrays of floats, ints and bools in nested dicts,
    lists and tuples."""
    assert io.canonical_json(doc) == reference_impl.canonical_json(doc)


@settings(max_examples=100, deadline=None)
@given(doc=DOCUMENTS, array=FLOAT_ARRAYS.filter(lambda a: a.size > 0),
       bad=st.sampled_from([np.nan, np.inf, -np.inf]), data=st.data())
def test_canonical_json_rejects_non_finite_array_entry(doc, array, bad, data):
    """A non-finite entry anywhere in a float array raises the
    ``ValueError`` of the plain renderer, naming the first such entry."""
    array = array.copy()
    array.flat[data.draw(st.integers(0, array.size - 1))] = bad
    doc = {"doc": doc, "array": array}
    with pytest.raises(ValueError) as got:
        io.canonical_json(doc)
    with pytest.raises(ValueError) as want:
        reference_impl.canonical_json(doc)
    assert str(got.value) == str(want.value)


def test_instance_roundtrip_bytes(tmp_path):
    inst = io.make_instance("tiny")
    path = tmp_path / "inst.json"
    sha1 = io.save_instance(inst, str(path))
    loaded, sha2 = io.load_instance(str(path))
    assert sha1 == sha2
    path2 = tmp_path / "inst2.json"
    io.save_instance(loaded, str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_instance_roundtrip_regenerates_fields_bitwise(tmp_path):
    inst = io.make_instance("tiny")
    a1, g1, p1 = inst.fields()
    path = tmp_path / "inst.json"
    io.save_instance(inst, str(path))
    loaded, _ = io.load_instance(str(path))
    a2, g2, p2 = loaded.fields()
    assert np.array_equal(a1, a2)
    assert np.array_equal(g1, g2)
    assert np.array_equal(p1, p2)


def test_instance_rejects_nonpositive_ellipticity_bound():
    d = io.template_dict("tiny")
    d["scenarios"]["spec_a"]["clip"] = [0.0, 2.0]
    with pytest.raises(ValueError, match="ellipticity"):
        io.instance_from_dict(d)


def test_nonuniform_bounds_roundtrip(tmp_path):
    d = io.template_dict("tiny")
    n = d["grid"]["n1d"] ** 2
    lo = (-2.0 + 0.01 * np.arange(n)).tolist()
    d["c1"]["lo"] = lo
    inst = io.instance_from_dict(d)
    path = tmp_path / "i.json"
    io.save_instance(inst, str(path))
    loaded, _ = io.load_instance(str(path))
    np.testing.assert_array_equal(loaded.c1_lo, np.asarray(lo))
    path2 = tmp_path / "i2.json"
    io.save_instance(loaded, str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_explicit_target_array_roundtrip(tmp_path):
    d = io.template_dict("tiny")
    n = d["grid"]["n1d"] ** 2
    d["y_D"] = {"array": np.linspace(-0.1, 0.1, n).tolist()}
    inst = io.instance_from_dict(d)
    assert inst.y_spec is None
    path = tmp_path / "i.json"
    io.save_instance(inst, str(path))
    loaded, _ = io.load_instance(str(path))
    np.testing.assert_array_equal(loaded.y_target, inst.y_target)


def test_generate_deterministic_sha(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert run_cli(["generate", *TINY_ARGS, "--out", str(out1)]) == 0
    assert run_cli(["generate", *TINY_ARGS, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_generate_rejects_bad_preset(tmp_path):
    assert run_cli(["generate", "--preset", "tiny", "--n1d", "0",
                    "--out", str(tmp_path / "x.json")]) == 4


def test_solve_certify_pipeline(tmp_path):
    inst_path = tmp_path / "inst.json"
    run_dir = tmp_path / "run"
    assert run_cli(["generate", *TINY_ARGS, "--out", str(inst_path)]) == 0
    assert run_cli(["solve", "--instance", str(inst_path), "--out", str(run_dir)]) == 0
    for name in ("primal.json", "dual.json", "report.json"):
        assert (run_dir / name).exists()
    report = json.loads((run_dir / "report.json").read_text())
    assert report["status"] == "converged"
    assert "instance_sha256" in report and "seed" in report
    assert "wall_time" not in json.dumps(report)

    kkt_out = tmp_path / "kkt.json"
    code = run_cli(["certify", "--instance", str(inst_path),
                    "--primal", str(run_dir / "primal.json"),
                    "--dual", str(run_dir / "dual.json"),
                    "--out", str(kkt_out)])
    assert code == 0
    assert kkt_out.exists()
    assert (tmp_path / "kkt.csv").exists()


def test_solve_exit_codes(tmp_path):
    inst_path = tmp_path / "inst.json"
    run_cli(["generate", *TINY_ARGS, "--out", str(inst_path)])
    assert run_cli(["solve", "--instance", str(tmp_path / "nope.json"),
                    "--out", str(tmp_path / "o")]) == 4
    assert run_cli(["solve", "--instance", str(inst_path), "--max-iters", "1",
                    "--out", str(tmp_path / "o2")]) == 2
    # a capped progressive-hedging subproblem ends the run with a report
    assert run_cli(["solve", "--instance", str(inst_path), "--algorithm", "ph",
                    "--max-iters", "10", "--out", str(tmp_path / "o3")]) == 2
    report = json.loads((tmp_path / "o3" / "report.json").read_text())
    assert report["status"] == "iteration_cap"


def test_solve_infeasible_exit_code(tmp_path):
    d = io.template_dict("tiny")
    d["mode"] = "hard"
    d["scenarios"]["spec_psi"] = {"baseline": -1.0, "modes": [], "clip": None}
    inst = io.instance_from_dict(d)
    path = tmp_path / "bad.json"
    io.save_instance(inst, str(path))
    # lower the divergence threshold indirectly by trusting the default;
    # the multiplier blow-up fires well before the iteration cap
    code = run_cli(["solve", "--instance", str(path), "--max-iters", "400000",
                    "--out", str(tmp_path / "o")])
    assert code == 3


def test_failed_linear_solve_exits_one(monkeypatch, capsys):
    from sassc import grid

    def failing(self, rhs):
        raise grid.LinearSolveError("solution residual 1.065e-11 exceeds tolerance")

    monkeypatch.setattr(grid.Factorization, "solve", failing)
    assert run_cli(["mms", "--levels", "7,15"]) == 1
    err = capsys.readouterr().err
    assert "linear solve failed: solution residual 1.065e-11 exceeds tolerance" in err
    assert "Traceback" not in err


def test_certify_zero_dual_fails(tmp_path):
    inst_path = tmp_path / "inst.json"
    run_dir = tmp_path / "run"
    run_cli(["generate", *TINY_ARGS, "--out", str(inst_path)])
    run_cli(["solve", "--instance", str(inst_path), "--out", str(run_dir)])
    dual = json.loads((run_dir / "dual.json").read_text())
    for key in ("adjoint", "obstacle", "nonanticipativity"):
        dual[key] = (np.zeros_like(np.asarray(dual[key]))).tolist()
    zero_dual = tmp_path / "zero_dual.json"
    zero_dual.write_text(json.dumps(dual))
    code = run_cli(["certify", "--instance", str(inst_path),
                    "--primal", str(run_dir / "primal.json"),
                    "--dual", str(zero_dual)])
    assert code == 1


def test_certify_negative_obstacle_entry_writes_null_gap(tmp_path):
    inst_path = tmp_path / "inst.json"
    run_dir = tmp_path / "run"
    run_cli(["generate", *TINY_ARGS, "--out", str(inst_path)])
    run_cli(["solve", "--instance", str(inst_path), "--out", str(run_dir)])
    dual = json.loads((run_dir / "dual.json").read_text())
    dual["obstacle"][0][0] = -1e-9  # inside the sign tolerance, but the gap is infinite
    bad_dual = tmp_path / "neg_dual.json"
    bad_dual.write_text(json.dumps(dual))
    kkt_out = tmp_path / "kkt.json"
    code = run_cli(["certify", "--instance", str(inst_path),
                    "--primal", str(run_dir / "primal.json"),
                    "--dual", str(bad_dual), "--out", str(kkt_out)])
    assert code == 1
    kkt = json.loads(kkt_out.read_text())
    assert kkt["duality_gap"] is None and kkt["dual_value"] is None
    assert kkt["r5_sign"] == -1e-9 and np.isfinite(kkt["objective"])
    header, row = (tmp_path / "kkt.csv").read_text().splitlines()
    assert dict(zip(header.split(","), row.split(",")))["duality_gap"] == "inf"


def test_certify_corrupt_json(tmp_path):
    inst_path = tmp_path / "inst.json"
    run_cli(["generate", *TINY_ARGS, "--out", str(inst_path)])
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(["certify", "--instance", str(inst_path),
                    "--primal", str(bad), "--dual", str(bad)]) == 4


def test_certify_dimension_mismatch(tmp_path):
    inst_path = tmp_path / "inst.json"
    run_dir = tmp_path / "run"
    run_cli(["generate", *TINY_ARGS, "--out", str(inst_path)])
    run_cli(["solve", "--instance", str(inst_path), "--out", str(run_dir)])
    other = tmp_path / "other.json"
    run_cli(["generate", *TINY_ARGS, "--n1d", "3", "--out", str(other)])
    assert run_cli(["certify", "--instance", str(other),
                    "--primal", str(run_dir / "primal.json"),
                    "--dual", str(run_dir / "dual.json")]) == 4


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """Instance file and solve outputs of the tiny preset."""
    root = tmp_path_factory.mktemp("tiny_run")
    inst_path, run_dir = root / "inst.json", root / "run"
    assert run_cli(["generate", *TINY_ARGS, "--out", str(inst_path)]) == 0
    assert run_cli(["solve", "--instance", str(inst_path), "--out", str(run_dir)]) == 0
    return inst_path, run_dir / "primal.json", run_dir / "dual.json"


@pytest.mark.parametrize("name", ["x1", "y", "z", "adjoint", "obstacle",
                                  "nonanticipativity"])
def test_certify_rejects_non_finite_entry(tmp_path, capsys, tiny_run, name):
    """A NaN in any of the six arrays exits 4, naming the array, before
    anything is scored or written."""
    inst_path, primal_path, dual_path = tiny_run
    paths = {"primal": primal_path, "dual": dual_path}
    which = "primal" if name in ("x1", "y", "z") else "dual"
    data = json.loads(paths[which].read_text())
    arr = np.asarray(data[name])
    arr.flat[arr.size // 2] = np.nan
    data[name] = arr.tolist()
    paths[which] = tmp_path / f"{which}.json"
    paths[which].write_text(json.dumps(data))
    capsys.readouterr()
    code = run_cli(["certify", "--instance", str(inst_path), "--primal", str(paths["primal"]),
                    "--dual", str(paths["dual"]), "--out", str(tmp_path / "kkt.json")])
    assert code == 4
    captured = capsys.readouterr()
    assert f"error: {name} holds a non-finite entry" in captured.err
    assert "PASS" not in captured.out
    assert not (tmp_path / "kkt.json").exists() and not (tmp_path / "kkt.csv").exists()


def _no_work(*args, **kwargs):
    raise AssertionError("the command did its work before checking --out")


@pytest.mark.parametrize("command, out", [
    ("generate", "file/inst.json"), ("generate", "dir"),
    ("solve", "file"), ("solve", "file/run"), ("solve", "history"),
    ("certify", "file/kkt.json"), ("certify", "dir"),
    ("homotopy", "file"), ("compare-oracle", "file/c"), ("mms", "file")])
def test_unusable_out_exits_4_before_any_work(tmp_path, capsys, monkeypatch, tiny_run,
                                              command, out):
    """An ``--out`` that is a file where a directory is wanted (or the other
    way round), or lies under a file, exits 4 with one ``error:`` line
    before any solve, and nothing is written."""
    inst_path, primal_path, dual_path = tiny_run
    (tmp_path / "file").write_text("")
    (tmp_path / "dir").mkdir()
    for name in ("solve_pdhg", "solve_barrier_reference", "solve_progressive_hedging",
                 "run_homotopy", "mms_convergence_study"):
        monkeypatch.setattr(cli, name, _no_work)
    monkeypatch.setattr(io, "save_instance", _no_work)
    monkeypatch.setattr(cli.certify, "kkt_residuals", _no_work)
    extra = {"generate": [*TINY_ARGS],
             "solve": ["--instance", str(inst_path)],
             "certify": ["--instance", str(inst_path), "--primal", str(primal_path),
                         "--dual", str(dual_path)],
             "homotopy": ["--instance", str(inst_path), "--schedule", "1,10,100,1000"],
             "compare-oracle": ["--instance", str(inst_path)],
             "mms": ["--levels", "7,15,31"]}[command]
    if out == "history":
        extra += ["--history-csv", str(tmp_path / "file" / "h.csv")]
        out = "run"
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert run_cli([command, *extra, "--out", str(tmp_path / out)]) == 4
    captured = capsys.readouterr()
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: output path")
    assert sorted(tmp_path.rglob("*")) == before


def _set(data, path, value):
    """``data`` with the entry at ``path`` (keys and indices) set to
    ``value``; an empty path replaces the whole of it."""
    if not path:
        return value
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return data


@pytest.mark.parametrize("which, path, value", [
    ("instance", (), []),
    ("instance", ("grid",), 5),
    ("instance", ("grid", "n1d"), 4.0),
    ("instance", ("scenarios",), [3]),
    ("instance", ("scenarios", "S"), 2.5),
    ("instance", ("scenarios", "seed"), True),
    ("instance", ("scenarios", "spec_a"), None),
    ("instance", ("scenarios", "spec_a", "modes", 0), [0.4, 1]),
    ("instance", ("scenarios", "spec_g", "modes", 0, 2), 1.5),
    ("instance", ("scenarios", "spec_a", "clip"), [0.5]),
    ("instance", ("y_D",), "spec"),
    ("instance", ("alpha",), None),
    ("instance", ("scenarios", "spec_a", "baseline"), [1]),
    ("instance", ("scenarios", "spec_g", "modes", 0, 0), "0.4"),
    ("instance", ("c1", "lo"), {"a": 1}),
    ("instance", ("c1", "hi"), True),
    ("instance", ("alpha",), 10**400),
    ("instance", ("c1", "lo"), [10**400] * 16),
    ("instance", ("grid", "n1d"), 10**400),
    ("instance", ("scenarios", "S"), 10**400),
    ("instance", ("scenarios", "spec_a", "modes", 0, 1), 10**400),
    ("instance", ("scenarios", "spec_g", "modes", 0, 2), 10**400),
    ("instance", ("scenarios", "spec_psi", "modes", 0, 1), 10**400),
    ("instance", ("y_D", "spec", "modes", 0, 2), 10**400),
    ("primal", (), []),
    ("primal", ("y", 0, 1), {"a": 1}),
    ("dual", (), "adjoint"),
    ("dual", ("adjoint", 0, 0), "1.5"),
], ids=["instance_list", "grid_number", "n1d_float", "scenarios_list", "S_float",
        "seed_bool", "spec_null", "short_mode", "wavenumber_float", "short_clip",
        "y_D_string", "alpha_null", "baseline_array", "amplitude_string", "c1_lo_object",
        "c1_hi_bool", "alpha_huge_int", "c1_lo_huge_int", "n1d_huge_int", "S_huge_int",
        "spec_a_k1_huge_int", "spec_g_k2_huge_int", "spec_psi_k1_huge_int", "y_D_k2_huge_int",
        "primal_list", "y_entry_object",
        "dual_string", "adjoint_entry_string"])
def test_malformed_file_exits_4(tmp_path, capsys, tiny_run, which, path, value):
    """A file section of the wrong JSON type, a short field mode or clip, a
    non-integer grid size, scenario count, seed or wavenumber, a grid size,
    scenario count or wavenumber too large for a double, or a number field
    or array entry that is no JSON number or an integer too large for a
    double exits 4 with one ``error:`` line and writes nothing."""
    inst_path, primal_path, dual_path = tiny_run
    paths = {"instance": inst_path, "primal": primal_path, "dual": dual_path}
    data = _set(json.loads(paths[which].read_text()), path, value)
    paths[which] = tmp_path / f"{which}.json"
    paths[which].write_text(json.dumps(data))
    out = tmp_path / "out"
    if which == "instance":
        argv = ["solve", "--instance", str(paths["instance"])]
    else:
        argv = ["certify", *(arg for name, p in paths.items() for arg in (f"--{name}", str(p)))]
    capsys.readouterr()
    assert run_cli([*argv, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not out.exists()


POINT_KEYS = {"primal": ("x1", "y", "z"), "dual": ("adjoint", "obstacle", "nonanticipativity")}
ODD_VALUES = ([], [[]], [[], []], "x", None, True, 1.5, {}, 10**400, [10**400], [[1.0, "a"]])
ENTRY_VALUES = (math.nan, math.inf, -math.inf, 10**400, -10**400, "1.0", None, [], [1.0],
                True, {}, 0.0, 2.0)


def _perturb(data, doc):
    """``doc`` (a primal or dual dict) with one drawn edit: an array or the
    whole document replaced by a value of another type or shape, an entry
    replaced (non-finite, huge, of another type, or another number), a row
    dropped, the array wrapped in one more list, or the array deleted."""
    key = data.draw(st.sampled_from(POINT_KEYS["primal" if "x1" in doc else "dual"]))
    kind = data.draw(st.sampled_from(["value", "entry", "drop", "wrap", "delete", "doc"]))
    value = doc.get(key)

    def draw(values):
        return copy.deepcopy(data.draw(st.sampled_from(values)))

    if kind == "doc":
        return draw(ODD_VALUES)
    if kind == "delete":
        doc.pop(key, None)
    elif kind == "wrap":
        doc[key] = [value]
    elif kind in ("entry", "drop") and isinstance(value, list) and value:
        target = value
        while True:
            i = data.draw(st.integers(0, len(target) - 1))
            if not (isinstance(target[i], list) and target[i]):
                break
            if kind == "drop" and data.draw(st.booleans()):
                break
            target = target[i]
        if kind == "drop":
            del target[i]
        else:
            target[i] = draw(ENTRY_VALUES)
    else:
        doc[key] = draw(ODD_VALUES)
    return doc


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_certify_exit_code_on_perturbed_points(tmp_path, capsys, tiny_run, data):
    """Whatever is wrong with the primal and dual files (wrong types or
    shapes, NaN, +-inf, numbers too large for a double, empty or ragged
    arrays, missing arrays), ``certify`` exits with a documented code and
    no traceback: 4 with one ``error:`` line for an input error, 0 or 1
    for a pair it could score."""
    inst_path, primal_path, dual_path = tiny_run
    paths = {}
    for which, path in (("primal", primal_path), ("dual", dual_path)):
        doc = json.loads(path.read_text())
        for _ in range(data.draw(st.integers(0, 2))):
            if isinstance(doc, dict):
                doc = _perturb(data, doc)
        paths[which] = tmp_path / f"{which}.json"
        paths[which].write_text(json.dumps(doc))
    capsys.readouterr()
    code = run_cli(["certify", "--instance", str(inst_path), "--primal", str(paths["primal"]),
                    "--dual", str(paths["dual"])])
    err = capsys.readouterr().err
    assert code in (0, 1, 4)
    assert "Traceback" not in err
    if code == 4:
        assert err.startswith("error: ") and len(err.splitlines()) == 1


def _subtrees(node, path=()):
    """The paths (keys and indices) of ``node`` and of every value below it."""
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield from _subtrees(value, (*path, key))


def _edit_one_field(data, doc):
    """``doc`` with one drawn field (at any depth, or the whole of it)
    replaced by a value of the point tests' lists, or deleted."""
    path = data.draw(st.sampled_from(list(_subtrees(doc))))
    value = copy.deepcopy(data.draw(st.sampled_from(ODD_VALUES + ENTRY_VALUES + ("delete",))))
    if value == "delete" and path:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        del parent[path[-1]]
        return doc
    return _set(doc, path, value)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_certify_exit_code_on_perturbed_instances(tmp_path, capsys, tiny_run, data):
    """Whatever one field of the instance file is replaced by (a value of
    the point tests' lists: wrong types or shapes, NaN, +-inf, numbers too
    large for a double, empty or ragged arrays) or whether it is deleted,
    ``certify`` of the tiny run's primal and dual exits with a documented
    code and no traceback: 4 with one ``error:`` line for an input error,
    0 or 1 for an instance it could score the pair on."""
    inst_path, primal_path, dual_path = tiny_run
    doc = _edit_one_field(data, json.loads(inst_path.read_text()))
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(doc))
    capsys.readouterr()
    code = run_cli(["certify", "--instance", str(inst), "--primal", str(primal_path),
                    "--dual", str(dual_path)])
    err = capsys.readouterr().err
    assert code in (0, 1, 4)
    assert "Traceback" not in err
    if code == 4:
        assert err.startswith("error: ") and len(err.splitlines()) == 1


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
@pytest.mark.parametrize("command", [["solve"], ["homotopy", "--schedule", "1,10,100,1000"]],
                         ids=["solve", "homotopy"])
def test_solve_exit_code_on_perturbed_instances(tmp_path, capsys, tiny_run, command, data):
    """Whatever one field of the instance file is replaced by, or whether
    it is deleted (as in the ``certify`` test above), ``solve`` and
    ``homotopy`` exit with a documented code and no traceback, with one
    ``error:`` line on exit 4. The cap of 6000 iterations lets the unedited
    instance solve and its study reach the fit, so edits reach every stage,
    the study's hard reference included."""
    doc = _edit_one_field(data, json.loads(tiny_run[0].read_text()))
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(doc))
    out = tmp_path / "out"
    shutil.rmtree(out, ignore_errors=True)
    capsys.readouterr()
    code = run_cli([*command, "--instance", str(inst), "--max-iters", "6000",
                    "--out", str(out)])
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3, 4)
    assert "Traceback" not in err
    if code == 4:
        assert err.startswith("error: ") and len(err.splitlines()) == 1


def _documented_exit(capsys, argv, codes=(0, 1, 2, 3, 4)) -> int:
    """Run ``argv`` and check that it exits with one of ``codes`` and no
    traceback, with one ``error:`` line on exit 4; returns the code."""
    capsys.readouterr()
    code = run_cli(argv)
    err = capsys.readouterr().err
    assert code in codes
    assert "Traceback" not in err
    if code == 4:
        assert err.startswith("error: ") and len(err.splitlines()) == 1
    return code


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_compare_oracle_exit_code_on_perturbed_instances(tmp_path, capsys, tiny_run, data):
    """Whatever one field of the instance file is replaced by, or whether
    it is deleted (as in the ``certify`` test above), ``compare-oracle``
    exits with a documented code and no traceback, with one ``error:`` line
    on exit 4."""
    doc = _edit_one_field(data, json.loads(tiny_run[0].read_text()))
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(doc))
    out = tmp_path / "out"
    shutil.rmtree(out, ignore_errors=True)
    code = _documented_exit(capsys, ["compare-oracle", "--instance", str(inst),
                                     "--out", str(out)], codes=(0, 1, 4))
    assert (out / "compare_oracle.json").exists() == (code != 4)


# 728 TiB for one coordinate array of the grid
IMPOSSIBLE_N1D = 10_000_000


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(preset=st.sampled_from(["tiny", "default"]), seed=st.none() | st.integers(-2**70, 2**70),
       n1d=st.none() | st.integers(-2, 24) | st.just(IMPOSSIBLE_N1D),
       scenarios=st.none() | st.integers(-2, 8))
@example(preset="tiny", seed=None, n1d=IMPOSSIBLE_N1D, scenarios=None)
def test_generate_exit_code_on_drawn_options(tmp_path, capsys, preset, seed, n1d, scenarios):
    """Any seed, grid size (0, negative, or too large to allocate) and
    scenario count (0 or negative; a large count only makes a slow draw)
    gives exit 0 with an instance file, or exit 4 with one ``error:`` line
    and no file."""
    out = tmp_path / "inst.json"
    out.unlink(missing_ok=True)
    argv = ["generate", "--preset", preset, "--out", str(out)]
    for option, value in (("--seed", seed), ("--n1d", n1d), ("--scenarios", scenarios)):
        if value is not None:
            argv.append(f"{option}={value}")
    code = _documented_exit(capsys, argv, codes=(0, 4))
    assert out.exists() == (code == 0)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(levels=st.lists(st.integers(-2, 24) | st.just(IMPOSSIBLE_N1D), min_size=1, max_size=4))
@example(levels=[0])
@example(levels=[-1, 4])
@example(levels=[8, 4])
@example(levels=[4, 4])
@example(levels=[3, IMPOSSIBLE_N1D])
def test_mms_exit_code_on_drawn_levels(tmp_path, capsys, levels):
    """Level lists with a 0, a negative, an unsorted or a repeated level,
    or one too large to allocate, exit 4 with one ``error:`` line and write
    nothing; the others run the study and exit 0 or 1."""
    out = tmp_path / "mms"
    shutil.rmtree(out, ignore_errors=True)
    code = _documented_exit(capsys, ["mms", f"--levels={','.join(map(str, levels))}",
                                     "--out", str(out)], codes=(0, 1, 4))
    assert (out / "mms.csv").exists() == (code != 4)


@pytest.mark.parametrize("command", ["generate", "solve", "mms"])
def test_impossible_grid_exits_4(tmp_path, capsys, tiny_run, command):
    """A grid too large to allocate exits 4 with one ``error:`` line, not a
    ``MemoryError`` traceback, and writes nothing: from ``generate``'s
    option, from an instance file (which every command but ``mms`` loads
    the same way) and from ``mms``'s levels."""
    out = tmp_path / "out"
    if command == "generate":
        argv = ["generate", *TINY_ARGS, "--n1d", str(IMPOSSIBLE_N1D), "--out", str(out)]
    elif command == "solve":
        doc = _set(json.loads(tiny_run[0].read_text()), ("grid", "n1d"), IMPOSSIBLE_N1D)
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps(doc))
        argv = ["solve", "--instance", str(inst), "--out", str(out)]
    else:
        argv = ["mms", "--levels", f"3,{IMPOSSIBLE_N1D}", "--out", str(out)]
    assert _documented_exit(capsys, argv, codes=(4,)) == 4
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["solve", "--instance", "inst.json"],
    ["generate", *TINY_ARGS, "--n1d", "4.5", "--out", "inst.json"],
    ["mms", "--levels", "-3,5"],
], ids=["missing-required-option", "non-integer-n1d", "levels-taken-for-an-option"])
def test_usage_error_exits_4(tmp_path, capsys, monkeypatch, argv):
    """A command line that argparse rejects exits 4 (exit 2 is the
    iteration cap) with one ``error:`` line and no usage block, and writes
    nothing; ``--help`` still exits 0."""
    monkeypatch.chdir(tmp_path)
    assert _documented_exit(capsys, argv, codes=(4,)) == 4
    assert os.listdir(tmp_path) == []
    with pytest.raises(SystemExit) as exc:
        run_cli([argv[0], "--help"])
    assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: sassc")


@pytest.mark.parametrize("option, value", [
    ("--tol", "nan"), ("--tol", "-1"), ("--tol", "inf"), ("--tol", "0"),
    ("--gap-tol", "nan"), ("--gap-tol", "-1"), ("--gap-tol", "inf")])
def test_certify_rejects_bad_tolerance(tmp_path, capsys, monkeypatch, tiny_run, option, value):
    """A tolerance that is not positive and finite, or a gap tolerance that
    is not non-negative and finite, exits 4 before anything is scored or
    written."""
    inst_path, primal_path, dual_path = tiny_run

    def no_scoring(*args, **kwargs):
        raise AssertionError("scored the pair")

    monkeypatch.setattr(cli.certify, "kkt_residuals", no_scoring)
    out = tmp_path / "kkt.json"
    capsys.readouterr()
    assert run_cli(["certify", "--instance", str(inst_path), "--primal", str(primal_path),
                    "--dual", str(dual_path), option, value, "--out", str(out)]) == 4
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "error: --tol must be positive and finite, --gap-tol non-negative and finite"]
    assert captured.out == "" and not out.exists()


def test_compare_oracle_over_barrier_limit_runs_no_pdhg(tmp_path, monkeypatch, capsys):
    inst_path = tmp_path / "inst.json"
    run_cli(["generate", "--preset", "default", "--out", str(inst_path)])

    def no_pdhg(*args, **kwargs):
        raise AssertionError("the pdhg solve ran before the barrier's size check")

    monkeypatch.setattr(cli, "solve_pdhg", no_pdhg)
    assert run_cli(["compare-oracle", "--instance", str(inst_path)]) == 4
    assert "barrier oracle limited to 2000 variables, got 4352" in capsys.readouterr().err


def _nan_probability(d):
    d["scenarios"]["probabilities"] = [0.5, float("nan"), 0.5]


def _nan_g_baseline(d):
    d["scenarios"]["spec_g"]["baseline"] = float("nan")


def _nan_psi_amplitude(d):
    d["scenarios"]["spec_psi"]["modes"][0][0] = float("nan")


def _inf_g_baseline(d):
    d["scenarios"]["spec_g"]["baseline"] = float("inf")


@pytest.mark.parametrize("edit", [_nan_probability, _nan_g_baseline, _nan_psi_amplitude,
                                  _inf_g_baseline], ids=lambda f: f.__name__[1:])
def test_non_finite_instance_number_is_rejected(tmp_path, capsys, edit):
    d = io.template_dict("tiny")
    edit(d)
    with pytest.raises(ValueError):
        io.instance_from_dict(d)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    capsys.readouterr()
    assert run_cli(["solve", "--instance", str(bad), "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert "error:" in err and "serialize" not in err
    assert not (tmp_path / "o").exists()


def test_mms_cli(tmp_path):
    assert run_cli(["mms", "--levels", "7,15,31", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "mms.csv").read_text()
    assert text.splitlines()[0] == "n1d,h,max_error,rate"


def test_homotopy_cli_short_schedule(tmp_path):
    inst_path = tmp_path / "inst.json"
    run_cli(["generate", *TINY_ARGS, "--out", str(inst_path)])
    assert run_cli(["homotopy", "--instance", str(inst_path),
                    "--schedule", "1,10", "--out", str(tmp_path / "h")]) == 4


def test_homotopy_cli_too_few_usable_levels_exits_1(tmp_path, capsys):
    d = io.template_dict("tiny")
    d["scenarios"]["spec_psi"]["baseline"] = 0.9  # obstacle never binds
    inst_path = tmp_path / "inst.json"
    io.save_instance(io.instance_from_dict(d), str(inst_path))
    out = tmp_path / "h"
    code = run_cli(["homotopy", "--instance", str(inst_path),
                    "--schedule", "1,10,100,1000", "--out", str(out)])
    assert code == 1
    assert (out / "homotopy.json").exists() and (out / "homotopy.csv").exists()
    assert "constraint never active" in capsys.readouterr().err


@pytest.mark.parametrize("generate, hard", [(TINY_ARGS, False),
                                            (["--n1d", "8", "--scenarios", "4"], False),
                                            (TINY_ARGS, True)],
                         ids=["tiny", "default-n1d8-S4", "tiny-hard"])
def test_compare_oracle_cli(tmp_path, generate, hard):
    """The barrier agrees with pdhg within the oracle bounds; in hard mode
    through its hard-mode inequalities (no slack box, obstacle y < psi)."""
    inst_path = tmp_path / "inst.json"
    run_cli(["generate", *generate, "--out", str(inst_path)])
    if hard:
        inst_path = _hard_tiny(tmp_path)
    assert run_cli(["compare-oracle", "--instance", str(inst_path),
                    "--out", str(tmp_path / "c")]) == 0
    data = json.loads((tmp_path / "c" / "compare_oracle.json").read_text())
    assert data["dx1"] <= 1e-5
    assert data["relative_objective_difference"] <= 1e-7


def test_solve_history_csv(tmp_path):
    inst_path = tmp_path / "inst.json"
    run_cli(["generate", *TINY_ARGS, "--out", str(inst_path)])
    hist = tmp_path / "hist.csv"
    assert run_cli(["solve", "--instance", str(inst_path),
                    "--history-csv", str(hist), "--out", str(tmp_path / "r")]) == 0
    lines = hist.read_text().splitlines()
    assert lines[0] == ("iteration,r1,r2,r3,r3p,r4,r5_sign,r5_feas,r5_comp,"
                       "objective,dual_value")
    assert len(lines) >= 2


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask022", "umask077"])
def test_outputs_get_the_mode_open_gives_under_the_umask(tmp_path, umask, mode):
    """Files written whole through a temporary file (``io.atomic_file``)
    get mode 0666 less the umask, as a plain ``open`` gives them."""
    inst_path, hist, out = tmp_path / "inst.json", tmp_path / "hist.csv", tmp_path / "r"
    old = os.umask(umask)
    try:
        run_cli(["generate", *TINY_ARGS, "--out", str(inst_path)])
        assert run_cli(["solve", "--instance", str(inst_path), "--max-iters", "137",
                        "--history-csv", str(hist), "--out", str(out)]) == 2
    finally:
        os.umask(old)
    for path in (inst_path, hist, out / "report.json", out / "primal.json"):
        assert stat.S_IMODE(path.stat().st_mode) == mode, path.name
    assert sorted(p.name for p in tmp_path.iterdir()) == ["hist.csv", "inst.json", "r"]


def test_certify_out_ending_in_csv_exits_4_before_any_work(tmp_path, capsys, monkeypatch,
                                                           tiny_run):
    """``certify`` writes its JSON report to ``--out`` and the CSV row
    beside it with the extension ``.csv``; an ``--out`` that already ends
    in ``.csv`` names both, and the CSV would replace the report. It exits
    4 with one ``error:`` line before scoring, and writes nothing."""
    inst_path, primal_path, dual_path = tiny_run
    monkeypatch.setattr(cli.certify, "kkt_residuals", _no_work)
    capsys.readouterr()
    assert run_cli(["certify", "--instance", str(inst_path), "--primal", str(primal_path),
                    "--dual", str(dual_path), "--out", str(tmp_path / "kk.csv")]) == 4
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: output path")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("history", ["run/report.json", "run/primal.json", "run/../run/dual.json",
                                     "run"])
def test_solve_history_csv_on_an_output_exits_4_before_any_work(tmp_path, capsys, monkeypatch,
                                                                 tiny_run, history):
    """A ``--history-csv`` that names a file ``solve`` writes in an
    existing ``--out`` directory would be overwritten by it, and one that
    names a new ``--out`` directory would stand in its way: the solve exits
    4 with one ``error:`` line before any work, and writes nothing."""
    inst_path = tiny_run[0]
    if history != "run":
        (tmp_path / "run").mkdir()
    before = sorted(tmp_path.rglob("*"))
    monkeypatch.setattr(cli, "solve_pdhg", _no_work)
    capsys.readouterr()
    assert run_cli(["solve", "--instance", str(inst_path), "--out", str(tmp_path / "run"),
                    "--history-csv", str(tmp_path / history)]) == 4
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: output path")
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("algorithm", ["ph", "barrier"])
def test_solve_history_csv_rejected_without_pdhg(tmp_path, capsys, algorithm):
    """Only the pdhg solve streams a history; asking another algorithm for
    one is an input error, and nothing is written."""
    inst_path = tmp_path / "inst.json"
    run_cli(["generate", *TINY_ARGS, "--out", str(inst_path)])
    hist, out = tmp_path / "hist.csv", tmp_path / "r"
    assert run_cli(["solve", "--instance", str(inst_path), "--algorithm", algorithm,
                    "--history-csv", str(hist), "--out", str(out)]) == 4
    assert "--history-csv applies to --algorithm pdhg only" in capsys.readouterr().err
    assert not hist.exists() and not out.exists()


def test_ph_and_barrier_algorithms_via_cli(tmp_path):
    inst_path = tmp_path / "inst.json"
    run_cli(["generate", *TINY_ARGS, "--out", str(inst_path)])
    assert run_cli(["solve", "--instance", str(inst_path), "--algorithm", "ph",
                    "--ph-penalty", "0.05", "--out", str(tmp_path / "ph")]) == 0
    weights = json.loads((tmp_path / "ph" / "ph_weights.json").read_text())
    assert "weights" in weights and "instance_sha256" in weights
    assert run_cli(["solve", "--instance", str(inst_path), "--algorithm", "barrier",
                    "--out", str(tmp_path / "ba")]) == 0


def test_barrier_that_reaches_its_floor_fails(tmp_path, monkeypatch):
    """A barrier parameter floor above the one the duality gap needs ends
    the path there: the report says failure, at the floor, and ``solve``
    exits 1."""
    inst_path = tmp_path / "inst.json"
    run_cli(["generate", *TINY_ARGS, "--out", str(inst_path)])
    monkeypatch.setattr(solvers, "BARRIER_MU_FLOOR", 1e-3)
    assert run_cli(["solve", "--instance", str(inst_path), "--algorithm", "barrier",
                    "--out", str(tmp_path / "ba")]) == 1
    report = json.loads((tmp_path / "ba" / "report.json").read_text())
    assert report["status"] == "failure"
    assert report["extras"]["mu_terminal"] == 1e-3
    assert report["objective"] - report["dual_value"] > (
        solvers.BARRIER_REL_GAP * abs(report["objective"]))


def _hard_tiny(tmp_path, c1=None, psi=None, S=None):
    """The tiny preset in hard mode, saved to a file, with the control box
    ``c1`` = (lo, hi), a constant obstacle ``psi`` and ``S`` scenarios if
    given."""
    d = io.template_dict("tiny")
    d["mode"] = "hard"
    if S is not None:
        d["scenarios"]["S"] = S
    if c1 is not None:
        d["c1"] = {"lo": c1[0], "hi": c1[1]}
    if psi is not None:
        d["scenarios"]["spec_psi"] = {"baseline": psi, "modes": [], "clip": None}
    path = tmp_path / "hard.json"
    io.save_instance(io.instance_from_dict(d), str(path))
    return path


NARROW_C1 = (-0.001, 0.001)     # no reachable state lies under the obstacle
NARROW_C1_REASON = ("the lowest reachable state exceeds min(obstacle, M) by 0.0242 "
                    "at scenario 0, node 9")


def test_barrier_proven_infeasible_exits_3_after_0_steps(tmp_path, monkeypatch, capsys):
    """The barrier runs the a-priori hard-mode verdict before any Newton
    step: it reports what pdhg reports, at the same zero point, and exits
    3; ``compare-oracle`` exits 3 on the barrier's verdict without running
    pdhg."""
    inst_path = _hard_tiny(tmp_path, c1=NARROW_C1)
    reports = {}
    for algorithm in ("pdhg", "barrier"):
        out = tmp_path / algorithm
        assert run_cli(["solve", "--instance", str(inst_path), "--algorithm", algorithm,
                        "--out", str(out)]) == 3
        reports[algorithm] = json.loads((out / "report.json").read_text())
        assert (out / "primal.json").read_text() == (tmp_path / "pdhg" / "primal.json").read_text()
    assert reports["barrier"]["iterations"] == 0
    assert reports["barrier"]["extras"] == {"infeasibility": NARROW_C1_REASON}
    assert {**reports["barrier"], "algorithm": "pdhg"} == reports["pdhg"]

    def no_pdhg(*args, **kwargs):
        raise AssertionError("the pdhg solve ran after the barrier's verdict")

    monkeypatch.setattr(cli, "solve_pdhg", no_pdhg)
    capsys.readouterr()
    assert run_cli(["compare-oracle", "--instance", str(inst_path),
                    "--out", str(tmp_path / "c")]) == 3
    assert capsys.readouterr().err == f"infeasible: {NARROW_C1_REASON}\n"
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("S", [3, 1])
def test_barrier_starts_under_an_obstacle_near_minus_m(tmp_path, capsys, S):
    """An obstacle psi = -0.95 between -M and -0.9 M, which the a-priori
    verdict passes, still leaves the barrier's hard-mode start strictly
    inside -M < y < psi: the barrier runs and exits 0 or 1 (a Newton
    breakdown, with one ``error:`` line), never 4, the input error. On
    three scenarios it reports failure; the one-scenario instance is one
    that pdhg certifies."""
    from sassc.problem import hard_mode_infeasibility

    inst_path = _hard_tiny(tmp_path, c1=(-200.0, 2.0), psi=-0.95, S=S)
    inst = io.load_instance(str(inst_path))[0]
    assert inst.S == S and hard_mode_infeasibility(inst) is None
    capsys.readouterr()
    out = tmp_path / "b"
    code = run_cli(["solve", "--instance", str(inst_path), "--algorithm", "barrier",
                    "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    if S == 3:
        assert code == 1
        assert json.loads((out / "report.json").read_text())["status"] == "failure"
    else:
        assert code == 0 or (code == 1 and len(err) == 1 and err[0].startswith("error: "))
        assert run_cli(["solve", "--instance", str(inst_path),
                        "--out", str(tmp_path / "p")]) == 0


def test_barrier_start_outside_a_degenerate_control_box_exits_4(tmp_path, capsys):
    """A control box with lo = hi has no interior for the barrier's start:
    an input error, exit 4 with one ``error:`` line and no report."""
    d = io.template_dict("tiny")
    d["c1"] = {"lo": 0.5, "hi": 0.5}
    inst_path = tmp_path / "inst.json"
    io.save_instance(io.instance_from_dict(d), str(inst_path))
    capsys.readouterr()
    assert run_cli(["solve", "--instance", str(inst_path), "--algorithm", "barrier",
                    "--out", str(tmp_path / "b")]) == 4
    assert capsys.readouterr().err.splitlines() == [
        "error: the barrier's start point is not strictly inside the control box"]
    assert not (tmp_path / "b" / "report.json").exists()


def test_compare_oracle_has_no_tol_option(tmp_path, capsys):
    """``compare-oracle`` runs pdhg at ``cli.ORACLE_PDHG_TOL``; ``--tol`` is
    an unknown option, exit 4 with one ``error:`` line."""
    inst_path = tmp_path / "inst.json"
    run_cli(["generate", *TINY_ARGS, "--out", str(inst_path)])
    capsys.readouterr()
    assert run_cli(["compare-oracle", "--instance", str(inst_path), "--tol", "1e-2"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--tol" in err and len(err.splitlines()) == 1


def _no_engine(*args, **kwargs):
    raise AssertionError("a solve or study ran before the input was rejected")


@pytest.mark.parametrize("max_iters, psi, code, message", [
    ("100", None, 2, "hard-mode reference did not converge (status iteration_cap)"),
    ("400000", -1.0, 3, "hard-mode reference is infeasible: the lowest reachable state "
                        "exceeds min(obstacle, M) by 0.973 at scenario 1, node 0"),
], ids=["iteration-cap", "infeasible"])
def test_homotopy_reference_failure_exit_codes(tmp_path, monkeypatch, capsys, max_iters,
                                               psi, code, message):
    """A hard reference stopped by the iteration cap exits 2, and one proven
    infeasible a priori exits 3 with the verdict's reason, before any
    engine call; neither writes the study's files."""
    d = io.template_dict("tiny")
    if psi is not None:
        d["scenarios"]["spec_psi"] = {"baseline": psi, "modes": [], "clip": None}
        monkeypatch.setattr(solvers, "_pdhg_engine", _no_engine)
    inst_path = tmp_path / "inst.json"
    io.save_instance(io.instance_from_dict(d), str(inst_path))
    out = tmp_path / "h"
    capsys.readouterr()
    assert run_cli(["homotopy", "--instance", str(inst_path), "--schedule", "1,10,100,1000",
                    "--max-iters", max_iters, "--out", str(out)]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {message}")
    assert not out.exists()


def test_mms_single_level_exits_4_before_any_work(tmp_path, monkeypatch, capsys):
    """One level gives no rate: an input error, exit 4, before the study
    runs or any file is written."""
    monkeypatch.setattr(cli, "mms_convergence_study", _no_engine)
    capsys.readouterr()
    assert run_cli(["mms", "--levels", "8", "--out", str(tmp_path / "m")]) == 4
    assert capsys.readouterr().err.splitlines() == [
        "error: --levels needs at least two levels for a rate, got 1"]
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("command", [["solve", "--algorithm", "ph"]], ids=["ph"])
def test_worker_that_dies_without_replying_exits_one(tmp_path, monkeypatch, capsys,
                                                     use_workers, command):
    """A worker process that exits without replying ends the command with
    exit 1 and one ``error:`` line that gives its exit code."""
    inst_path = tmp_path / "inst.json"
    run_cli(["generate", *TINY_ARGS, "--out", str(inst_path)])
    use_workers(2)
    engine, parent = solvers._pdhg_engine, os.getpid()

    def dying(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(3)
        return engine(*args, **kwargs)

    monkeypatch.setattr(solvers, "_pdhg_engine", dying)
    capsys.readouterr()
    assert run_cli([*command, "--instance", str(inst_path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "error: an engine worker process exited with code 3 without replying"]
    assert "Traceback" not in err
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("command", [["solve", "--algorithm", "ph", "--ph-penalty", "inf"],
                                     ["homotopy", "--schedule", "1,10,inf"],
                                     ["homotopy", "--schedule", "1,nan,1000"]],
                         ids=["ph_penalty_inf", "schedule_inf", "schedule_nan"])
def test_non_finite_setting_exits_4_before_any_engine_call(tmp_path, monkeypatch, capsys,
                                                           command):
    inst_path = tmp_path / "inst.json"
    run_cli(["generate", *TINY_ARGS, "--out", str(inst_path)])

    def no_engine(*args, **kwargs):
        raise AssertionError("called the engine")

    monkeypatch.setattr(solvers, "_pdhg_engine", no_engine)
    out = tmp_path / "o"
    assert run_cli([*command, "--instance", str(inst_path), "--out", str(out)]) == 4
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_nonuniform_probabilities_roundtrip(tmp_path):
    d = io.template_dict("tiny")
    d["scenarios"]["probabilities"] = [0.5, 0.3, 0.2]
    inst = io.instance_from_dict(d)
    path = tmp_path / "p.json"
    io.save_instance(inst, str(path))
    loaded, _ = io.load_instance(str(path))
    np.testing.assert_array_equal(loaded.scenarios.p, np.array([0.5, 0.3, 0.2]))
    assert abs(loaded.scenarios.p.sum() - 1.0) <= 1e-14
    path2 = tmp_path / "p2.json"
    io.save_instance(loaded, str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_solve_rejects_nonelliptic_instance_file(tmp_path):
    d = io.template_dict("tiny")
    d["scenarios"]["spec_a"]["clip"] = [0.0, 2.0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    assert run_cli(["solve", "--instance", str(bad), "--out", str(tmp_path / "o")]) == 4


def test_homotopy_cli_success_path(tmp_path):
    inst_path = tmp_path / "inst.json"
    run_cli(["generate", "--preset", "default", "--n1d", "8", "--scenarios", "4",
             "--out", str(inst_path)])
    out = tmp_path / "hom"
    code = run_cli(["homotopy", "--instance", str(inst_path),
                    "--schedule", "1,10,100,1000,10000", "--out", str(out)])
    assert code == 0
    csv_lines = (out / "homotopy.csv").read_text().splitlines()
    assert csv_lines[0] == "alpha_prime,Ez2,dist_x1,objective,kkt_max"
    assert len(csv_lines) == 6
    payload = json.loads((out / "homotopy.json").read_text())
    assert payload["slope"] <= -0.9
    assert "instance_sha256" in payload
