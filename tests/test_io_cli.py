import json
import multiprocessing
import os
import stat

import numpy as np
import pytest

from sassc import cli, io, solvers
from sassc.cli import main

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

    def failing(A, rhs):
        raise grid.LinearSolveError("conjugate gradients did not converge (info=7)")

    monkeypatch.setattr(grid, "solve_linear", failing)
    assert run_cli(["mms", "--levels", "7,15"]) == 1
    err = capsys.readouterr().err
    assert "linear solve failed: conjugate gradients did not converge" in err
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


def test_compare_oracle_cli(tmp_path):
    inst_path = tmp_path / "inst.json"
    run_cli(["generate", *TINY_ARGS, "--out", str(inst_path)])
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


@pytest.mark.parametrize("command", [["solve", "--algorithm", "ph"],
                                     ["homotopy", "--schedule", "1,10,100,1000"]],
                         ids=["ph", "homotopy"])
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
