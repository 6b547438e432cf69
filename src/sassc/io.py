"""Canonical JSON serialization, instance files, and report emission.

All JSON written by this package is canonical: keys sorted, floats with 17
significant digits, no whitespace variation. Identical inputs therefore
produce byte-identical files, and every report embeds the SHA-256 of the
instance it came from plus the sampling seed, so any number in a study is
traceable to an exact instance.

Realized scenario fields are never serialized; instances store only the
field specifications and the seed, and realizations are regenerated on
load.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import secrets

import numpy as np

from .certify import KKT_CSV_COLUMNS, KktReport
from .grid import build_grid
from .homotopy import HomotopyReport
from .problem import DualPoint, Instance, PrimalPoint
from .scenarios import FieldSpec, sample_scenarios
from .solvers import SolveReport

HOMOTOPY_CSV_COLUMNS = ("alpha_prime", "Ez2", "dist_x1", "objective", "kkt_max")
MMS_CSV_COLUMNS = ("n1d", "h", "max_error", "rate")


def _fmt(x: float) -> str:
    if not np.isfinite(x):
        raise ValueError(f"cannot serialize non-finite number {x}")
    return format(float(x), ".17g")


_FLOAT = "{:.17g}".format


def _render_floats(o) -> str:
    """``_fmt`` of a float, or of each float of a nested list of them, all
    finite: the ``tolist()`` of a float array."""
    if isinstance(o, float):
        return _FLOAT(o)
    if o and isinstance(o[0], list):
        return "[" + ",".join(map(_render_floats, o)) + "]"
    return "[" + ",".join(map(_FLOAT, o)) + "]"


def canonical_json(obj) -> str:
    """Render nested dict/list/scalar data as canonical JSON text.

    A float array is checked for non-finite entries once, and then each
    entry is formatted, without the type tests of the other values; the
    bytes are those of rendering its ``tolist()``.
    """

    def render(o) -> str:
        if o is None:
            return "null"
        if isinstance(o, bool):
            return "true" if o else "false"
        if isinstance(o, (int, np.integer)):
            return str(int(o))
        if isinstance(o, (float, np.floating)):
            return _fmt(o)
        if isinstance(o, str):
            return json.dumps(o)
        if isinstance(o, np.ndarray):
            if o.dtype.kind != "f":
                return render(o.tolist())
            finite = np.isfinite(o)
            if not finite.all():
                _fmt(o[~finite].flat[0].item())     # raises the scalars' ValueError
            return _render_floats(o.tolist())
        if isinstance(o, (list, tuple)):
            return "[" + ",".join(render(v) for v in o) + "]"
        if isinstance(o, dict):
            items = sorted(o.items())
            return "{" + ",".join(json.dumps(str(k)) + ":" + render(v) for k, v in items) + "}"
        raise TypeError(f"cannot serialize object of type {type(o)}")

    return render(obj) + "\n"


@contextlib.contextmanager
def atomic_file(path: str):
    """Yield a text file that replaces ``path`` when the block exits
    normally and is removed if it raises, so readers never see a partial
    file. The file is created beside ``path`` with mode 0666 less the
    umask, as ``open`` creates one."""
    while True:
        tmp = f"{os.path.abspath(path)}.{secrets.token_hex(6)}.tmp"
        try:
            fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through ``atomic_file``."""
    with atomic_file(path) as fh:
        fh.write(text)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Field specs and instances


def fieldspec_to_dict(spec: FieldSpec) -> dict:
    return {
        "baseline": spec.baseline,
        "modes": [[amp, k1, k2] for amp, (k1, k2) in spec.modes],
        "clip": None if spec.clip is None else [spec.clip[0], spec.clip[1]],
    }


def _json(value, kind: type | tuple, name: str):
    """``value``, which must be of JSON type ``kind``; ``2.5`` and ``true``
    are no ints, and ``true`` is no number."""
    if isinstance(value, bool) or not isinstance(value, kind):
        what = {dict: "an object", list: "an array", int: "an integer",
                (int, float): "a number"}[kind]
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return value


def _number(value, name: str) -> float:
    """The JSON number ``value`` as a float."""
    try:
        return float(_json(value, (int, float), name))
    except OverflowError:   # a JSON integer beyond the double range
        raise ValueError(f"{name} is too large for a double") from None


def _integer(value, name: str) -> int:
    """The JSON integer ``value``, which must lie in the double range,
    since the grid, the scenario set and the fields compute with it in
    doubles."""
    _number(_json(value, int, name), name)
    return value


def _numbers(value, name: str) -> np.ndarray:
    """The JSON number or nested array of numbers ``value`` as a float array;
    a ragged array raises ``ValueError`` in numpy."""
    pending = [value]
    while pending:
        v = pending.pop()
        if isinstance(v, list):   # plain numbers pass here, the rest are checked
            pending.extend(x for x in v if type(x) is not float and type(x) is not int)
        else:
            _json(v, (int, float), f"an entry of {name}")
    try:
        return np.asarray(value, dtype=float)
    except OverflowError:   # a JSON integer beyond the double range
        raise ValueError(f"an entry of {name} is too large for a double") from None


def fieldspec_from_dict(d: dict) -> FieldSpec:
    d = _json(d, dict, "a field spec")
    modes = [_json(m, list, "a field mode") for m in _json(d.get("modes", []), list, "modes")]
    clip = d.get("clip")
    if any(len(m) != 3 for m in modes) or clip is not None and len(_json(clip, list, "clip")) != 2:
        raise ValueError("a field mode must be [amplitude, k1, k2] and a clip [lo, hi]")
    return FieldSpec(
        baseline=_number(d["baseline"], "baseline"),
        modes=tuple((_number(a, "an amplitude"),
                     (_integer(k1, "a wavenumber"), _integer(k2, "a wavenumber")))
                    for a, k1, k2 in modes),
        clip=None if clip is None else (_number(clip[0], "clip"), _number(clip[1], "clip")),
    )


def _bounds_out(arr: np.ndarray):
    if np.all(arr == arr[0]):
        return float(arr[0])
    return arr.tolist()


def instance_to_dict(inst: Instance) -> dict:
    sc = inst.scenarios
    scen = {
        "S": sc.S,
        "seed": sc.seed,
        "spec_a": fieldspec_to_dict(sc.spec_a),
        "spec_g": fieldspec_to_dict(sc.spec_g),
        "spec_psi": fieldspec_to_dict(sc.spec_psi),
    }
    if not np.allclose(sc.p, 1.0 / sc.S, rtol=0, atol=0):
        scen["probabilities"] = sc.p.tolist()
    if inst.y_spec is not None:
        y_d = {"spec": fieldspec_to_dict(inst.y_spec)}
    else:
        y_d = {"array": inst.y_target.tolist()}
    return {
        "grid": {"n1d": inst.grid.n1d},
        "scenarios": scen,
        "c1": {"lo": _bounds_out(inst.c1_lo), "hi": _bounds_out(inst.c1_hi)},
        "c2": {"M": inst.c2_bound},
        "y_D": y_d,
        "alpha": inst.alpha,
        "alpha_prime": inst.alpha_prime,
        "mode": inst.mode,
    }


def evaluate_deterministic(spec: FieldSpec, grid) -> np.ndarray:
    """Evaluate a field spec with unit mode weights (no randomness)."""
    sx, sy = grid.interior_coords()
    return spec.evaluate(np.ones(len(spec.modes)), sx, sy)


def instance_from_dict(d: dict) -> Instance:
    d = _json(d, dict, "an instance")
    grid = build_grid(_integer(_json(d["grid"], dict, "grid")["n1d"], "n1d"))
    scen = _json(d["scenarios"], dict, "scenarios")
    probs = scen.get("probabilities")
    scenarios = sample_scenarios(
        fieldspec_from_dict(scen["spec_a"]),
        fieldspec_from_dict(scen["spec_g"]),
        fieldspec_from_dict(scen["spec_psi"]),
        S=_integer(scen["S"], "S"),
        seed=_json(scen["seed"], int, "seed"),
        probabilities=None if probs is None else _numbers(probs, "probabilities"),
    )
    y_d = _json(d["y_D"], dict, "y_D")
    c1 = _json(d["c1"], dict, "c1")
    if "spec" in y_d:
        y_spec = fieldspec_from_dict(y_d["spec"])
        y_target = evaluate_deterministic(y_spec, grid)
    else:
        y_spec = None
        y_target = _numbers(y_d["array"], "y_D")
    return Instance(
        grid=grid,
        scenarios=scenarios,
        c1_lo=_numbers(c1["lo"], "c1.lo"),
        c1_hi=_numbers(c1["hi"], "c1.hi"),
        c2_bound=_number(_json(d["c2"], dict, "c2")["M"], "c2.M"),
        y_target=y_target,
        alpha=_number(d["alpha"], "alpha"),
        alpha_prime=_number(d["alpha_prime"], "alpha_prime"),
        mode=str(d["mode"]),
        y_spec=y_spec,
    )


def save_instance(inst: Instance, path: str) -> str:
    """Write the canonical instance file; returns its SHA-256."""
    text = canonical_json(instance_to_dict(inst))
    atomic_write(path, text)
    return sha256_text(text)


def load_instance(path: str) -> tuple[Instance, str]:
    """Load an instance file; returns the instance and the canonical SHA-256."""
    with open(path) as fh:
        d = json.load(fh)
    inst = instance_from_dict(d)
    return inst, sha256_text(canonical_json(instance_to_dict(inst)))


# ---------------------------------------------------------------------------
# Templates


def template_dict(preset: str = "default", seed: int | None = None,
                  n1d: int | None = None, scenario_count: int | None = None) -> dict:
    """Built-in instance templates.

    ``default`` is the binding-obstacle production template; ``tiny`` is
    small enough for the dense reference oracle.
    """
    if preset == "default":
        d = {
            "grid": {"n1d": 16},
            "scenarios": {
                "S": 8,
                "seed": 7,
                "spec_a": {"baseline": 1.0,
                           "modes": [[0.4, 1, 1], [0.2, 2, 1]],
                           "clip": [0.5, 2.0]},
                "spec_g": {"baseline": 0.03,
                           "modes": [[0.015, 1, 2], [0.0075, 2, 2]],
                           "clip": None},
                "spec_psi": {"baseline": 0.0018,
                             "modes": [[0.0006, 1, 1]],
                             "clip": None},
            },
            "c1": {"lo": -2.0, "hi": 2.0},
            "c2": {"M": 1.0},
            "y_D": {"spec": {"baseline": 0.0, "modes": [[0.0075, 1, 1]], "clip": None}},
            "alpha": 0.02,
            "alpha_prime": 1.0,
            "mode": "slack",
        }
    elif preset == "tiny":
        d = {
            "grid": {"n1d": 4},
            "scenarios": {
                "S": 3,
                "seed": 1,
                "spec_a": {"baseline": 1.0,
                           "modes": [[0.4, 1, 1]],
                           "clip": [0.5, 2.0]},
                "spec_g": {"baseline": 1.0,
                           "modes": [[0.5, 1, 2]],
                           "clip": None},
                "spec_psi": {"baseline": 0.06,
                             "modes": [[0.02, 1, 1]],
                             "clip": None},
            },
            "c1": {"lo": -2.0, "hi": 2.0},
            "c2": {"M": 1.0},
            "y_D": {"spec": {"baseline": 0.0, "modes": [[0.25, 1, 1]], "clip": None}},
            "alpha": 0.1,
            "alpha_prime": 1.0,
            "mode": "slack",
        }
    else:
        raise ValueError(f"unknown preset {preset!r}")
    if seed is not None:
        d["scenarios"]["seed"] = int(seed)
    if n1d is not None:
        d["grid"]["n1d"] = int(n1d)
    if scenario_count is not None:
        d["scenarios"]["S"] = int(scenario_count)
    return d


def make_instance(preset: str = "default", **overrides) -> Instance:
    return instance_from_dict(template_dict(preset, **overrides))


# ---------------------------------------------------------------------------
# Points and reports


def primal_to_dict(x: PrimalPoint, provenance: dict) -> dict:
    return {"x1": x.x1, "y": x.y, "z": x.z, **provenance}


def primal_from_dict(d: dict) -> PrimalPoint:
    d = _json(d, dict, "a primal point")
    return PrimalPoint(x1=_numbers(d["x1"], "x1"), y=_numbers(d["y"], "y"),
                       z=_numbers(d["z"], "z"))


def dual_to_dict(lam: DualPoint, provenance: dict) -> dict:
    return {
        "adjoint": lam.adjoint,
        "obstacle": lam.obstacle,
        "nonanticipativity": lam.nonant,
        **provenance,
    }


def dual_from_dict(d: dict) -> DualPoint:
    d = _json(d, dict, "a dual point")
    return DualPoint(adjoint=_numbers(d["adjoint"], "adjoint"),
                     obstacle=_numbers(d["obstacle"], "obstacle"),
                     nonant=_numbers(d["nonanticipativity"], "nonanticipativity"))


def solve_report_to_dict(rep: SolveReport, provenance: dict) -> dict:
    # wall time deliberately omitted: reports must be deterministic
    return {
        "algorithm": rep.algorithm,
        "iterations": rep.iterations,
        "status": rep.status,
        "residuals": rep.residuals,
        "objective": rep.objective,
        "dual_value": rep.dual_value,
        "extras": {k: v for k, v in rep.extras.items()
                   if isinstance(v, (int, float, bool, str))},
        **provenance,
    }


def kkt_report_to_dict(rep: KktReport, provenance: dict) -> dict:
    """KKT report fields; a non-finite duality gap or dual value becomes
    ``None`` (JSON ``null``). The dual function is ``-inf`` whenever the
    obstacle multiplier has a negative entry, which makes the gap ``+inf``."""
    d = dataclasses.asdict(rep)
    for name in ("duality_gap", "dual_value"):
        if not np.isfinite(d[name]):
            d[name] = None
    return {**d, **provenance}


def kkt_report_csv(rep: KktReport) -> str:
    return ",".join(KKT_CSV_COLUMNS) + "\n" + rep.to_csv_row() + "\n"


def homotopy_csv(rep: HomotopyReport) -> str:
    lines = [",".join(HOMOTOPY_CSV_COLUMNS)]
    for lvl in rep.levels:
        lines.append(
            f"{lvl.alpha_prime:.17g},{lvl.ez2:.17g},{lvl.dist_x1:.17g},"
            f"{lvl.objective:.17g},{lvl.kkt_max:.17g}"
        )
    return "\n".join(lines) + "\n"


def homotopy_to_dict(rep: HomotopyReport, provenance: dict) -> dict:
    return {
        "schedule": rep.schedule,
        "levels": [
            {"alpha_prime": l.alpha_prime, "Ez2": l.ez2, "dist_x1": l.dist_x1,
             "objective": l.objective, "kkt_max": l.kkt_max, "converged": l.converged}
            for l in rep.levels
        ],
        "slope": rep.slope,
        "intercept": rep.intercept,
        "r_squared": rep.r_squared,
        "zero_slack_levels": rep.zero_slack_levels,
        "reference_status": rep.reference.status,
        **provenance,
    }


def mms_csv(rows) -> str:
    lines = [",".join(MMS_CSV_COLUMNS)]
    for r in rows:
        rate = "" if r.rate is None else f"{r.rate:.17g}"
        lines.append(f"{r.n1d},{r.h:.17g},{r.max_error:.17g},{rate}")
    return "\n".join(lines) + "\n"
