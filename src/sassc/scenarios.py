"""Seeded sampling of finite scenario sets for the random problem data.

Each scenario realizes a diffusion coefficient field, a load, and an
obstacle as truncated sine expansions with uniform random mode weights.
Draws come from a counter-based generator keyed by (seed, scenario, field,
mode), so realizations are reproducible bit-for-bit and independent of the
order in which scenarios are evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import Grid

# Field slots in the generator key: coefficient, load, obstacle.
_FIELD_A, _FIELD_G, _FIELD_PSI = 0, 1, 2


@dataclass(frozen=True)
class FieldSpec:
    """Truncated sine expansion with a baseline and optional clipping.

    A realization on scenario ``k`` is::

        f(s) = clip(baseline + sum_m xi[k, m] * amp_m * sin(pi k1_m s1) * sin(pi k2_m s2))

    with ``xi`` i.i.d. Uniform[-1, 1]. ``clip`` is ``(lo, hi)`` or None.
    A coefficient field must carry a clip interval with ``0 < lo <= hi``.
    The baseline, the amplitudes and the clip bounds must be finite.
    """

    baseline: float
    modes: tuple[tuple[float, tuple[int, int]], ...] = ()
    clip: tuple[float, float] | None = None

    def __post_init__(self):
        values = [("baseline", self.baseline)]
        values += [(f"amplitude of mode {m}", amp) for m, (amp, _) in enumerate(self.modes)]
        if self.clip is not None:
            values += [("clip lower bound", self.clip[0]), ("clip upper bound", self.clip[1])]
        for name, value in values:
            if not math.isfinite(value):
                raise ValueError(f"field spec {name} must be finite, got {value}")
        if self.clip is not None:
            lo, hi = self.clip
            if not lo <= hi:
                raise ValueError(f"clip interval is empty: ({lo}, {hi})")
        for amp, (k1, k2) in self.modes:
            if k1 < 1 or k2 < 1:
                raise ValueError(f"wavenumbers must be positive integers, got {(k1, k2)}")

    def require_elliptic(self) -> None:
        """Reject specs that cannot serve as a diffusion coefficient."""
        if self.clip is None or self.clip[0] <= 0.0:
            raise ValueError(
                "uniform ellipticity requires a coefficient clip interval with "
                f"positive lower bound, got {self.clip}"
            )

    def evaluate(self, xi: np.ndarray, sx: np.ndarray, sy: np.ndarray) -> np.ndarray:
        """Evaluate one realization at the given coordinates."""
        out = np.full(sx.shape, self.baseline, dtype=float)
        for m, (amp, (k1, k2)) in enumerate(self.modes):
            out += xi[m] * amp * np.sin(np.pi * k1 * sx) * np.sin(np.pi * k2 * sy)
        if self.clip is not None:
            np.clip(out, self.clip[0], self.clip[1], out=out)
        return out


def _draw_xi(seed: int, scenario: int, field_slot: int, n_modes: int) -> np.ndarray:
    """Uniform[-1,1] weights from the counter-based generator."""
    out = np.empty(n_modes)
    for m in range(n_modes):
        bitgen = np.random.Philox(
            key=np.array([seed & 0xFFFFFFFFFFFFFFFF, field_slot], dtype=np.uint64),
            counter=np.array([scenario, m, 0, 0], dtype=np.uint64),
        )
        out[m] = np.random.Generator(bitgen).uniform(-1.0, 1.0)
    return out


@dataclass
class ScenarioSet:
    """Finite sample space with per-scenario field realizations.

    Realized nodal arrays are cached per grid; the set itself is treated as
    immutable after construction.
    """

    S: int
    seed: int
    p: np.ndarray
    spec_a: FieldSpec
    spec_g: FieldSpec
    spec_psi: FieldSpec
    xi_a: np.ndarray
    xi_g: np.ndarray
    xi_psi: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False)

    def subset(self, indices: list[int]) -> "ScenarioSet":
        """View of the named scenarios as a standalone set, uniformly
        weighted (the progressive hedging subproblems weight each scenario
        fully)."""
        idx = list(indices)
        return ScenarioSet(
            S=len(idx), seed=self.seed, p=np.full(len(idx), 1.0 / len(idx)),
            spec_a=self.spec_a, spec_g=self.spec_g, spec_psi=self.spec_psi,
            xi_a=self.xi_a[idx], xi_g=self.xi_g[idx], xi_psi=self.xi_psi[idx],
        )

    def realize(self, grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nodal realizations ``(a_closed, g, psi)`` for every scenario.

        ``a_closed`` has shape ``(S, n1d+2, n1d+2)`` (closed grid, for flux
        assembly); ``g`` and ``psi`` have shape ``(S, n)`` (interior nodes).
        """
        key = grid.n1d
        if key in self._cache:
            return self._cache[key]
        t = grid.closed_coords()
        cx, cy = np.meshgrid(t, t, indexing="ij")
        sx, sy = grid.interior_coords()
        a = np.stack([self.spec_a.evaluate(self.xi_a[k], cx, cy) for k in range(self.S)])
        g = np.stack([self.spec_g.evaluate(self.xi_g[k], sx, sy) for k in range(self.S)])
        psi = np.stack([self.spec_psi.evaluate(self.xi_psi[k], sx, sy) for k in range(self.S)])
        self._cache[key] = (a, g, psi)
        return self._cache[key]


def sample_scenarios(
    spec_a: FieldSpec,
    spec_g: FieldSpec,
    spec_psi: FieldSpec,
    S: int,
    seed: int,
    probabilities: np.ndarray | None = None,
) -> ScenarioSet:
    """Draw a scenario set of size ``S`` with the given seed.

    Probabilities default to uniform; an explicit vector must be positive
    and sum to one within 1e-12, which a NaN or infinite entry fails.
    """
    if S < 1:
        raise ValueError(f"scenario count must be >= 1, got {S}")
    spec_a.require_elliptic()
    if probabilities is None:
        p = np.full(S, 1.0 / S)
    else:
        p = np.asarray(probabilities, dtype=float)
        if p.shape != (S,):
            raise ValueError(f"probability vector must have shape ({S},), got {p.shape}")
        # written so that a NaN fails each test
        if not np.all(p > 0.0):
            raise ValueError("all scenario probabilities must be positive")
        if not abs(float(p.sum()) - 1.0) <= 1e-12:
            raise ValueError(f"probabilities sum to {p.sum()!r}, expected 1")

    xi_a = np.stack([_draw_xi(seed, k, _FIELD_A, len(spec_a.modes)) for k in range(S)])
    xi_g = np.stack([_draw_xi(seed, k, _FIELD_G, len(spec_g.modes)) for k in range(S)])
    xi_psi = np.stack([_draw_xi(seed, k, _FIELD_PSI, len(spec_psi.modes)) for k in range(S)])
    return ScenarioSet(
        S=S, seed=int(seed), p=p,
        spec_a=spec_a, spec_g=spec_g, spec_psi=spec_psi,
        xi_a=xi_a, xi_g=xi_g, xi_psi=xi_psi,
    )
