"""The grid oracle behind `arch.validate_green`.

It checks one closed-form Green function against its defining properties
(harmonic, zero on the boundary, positive inside) on a numpy grid, through
the same formulas `arch.green` evaluates at single points.  `arch` loads
this module on first use, so `check` neither compiles it nor imports numpy.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import Optional

from ._record import Record
from .arch import ArchDomain, Component, Disk, ExteriorDisk, _component_green, _pole_frame
from .errors import PreconditionError


class GreenDiagnostics(Record):
    """Grid diagnostics for one Green function (see validate_green)."""

    h: float
    tolerance: float
    laplacian_residual: Optional[float]
    boundary_residual: Optional[float]
    interior_min: Optional[float]
    interior_count: int
    boundary_count: int

    @property
    def laplacian_ok(self) -> bool:
        return self.laplacian_residual is None or self.laplacian_residual <= self.tolerance

    def to_report(self) -> dict:
        return {**super().to_report(), "laplacian_ok": self.laplacian_ok}


def _component_box(comp: Component):
    """Sampling box (x range, y range) covering the informative region."""
    c, r = a, b = comp.floats
    if isinstance(comp, Disk):
        return (c - r, c + r), (-r, r)
    if isinstance(comp, ExteriorDisk):
        return (c - 2.5 * r, c + 2.5 * r), (-2.5 * r, 2.5 * r)
    pad = max(b - a, 1.0)
    return (a - pad, b + pad), (-pad - 1.0, pad + 1.0)


def _grid_green(comp: Component, pole, zs):
    """Green values of one component on a numpy array of points."""
    import numpy as np

    grid = SimpleNamespace(abs=np.abs, sqrt=np.sqrt, log=np.log, conj=np.conj, div=np.divide)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _component_green(grid, comp, pole, zs)


def _interior_mask(comp: Component, zz, h: float):
    """Points whose full 5-point stencil stays inside the component."""
    import numpy as np

    c, r = comp.floats
    if isinstance(comp, Disk):
        return np.abs(zz - c) <= r - 2 * h
    if isinstance(comp, ExteriorDisk):
        d = np.abs(zz - c)
        return (d >= r + 2 * h) & (d <= 2.2 * r)
    # stay away from the segment (its endpoints carry the branch points)
    cut_clear = max(0.75, 5 * h)
    return np.abs(zz.imag) >= cut_clear


def _boundary_samples(comp: Component, count: int = 720):
    import numpy as np

    if isinstance(comp, (Disk, ExteriorDisk)):
        theta = np.linspace(0.0, 2.0 * math.pi, count, endpoint=False)
        return comp.floats[0] + comp.floats[1] * np.exp(1j * theta)
    return np.linspace(*comp.floats, count).astype(complex)


def validate_green(
    domain: ArchDomain,
    pole,
    h: float,
    tolerance: float = 1e-4,
    pole_clearance: float = 1.25,
) -> GreenDiagnostics:
    """Check one Green function against its defining properties on a grid.

    Reports the largest 5-point discrete Laplacian over interior grid points
    away from the pole, the largest |g| over boundary samples, and the
    smallest g over the interior samples.  Always returns a report; fields
    are None when the grid yields no usable samples.
    """
    import numpy as np

    if h <= 0:
        raise PreconditionError("grid step must be positive")
    comps, comp, pole_arg = _pole_frame(domain, pole)

    (x0, x1), (y0, y1) = _component_box(comp)
    lap_res = bnd_res = interior_min = None
    n_interior = 0

    xs = np.arange(x0, x1 + h / 2, h)
    ys = np.arange(y0, y1 + h / 2, h)
    if len(xs) >= 5 and len(ys) >= 5:
        zz = xs[None, :] + 1j * ys[:, None]
        gg = _grid_green(comp, pole_arg, zz)
        mask = _interior_mask(comp, zz, h)
        if pole_arg is not None:
            mask &= np.abs(zz - pole_arg) >= pole_clearance
            if isinstance(comp, (Disk, ExteriorDisk)) and pole_arg != complex(comp.center):
                # the harmonic extension is singular at the reflected pole
                c = complex(comp.center)
                refl = c + float(comp.radius) ** 2 / np.conj(pole_arg - c)
                mask &= np.abs(zz - refl) >= pole_clearance
        core = mask[1:-1, 1:-1]
        if core.any():
            lap = (
                gg[2:, 1:-1] + gg[:-2, 1:-1] + gg[1:-1, 2:] + gg[1:-1, :-2]
                - 4.0 * gg[1:-1, 1:-1]
            ) / (h * h)
            vals = lap[core]
            finite = np.isfinite(vals)
            if finite.any():
                lap_res = float(np.max(np.abs(vals[finite])))
                interior_min = float(np.min(gg[1:-1, 1:-1][core][finite]))
                n_interior = int(finite.sum())

    bnd = []
    for c in comps:
        samples = _boundary_samples(c)
        if c is comp:
            bnd.append(np.abs(_grid_green(comp, pole_arg, samples)))
        else:
            bnd.append(np.zeros(len(samples)))  # other components: g is 0 there
    if bnd:
        allb = np.concatenate(bnd)
        allb = allb[np.isfinite(allb)]
        if len(allb):
            bnd_res = float(np.max(allb))

    return GreenDiagnostics(
        h=float(h),
        tolerance=float(tolerance),
        laplacian_residual=lap_res,
        boundary_residual=bnd_res,
        interior_min=interior_min,
        interior_count=n_interior,
        boundary_count=sum(len(b) for b in bnd),
    )
