"""Shared-pole rational approximation of decaying exponentials.

Fits a family of rational functions r_j(x) ~= exp(-t_j * x), one per time
channel, that all share a single set of complex poles.  Each pole is stored
as its upper-half-plane representative; evaluation takes 2*Re of the
half-sum so values at real arguments are real by construction:

    r_j(x) = 2 * Re( sum_i alpha[i, j] / (x - pole[i]) )

The shared poles are what make the downstream shifted-system solves
independent of the number of time channels.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgeqrf

from .pool import PoleWorkerPool

__all__ = [
    "TimeChannels",
    "FitConfig",
    "FitReport",
    "RationalApproximant",
    "PoleCollisionError",
    "fit_common_pole",
    "refit_residues",
    "validate_fit",
    "save_approximant",
    "load_approximant",
]


# relative pole movement below which the fit has converged
POLE_TOL = 1e-8
# relative pairwise pole distance that counts as a collision
COLLISION_TOL = 1e-10
# the fit stops after this many iterations without a better iterate: the
# relocation settles in a few passes and then wanders on a plateau (the
# 16x16 testbed fit's best is pass 11, and the ten passes after it stay
# within about 3% of its error)
STALL_ITERS = 3
# `grid_size` of the samples on which fits measure their error
VALIDATION_GRID_SIZE = 2001


class PoleCollisionError(RuntimeError):
    """Two poles moved closer than the collision tolerance."""


@dataclass(frozen=True)
class TimeChannels:
    """A nonempty list of strictly increasing positive output times, in seconds."""

    times: np.ndarray

    def __post_init__(self):
        t = np.atleast_1d(np.asarray(self.times, dtype=float))
        if not (t.size and np.all(np.isfinite(t)) and np.all(t > 0) and np.all(np.diff(t) > 0)):
            raise ValueError("times must be nonempty, finite, positive and strictly increasing")
        object.__setattr__(self, "times", t)

    @property
    def count(self) -> int:
        return self.times.size

    @classmethod
    def logspaced(cls, t_min: float, t_max: float, count: int) -> "TimeChannels":
        with np.errstate(invalid="ignore"):     # non-finite bounds: rejected below
            times = np.geomspace(t_min, t_max, count)
        return cls(times)


@dataclass(frozen=True)
class FitConfig:
    max_iters: int = 50
    grid_size: int = 1000           # points per segment of the training grid


@dataclass
class FitReport:
    """Per-channel accuracy audit on a refined grid."""

    max_abs: float
    per_channel_max_abs: np.ndarray
    grid_size: int


@dataclass(frozen=True)
class RationalApproximant:
    """Common-pole partial-fraction approximant of ``exp(-t_j x)``.

    poles : (m,) complex, upper-half-plane representatives of conjugate pairs
    residues : (m, K_t) complex, ``residues[i, j]`` pairs pole i with channel j
    history : one ``(max_error, pole_move)`` pair per fit iteration: the
        validation error at the relocated poles and their largest relative
        movement
    """

    poles: np.ndarray
    residues: np.ndarray
    spectral_interval: tuple[float, float]
    fit_error: float
    channels: TimeChannels
    converged: bool = True
    history: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        poles = np.atleast_1d(np.asarray(self.poles, dtype=complex))
        residues = np.asarray(self.residues, dtype=complex).reshape(poles.size, -1)
        if np.any(poles.imag <= 0):
            raise ValueError("poles must lie strictly in the upper half-plane")
        _check_collisions(poles, 0.0)
        object.__setattr__(self, "poles", poles)
        object.__setattr__(self, "residues", residues)
        object.__setattr__(self, "spectral_interval",
                           (float(self.spectral_interval[0]), float(self.spectral_interval[1])))

    @property
    def pole_count(self) -> int:
        return self.poles.size

    @property
    def iterations(self) -> int:
        return len(self.history)

    def eval(self, x) -> np.ndarray:
        """Evaluate every channel at real arguments ``x``; returns (len(x), K_t)."""
        return _rational(np.atleast_1d(np.asarray(x, dtype=float)), self.poles, self.residues)


def _rational(x: np.ndarray, poles: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """2 Re((x - xi)^-1 @ alpha) at the real points ``x``; returns (len(x), K_t)."""
    r = 1.0 / (x[:, None] - poles[None, :])
    return 2.0 * np.real(r @ alpha)


def _check_collisions(poles: np.ndarray, tol: float) -> None:
    if poles.size < 2:
        return
    d = np.abs(poles[:, None] - poles[None, :])
    np.fill_diagonal(d, np.inf)
    scale = np.max(np.abs(poles))
    if np.min(d) <= tol * scale:
        raise PoleCollisionError(
            f"pole pair closer than {tol:g} relative (min distance {np.min(d):.3e})")


def _samples(interval, times: np.ndarray, grid_size: int):
    """Sample points ``x`` and the targets ``F[j] = exp(-times[j] * x)``;
    returns ``(x, F)`` with F of shape (K_t, G).

    The points are sorted and lie inside the spectral interval, endpoints
    included: ``grid_size`` linear points through the fast-decay region
    ``x <= 1/times[0]`` plus ``grid_size`` log-spaced points out to the end
    of the interval, from ``x_min`` when it is positive.  Grids with sizes n
    and k*(n-1)+1 nest, so the observed maximum of a fixed approximant's
    error is monotone under refinement.
    """
    x_min, x_max = interval
    lin_hi = min(1.0 / times[0], x_max)
    parts = [np.array([x_min, x_max])]
    if lin_hi > x_min:
        parts.append(np.linspace(x_min, lin_hi, grid_size))
    log_lo = x_min if x_min > 0 else 1e-3 * lin_hi
    if x_max > log_lo:
        parts.append(np.geomspace(log_lo, x_max, grid_size))
    x = np.unique(np.concatenate(parts))
    return x, np.exp(-np.outer(times, x))


def _pair_basis(x: np.ndarray, poles: np.ndarray) -> np.ndarray:
    """Real basis [2*Re 1/(x-xi) | -2*Im 1/(x-xi)] of shape (len(x), 2m)."""
    r = 1.0 / (x[:, None] - poles[None, :])
    return np.concatenate([2.0 * r.real, -2.0 * r.imag], axis=1)


def _scaled_lstsq(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Least-squares solution of ``A x ~= b`` (b with one or more columns)
    through the columns of ``A`` scaled to unit norm; zero columns stay."""
    scale = np.linalg.norm(A, axis=0)
    scale[scale == 0] = 1.0
    x, *_ = np.linalg.lstsq(A / scale, b, rcond=None)
    return (x.T / scale).T


def _residues_and_error(x: np.ndarray, F: np.ndarray, x_val: np.ndarray,
                        F_val: np.ndarray, poles: np.ndarray):
    """Least-squares residues at fixed ``poles`` for all channels on the
    training grid ``x``, from one column-scaled factorization, and their max
    abs error on the validation grid; returns (error, (m, K_t) residues)."""
    coef = _scaled_lstsq(_pair_basis(x, poles), F.T)
    alpha = coef[:poles.size, :] + 1j * coef[poles.size:, :]
    return np.max(np.abs(_rational(x_val, poles, alpha) - F_val.T)), alpha


def _denominator_rows(B: np.ndarray, F_j: np.ndarray, m: int):
    """One channel's rows of the shared denominator least-squares system.

    The linearized residual of channel j is ``[B | -F_j B] (ab; cd) - F_j``.
    Eliminating its residue unknowns ``ab`` leaves ``R22 cd ~= Q2^T F_j``,
    where ``R22 = R[2m:, 2m:]`` and ``Q2 = Q[:, 2m:]`` come from the QR of
    ``[B | -F_j B]``.  With ``F_j`` appended as a last column, one R-only
    LAPACK QR yields both: its Householder reflections, applied to that
    column, leave ``Q^T F_j`` there, so ``Q`` is never formed.
    Returns ``(R22, Q2^T F_j)``.
    """
    A = np.empty((B.shape[0], 4 * m + 1), order="F")
    A[:, :2 * m] = B
    A[:, 2 * m:4 * m] = -F_j[:, None] * B
    A[:, 4 * m] = F_j
    qr, _, _, info = dgeqrf(A, overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"denominator QR failed (dgeqrf info {info})")
    R = np.triu(qr[2 * m:4 * m, 2 * m:])
    return R[:, :2 * m], R[:, 2 * m]


def _relocate_poles(poles: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """New poles = zeros of 1 + sum_i (c_i, d_i)-weighted pair basis.

    Uses the real 2x2 block companion form so conjugate symmetry of the
    eigenvalues is exact; real eigenvalues (which the pair representation
    cannot host) are merged pairwise and lifted off the axis.
    """
    m = poles.size
    k = 2 * np.arange(m)
    A = np.zeros((2 * m, 2 * m))
    A[k, k] = A[k + 1, k + 1] = poles.real
    A[k, k + 1] = poles.imag
    A[k + 1, k] = -poles.imag
    ev = np.linalg.eigvals(A - np.outer(np.tile([2.0, 0.0], m), np.column_stack([c, d]).ravel()))

    is_real = np.abs(ev.imag) <= 1e-9 * np.abs(ev) + 1e-300
    reals = np.sort(ev[is_real].real)
    lo, hi = reals[:-1:2], reals[1::2]
    mid = 0.5 * (lo + hi)
    lift = np.maximum(0.5 * np.abs(hi - lo), 1e-6 * np.maximum(np.abs(mid), 1.0))
    new = np.concatenate([ev[(~is_real) & (ev.imag > 0)], mid + 1j * lift])
    if new.size != m:
        raise RuntimeError(f"pole relocation produced {new.size} poles, expected {m}")
    new = _spread_duplicates(new)
    return new[np.lexsort((new.real, new.imag))]


def _spread_duplicates(poles: np.ndarray, rel: float = 1e-9) -> np.ndarray:
    """Degenerate relocations can emit near-identical poles; nudge the
    imaginary parts apart deterministically so the iteration can recover."""
    scale = np.max(np.abs(poles))
    sorted_poles = poles[np.lexsort((poles.real, poles.imag))]
    out = sorted_poles.copy()
    for k in range(1, out.size):
        # compare un-nudged neighbours, but stack on the nudged predecessor,
        # so a run of coincident poles climbs one step per pole
        if abs(sorted_poles[k] - sorted_poles[k - 1]) < rel * scale:
            out[k] = out[k].real + 1j * (out[k - 1].imag * (1.0 + 1e-6) + rel * scale)
    return out


def _initial_poles(times: np.ndarray, m: int) -> np.ndarray:
    t_min, t_max = times[0], times[-1]
    if m == 1:
        im = np.array([1.0 / np.sqrt(t_min * t_max)])
    else:
        im = np.geomspace(1.0 / t_max, 1.0 / t_min, m)
    return -im / 100.0 + 1j * im


def fit_common_pole(channels: TimeChannels, spectral_interval, pole_count: int,
                    fit_cfg: FitConfig | None = None,
                    pool: PoleWorkerPool | None = None) -> RationalApproximant:
    """Fit ``pole_count`` shared conjugate-pair poles to all channels at once.

    Alternates a linearized least-squares pass (residues for every channel
    plus a shared denominator correction) with pole relocation through the
    zeros of the correction, keeping the best iterate seen.  The fit stops
    once the poles move less than ``POLE_TOL``, after ``max_iters`` passes,
    or ``STALL_ITERS`` passes after its best iterate; it returns that best
    iterate, whose residues come from an exact least-squares solve.

    The per-channel QR reductions of the denominator pass
    (`_denominator_rows`) run on ``pool`` and are stacked in channel order,
    so the result is bit-identical for any worker count.
    """
    cfg = fit_cfg or FitConfig()
    pool = pool or PoleWorkerPool(1)
    times = channels.times
    x_min, x_max = float(spectral_interval[0]), float(spectral_interval[1])
    if pole_count < 1 or not 0 <= x_min < x_max < np.inf:
        raise ValueError("need pole_count >= 1 and a finite interval 0 <= x_min < x_max")

    m = pole_count
    x, F = _samples((x_min, x_max), times, cfg.grid_size)
    x_val, F_val = _samples((x_min, x_max), times, VALIDATION_GRID_SIZE)

    poles = _initial_poles(times, m)
    history = []
    best_err, best_alpha = _residues_and_error(x, F, x_val, F_val, poles)
    best_poles = poles.copy()
    converged = False
    stall = 0

    for _ in range(cfg.max_iters):
        B = _pair_basis(x, poles)          # (G, 2m)

        rows = pool.map_poles(lambda j: _denominator_rows(B, F[j], m), times.size)
        AA = np.vstack([R for R, _ in rows])
        bb = np.concatenate([b for _, b in rows])
        cd = _scaled_lstsq(AA, bb)

        new_poles = _relocate_poles(poles, cd[:m], cd[m:])
        _check_collisions(new_poles, COLLISION_TOL)

        # both the initial and the relocated poles come in lexsort((real, imag)) order
        move = np.max(np.abs(new_poles - poles) / np.maximum(np.abs(poles), 1e-300))
        poles = new_poles

        err, alpha = _residues_and_error(x, F, x_val, F_val, poles)
        history.append((float(err), float(move)))
        if err < best_err:
            best_err, best_alpha, best_poles = err, alpha, poles.copy()
            stall = 0
        else:
            stall += 1

        if move < POLE_TOL:
            converged = True
            break
        if stall >= STALL_ITERS:
            break

    return RationalApproximant(
        poles=best_poles,
        residues=best_alpha,
        spectral_interval=(x_min, x_max),
        fit_error=float(best_err),
        channels=channels,
        converged=converged,
        history=tuple(history),
    )


def refit_residues(approx: RationalApproximant, channels: TimeChannels,
                   fit_cfg: FitConfig | None = None) -> RationalApproximant:
    """Re-solve the residues for new time channels, keeping the poles.

    No pole work happens here: changing the channel count touches only the
    (m x K_t) residue solve.
    """
    cfg = fit_cfg or FitConfig()
    interval, times = approx.spectral_interval, channels.times
    err, alpha = _residues_and_error(*_samples(interval, times, cfg.grid_size),
                                     *_samples(interval, times, VALIDATION_GRID_SIZE),
                                     approx.poles)
    return RationalApproximant(poles=approx.poles, residues=alpha,
                               spectral_interval=interval,
                               fit_error=float(err), channels=channels)


def validate_fit(approx: RationalApproximant, grid_size: int) -> FitReport:
    """Accuracy audit on a refined grid."""
    if grid_size < 10:
        raise ValueError("grid_size must be >= 10")
    x, target = _samples(approx.spectral_interval, approx.channels.times, grid_size)
    got = approx.eval(x).T
    abs_err = np.abs(got - target)
    return FitReport(
        max_abs=float(np.max(abs_err)),
        per_channel_max_abs=np.max(abs_err, axis=1),
        grid_size=x.size,
    )


def save_approximant(approx: RationalApproximant, path) -> None:
    """JSON layout: times, poles as [re, im], residues nested per channel."""
    doc = {
        "times": approx.channels.times.tolist(),
        "poles": [[p.real, p.imag] for p in approx.poles],
        "residues": [[[a.real, a.imag] for a in approx.residues[:, j]]
                     for j in range(approx.channels.count)],
        "interval": list(approx.spectral_interval),
        "fit_error": approx.fit_error,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def json_entry(doc, key: str, shape: tuple) -> np.ndarray:
    """``doc[key]`` as a finite float array of ``shape`` (None matches any
    length), or a ValueError that names the entry."""
    try:
        a = np.asarray(doc[key], dtype=float)
    except (TypeError, ValueError):
        a = np.array(np.nan)
    if a.ndim != len(shape) or not np.all(np.isfinite(a)) \
            or any(n not in (None, m) for n, m in zip(shape, a.shape)):
        dims = " x ".join("n" if n is None else str(n) for n in shape)
        raise ValueError(f"entry {key!r}: expected " + (
            f"an array of {dims} finite numbers" if shape else "a finite number"))
    return a


def load_approximant(path) -> RationalApproximant:
    with open(path) as fh:
        doc = json.load(fh)
    times = json_entry(doc, "times", (None,))
    poles = json_entry(doc, "poles", (None, 2)).view(complex)[:, 0]
    residues = json_entry(doc, "residues", (times.size, poles.size, 2)).view(complex)[..., 0]
    return RationalApproximant(
        poles=poles,
        residues=residues.T,
        spectral_interval=tuple(json_entry(doc, "interval", (2,))),
        fit_error=float(json_entry(doc, "fit_error", ())),
        channels=TimeChannels(times),
    )
