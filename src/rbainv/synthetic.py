"""Noisy synthetic observations from a known model.

Noise follows sigma(d) = |d| eps_r + eps_a per datum, Gaussian, seeded;
the dataset carries the weights W_d = 1/sigma and the weighted residual
W_d (d - d_obs) that every misfit is built from, so that chi^2 at the true
model concentrates around one.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .forward import forward_response
from .mesh import Model, Problem
from .rba import RationalApproximant, json_entry
from .shifted import ShiftedFactorCache

__all__ = ["NoiseSpec", "DataSet", "make_dataset", "save_dataset", "load_dataset"]


@dataclass(frozen=True)
class NoiseSpec:
    """eps_a = None picks the floor 1e-6 * max|d_clean| at generation time."""

    eps_r: float = 0.03
    eps_a: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.eps_r < 0:
            raise ValueError("eps_r must be >= 0")
        if self.eps_a is not None and self.eps_a <= 0:
            raise ValueError("eps_a must be > 0")


@dataclass
class DataSet:
    d_obs: np.ndarray
    sigma_d: np.ndarray
    times: np.ndarray
    receivers: np.ndarray
    eps_r: float
    eps_a: float
    seed: int
    provenance: dict
    weights: np.ndarray = field(init=False, repr=False, compare=False)     # W_d = 1 / sigma_d

    def __post_init__(self):
        if np.any(self.sigma_d <= 0):
            raise ValueError("sigma_d must be strictly positive")
        self.weights = 1.0 / self.sigma_d

    def residual(self, d_pred: np.ndarray) -> np.ndarray:
        """The weighted residual W_d (d_pred - d_obs)."""
        return self.weights * (d_pred - self.d_obs)

    @property
    def size(self) -> int:
        return self.d_obs.size

    def mismatch(self, problem: Problem, approx: RationalApproximant) -> str | None:
        """Why the data, approximant and problem files do not belong together."""
        if not np.array_equal(self.times, approx.channels.times):
            return "the data's times differ from the approximant's channel times"
        if not np.array_equal(self.receivers, problem.receivers):
            return "the data's receivers differ from the problem's receivers"
        return None


def make_dataset(problem: Problem, true_model: Model, approx: RationalApproximant,
                 noise: NoiseSpec, cache: ShiftedFactorCache | None = None) -> DataSet:
    """Forward-model the true model and add seeded Gaussian noise."""
    cache = cache or ShiftedFactorCache()
    d_clean = forward_response(problem, true_model, approx, cache)
    eps_a = noise.eps_a if noise.eps_a is not None else 1e-6 * np.max(np.abs(d_clean))
    if eps_a <= 0:
        raise ValueError("resolved eps_a must be > 0 (zero response?)")
    sigma = np.abs(d_clean) * noise.eps_r + eps_a
    rng = np.random.default_rng(noise.seed)
    d_obs = d_clean + sigma * rng.standard_normal(d_clean.size)
    provenance = {
        "true_model_hash": hashlib.sha1(true_model.m.tobytes()).hexdigest(),
        "seed": noise.seed,
        "noise": {"eps_r": noise.eps_r, "eps_a": eps_a},
    }
    return DataSet(d_obs=d_obs, sigma_d=sigma, times=approx.channels.times.copy(),
                   receivers=problem.receivers.copy(), eps_r=noise.eps_r,
                   eps_a=float(eps_a), seed=noise.seed, provenance=provenance)


def save_dataset(data: DataSet, path) -> None:
    doc = {
        "d_obs": data.d_obs.tolist(),
        "sigma_d": data.sigma_d.tolist(),
        "times": data.times.tolist(),
        "receivers": data.receivers.tolist(),
        "eps_r": data.eps_r,
        "eps_a": data.eps_a,
        "seed": data.seed,
        "provenance": data.provenance,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_dataset(path) -> DataSet:
    with open(path) as fh:
        doc = json.load(fh)
    times = json_entry(doc, "times", (None,))
    receivers = json_entry(doc, "receivers", (None, None))
    size = (times.size * len(receivers),)
    if not isinstance(doc["seed"], int):
        raise ValueError("entry 'seed': expected an integer")
    return DataSet(
        d_obs=json_entry(doc, "d_obs", size),
        sigma_d=json_entry(doc, "sigma_d", size),
        times=times, receivers=receivers,
        eps_r=float(json_entry(doc, "eps_r", ())),
        eps_a=float(json_entry(doc, "eps_a", ())),
        seed=doc["seed"],
        provenance=doc.get("provenance", {}),
    )
