"""Bundled model fixtures: Heisenberg, lognormal, 1-d bridge, and
polynomial systems loaded from a JSON file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .fgauss import CMElement
from .rde import VectorFieldSystem, polynomial_fields


@dataclass
class Model:
    """A vector-field system with a start point, a target, and optional oracles."""

    name: str
    vf: VectorFieldSystem
    a: np.ndarray
    a_prime: np.ndarray
    params: dict = field(default_factory=dict)

    @property
    def n(self):
        return self.vf.n

    @property
    def d(self):
        return self.vf.d

    def exact_density(self, t):
        """Closed-form density p_t(a, a') where one exists, else None."""
        return None

    def exact_gamma(self, spec):
        """Closed-form energy minimizer where one exists, else None."""
        return None


class LognormalModel(Model):
    """dy = sigma * y dw, y_0 = a > 0: y_t = a exp(sigma w_t)."""

    def exact_density(self, t):
        s = self.params["sigma"]
        a, ap = float(self.a[0]), float(self.a_prime[0])
        H = self.params["hurst"]
        th = float(t) ** H
        z = np.log(ap / a)
        return np.exp(-z * z / (2 * s * s * th * th)) / (ap * s * np.sqrt(2 * np.pi) * th)

    def exact_gamma(self, spec):
        s = self.params["sigma"]
        xi = np.log(float(self.a_prime[0]) / float(self.a[0])) / s
        return CMElement(spec, np.array([1.0]), np.array([[xi]]))

    def exact_rate(self):
        s = self.params["sigma"]
        return (np.log(float(self.a_prime[0]) / float(self.a[0])) / s) ** 2


class Bridge1dModel(Model):
    """dy = dw: y_t = a + w_t, Gaussian with variance t^{2H}."""

    def exact_density(self, t):
        H = self.params["hurst"]
        th = float(t) ** H
        z = float(self.a_prime[0] - self.a[0])
        return np.exp(-z * z / (2 * th * th)) / (np.sqrt(2 * np.pi) * th)

    def exact_gamma(self, spec):
        xi = float(self.a_prime[0] - self.a[0])
        return CMElement(spec, np.array([1.0]), np.array([[xi]]))


class HeisenbergModel(Model):
    """V1 = (1, 0, 2y^2), V2 = (0, 1, -2y^1): hypoelliptic, explicit solution."""

    def exact_endpoint(self, w_lift, a=None):
        """Closed-form y_t from the level-2 lift of the driver."""
        a = self.a if a is None else np.asarray(a, float)
        p1, p2 = w_lift.prefix1, w_lift.prefix2
        y = np.empty((p1.shape[0], 3))
        y[:, 0] = a[0] + p1[:, 0]
        y[:, 1] = a[1] + p1[:, 1]
        y[:, 2] = a[2] + 2 * (a[1] * p1[:, 0] - a[0] * p1[:, 1]) + 2 * (
            p2[:, 1, 0] - p2[:, 0, 1])
        return y

    def exact_gamma(self, spec):
        xi, eta = float(self.a_prime[0]), float(self.a_prime[1])
        return CMElement(spec, np.array([1.0]), np.array([[xi], [eta]]))


def heisenberg(a=(0.0, 0.0, 0.0), a_prime=(1.0, 0.5, 0.0)):
    lin = np.zeros((3, 3, 2))
    lin[2, 1, 0] = 2.0   # V1^3 = 2 y^2
    lin[2, 0, 1] = -2.0  # V2^3 = -2 y^1
    const = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    vf = polynomial_fields(const, lin)
    return HeisenbergModel("heisenberg", vf, np.asarray(a, float),
                           np.asarray(a_prime, float))


def lognormal(sigma=0.5, a=1.0, a_prime=1.5, hurst=0.5):
    lin = np.zeros((1, 1, 1))
    lin[0, 0, 0] = sigma
    vf = polynomial_fields(np.zeros((1, 1)), lin)
    return LognormalModel("lognormal", vf, np.array([a]), np.array([a_prime]),
                          {"sigma": sigma, "hurst": float(hurst)})


def bridge1d(a=0.0, a_prime=1.0, hurst=0.5):
    vf = polynomial_fields(np.ones((1, 1)))
    return Bridge1dModel("bridge1d", vf, np.array([a]), np.array([a_prime]),
                         {"hurst": float(hurst)})


def elliptic_identity(n=3):
    """sigma = I_n: elliptic fixture for bracket-rank checks."""
    vf = polynomial_fields(np.eye(n))
    return Model("elliptic", vf, np.zeros(n), np.ones(n))


def from_file(path):
    """Polynomial system from JSON: {n, d, a, a_prime, const, lin?, quad?, drift_*?}."""
    with open(path) as fh:
        data = json.load(fh)
    try:
        n, d = int(data["n"]), int(data["d"])
        const = np.asarray(data["const"], float).reshape(n, d)
        lin = None if "lin" not in data else np.asarray(data["lin"], float).reshape(n, n, d)
        quad = None if "quad" not in data else np.asarray(data["quad"], float).reshape(n, n, n, d)
        dc = None if "drift_const" not in data else np.asarray(data["drift_const"], float)
        dl = None if "drift_lin" not in data else np.asarray(data["drift_lin"], float).reshape(n, n)
        dq = None if "drift_quad" not in data else np.asarray(
            data["drift_quad"], float).reshape(n, n, n)
        vf = polynomial_fields(const, lin, quad, dc, dl, dq)
        a = np.asarray(data["a"], float).reshape(n)
        ap = np.asarray(data["a_prime"], float).reshape(n)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad model file {path}: {exc}") from exc
    return Model(data.get("name", "user"), vf, a, ap, dict(data.get("params", {})))
