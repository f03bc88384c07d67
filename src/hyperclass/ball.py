"""Differentiable operations on the Poincare ball model of hyperbolic space.

Points are float64 arrays whose last axis holds the coordinates, with
Euclidean norm strictly below 1; after every constructing operation the
norm is clamped to <= 1 - EPS_BALL. Tangent vectors are plain float64
arrays of the same dimension.

`project_to_ball`, `distance`, `distance_grad`, `exp_map_origin`,
`exp_map_origin_vjp` and `log_map_origin` are batch-first: they take
`(..., d)` arrays, reduce over `axis=-1` and broadcast the leading axes,
the convention of the hyperbolic neural network ops of Ganea, Becigneul &
Hofmann (2018). `distance` returns a float for 1-D inputs. `mobius_add`,
`exp_map`, `log_map` and `conformal_factor` take single points; the
per-point Riemannian Adam of stage one calls them once per node.

The ball carries the conformal metric g_x = lambda_x^2 * I with
lambda_x = 2 / (1 - ||x||^2), which fixes curvature -1.
"""

from __future__ import annotations

import numpy as np

# Radial clamp: constructed points satisfy ||x|| <= 1 - EPS_BALL.
EPS_BALL = 1e-5
# Threshold below which norms are treated as exactly zero (analytic limits).
EPS_DIV = 1e-12

MAX_NORM = 1.0 - EPS_BALL


def _sqnorm(x: np.ndarray) -> np.ndarray:
    """Squared Euclidean norm over the last axis; a row of a batch gets the
    same bits as the row passed alone."""
    return np.vecdot(x, x)


def _scale_rows(scale: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Multiply each last-axis row of x by the matching entry of scale."""
    return scale[..., None] * x


def project_to_ball(p: np.ndarray) -> np.ndarray:
    """Retract finite (..., d) points onto the closed ball of radius 1 - EPS_BALL.

    Rows already inside are returned unchanged; anything else is rescaled
    radially. Non-finite input is rejected.
    """
    p = np.asarray(p, dtype=np.float64)
    if not np.isfinite(p).all():
        raise ValueError("point has non-finite components")
    norm = np.sqrt(_sqnorm(p))
    if (norm <= MAX_NORM).all():
        return p
    # Inside rows are scaled by exactly 1.0, outside rows by MAX_NORM / norm.
    return _scale_rows(MAX_NORM / np.maximum(norm, MAX_NORM), p)


def conformal_factor(x: np.ndarray) -> float:
    """lambda_x = 2 / (1 - ||x||^2); always >= 2 inside the ball."""
    sq = float(np.dot(x, x))
    return 2.0 / (1.0 - sq)


def mobius_add(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mobius addition x (+) y, re-projected into the ball.

    x (+) y = ((1 + 2<x,y> + ||y||^2) x + (1 - ||x||^2) y)
              / (1 + 2<x,y> + ||x||^2 ||y||^2)
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    xy = float(np.dot(x, y))
    x2 = float(np.dot(x, x))
    y2 = float(np.dot(y, y))
    num = (1.0 + 2.0 * xy + y2) * x + (1.0 - x2) * y
    den = 1.0 + 2.0 * xy + x2 * y2
    return project_to_ball(num / den)


def exp_map(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Exponential map at x: x (+) tanh(lambda_x ||v|| / 2) * v / ||v||.

    The zero-vector limit returns x itself.
    """
    v = np.asarray(v, dtype=np.float64)
    norm_v = float(np.linalg.norm(v))
    if norm_v < EPS_DIV:
        return np.array(x, dtype=np.float64, copy=True)
    t = np.tanh(0.5 * conformal_factor(x) * norm_v)
    return mobius_add(x, (t / norm_v) * v)


def log_map(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Logarithmic map at x, inverse of exp_map: returns a tangent vector at x.

    log_x(y) = (2 / lambda_x) * artanh(||-x (+) y||) * (-x (+) y) / ||-x (+) y||
    with the y = x limit defined as the zero vector.
    """
    x = np.asarray(x, dtype=np.float64)
    w = mobius_add(-x, y)
    norm_w = float(np.linalg.norm(w))
    if norm_w < EPS_DIV:
        return np.zeros_like(x)
    # artanh argument stays below 1 because mobius_add clamps into the ball.
    scale = (2.0 / conformal_factor(x)) * np.arctanh(min(norm_w, MAX_NORM)) / norm_w
    return scale * w


def _distance_terms(x: np.ndarray, y: np.ndarray):
    """Terms shared by distance and distance_grad; arg is the arcosh argument."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    diff = x - y
    a = _sqnorm(diff)
    b = 1.0 - _sqnorm(x)
    c = 1.0 - _sqnorm(y)
    arg = 1.0 + 2.0 * a / (b * c)
    return x, y, diff, a, b, c, arg


def distance(x: np.ndarray, y: np.ndarray) -> float | np.ndarray:
    """Geodesic distance: arcosh(1 + 2 ||x - y||^2 / ((1 - ||x||^2)(1 - ||y||^2))).

    Broadcasts over the leading axes of (..., d) inputs; two 1-D points
    give a float. The arcosh argument is clamped to >= 1 so cancellation
    near x == y yields 0 instead of NaN.
    """
    arg = _distance_terms(x, y)[-1]
    d = np.arccosh(np.maximum(arg, 1.0))
    return float(d) if d.ndim == 0 else d


def distance_grad(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Euclidean partial derivatives (dd/dx, dd/dy) of `distance`, both
    shaped like the broadcast of x and y.

    Where x == y (within EPS_DIV) the distance is not differentiable; the
    zero subgradient is returned for both arguments of that row.
    """
    x, y, diff, a, b, c, arg = _distance_terms(x, y)
    # d/du arcosh(u) = 1 / sqrt(u^2 - 1)
    root = np.sqrt(np.maximum(arg * arg - 1.0, 0.0))
    smooth = root >= EPS_DIV
    common = np.divide(4.0, b * c * root, out=np.zeros_like(root), where=smooth)
    gx = _scale_rows(common, diff + _scale_rows(a / b, x))
    gy = _scale_rows(common, _scale_rows(a / c, y) - diff)
    return gx, gy


def distance_from_origin(r: float) -> float:
    """Closed form d(0, x) = 2 artanh(||x||) for a point at radius r."""
    return 2.0 * float(np.arctanh(r))


def _row_norms(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(r, nonzero): norms over the last axis, with rows shorter than
    EPS_DIV flagged and their r set to 1 so divisions by r stay finite."""
    r = np.sqrt(_sqnorm(v))
    nonzero = r >= EPS_DIV
    return np.where(nonzero, r, 1.0), nonzero


def exp_map_origin(v: np.ndarray) -> np.ndarray:
    """exp_0(v) = tanh(||v||) * v / ||v|| for (..., d) tangent vectors at the
    origin; a zero row maps to the origin."""
    v = np.asarray(v, dtype=np.float64)
    r, nonzero = _row_norms(v)
    return project_to_ball(_scale_rows(np.where(nonzero, np.tanh(r) / r, 0.0), v))


def exp_map_origin_vjp(v: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Vector-Jacobian product of exp_map_origin: maps d/dp into d/dv, row by row.

    With s(r) = tanh(r)/r the Jacobian is s(r) I + (s'(r)/r) v v^T. The
    r -> 0 limit is the identity. The radial clamp in exp_map_origin only
    activates for tanh(r) > 1 - EPS_BALL (r > ~6), where the smooth part
    of the Jacobian is already ~1e-10; the clamp is treated as identity.
    """
    v = np.asarray(v, dtype=np.float64)
    grad_out = np.asarray(grad_out, dtype=np.float64)
    r, nonzero = _row_norms(v)
    t = np.tanh(r)
    s = np.where(nonzero, t / r, 1.0)
    # s'(r) / r = (sech^2(r) * r - tanh(r)) / r^3
    ds_over_r = np.where(nonzero, ((1.0 - t * t) * r - t) / (r * r * r), 0.0)
    return _scale_rows(s, grad_out) + _scale_rows(ds_over_r * np.vecdot(v, grad_out), v)


def log_map_origin(y: np.ndarray) -> np.ndarray:
    """log_0(y) = artanh(||y||) * y / ||y||, the inverse of exp_map_origin,
    for (..., d) points; rows outside the ball are projected first and a
    zero row maps to the zero vector. Equals log_map(0, y)."""
    w = project_to_ball(y)
    r, nonzero = _row_norms(w)
    return _scale_rows(np.where(nonzero, np.arctanh(np.minimum(r, MAX_NORM)) / r, 0.0), w)


def random_ball_point(rng: np.random.Generator, dim: int, max_radius: float) -> np.ndarray:
    """Uniform sample from the ball of the given radius (polar construction)."""
    direction = rng.standard_normal(dim)
    norm = np.linalg.norm(direction)
    if norm < EPS_DIV:
        return np.zeros(dim)
    radius = max_radius * rng.uniform() ** (1.0 / dim)
    return project_to_ball(direction * (radius / norm))
