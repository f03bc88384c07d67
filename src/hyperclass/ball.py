"""Differentiable operations on the Poincare ball model of hyperbolic space.

Points are float64 arrays whose last axis holds the coordinates, with
Euclidean norm strictly below 1; after every constructing operation the
norm is clamped to <= 1 - EPS_BALL. Tangent vectors are plain float64
arrays of the same dimension.

Every operation is batch-first: it takes `(..., d)` arrays, reduces over
`axis=-1` and broadcasts the leading axes, the convention of the
hyperbolic neural network ops of Ganea, Becigneul & Hofmann (2018). One
point against many, or row against row, is a single call. `distance`
returns a float for 1-D inputs.

The ball carries the conformal metric g_x = lambda_x^2 * I with
lambda_x = 2 / (1 - ||x||^2), which fixes curvature -1. Between points
inside the ball the distance's arcosh argument,
1 + 2 ||x - y||^2 / ((1 - ||x||^2)(1 - ||y||^2)), is at least 1 in
float64, so every distance kernel takes it unclamped.

Representations enter the ball through exp_map_origin and leave it for
the tangent export through log_map_origin. Stage one has two kernels:
distance_vjp, the distances of each parent to its pairs and their VJP,
and exp_map at a general point, the retraction through which its Adam
steps (Riemannian Adam), with the Mobius addition in closed form. Stage
two's distance weight, exp_origin_distance_vjp, takes the same `_terms`
and `_slope` on (B, d) rows, one pair per row with the frozen label as
the second point, and chains the gradient of the point through exp_0. A
norm that overflows float64 raises NumericalError rather than returning
a point that did not move.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from .errors import NumericalError

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


def _row_norms(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(r, nonzero): norms over the last axis, with rows shorter than
    EPS_DIV flagged and their r set to 1 so divisions by r stay finite.

    A row whose norm is inf (an inf component, or a squared norm past
    float64's range, from a norm of about 1.3e154) raises NumericalError:
    tanh(r) / r would be 0 there, which turns the row into a silent zero.
    """
    r = np.sqrt(_sqnorm(v))
    if np.isinf(r).any():
        raise NumericalError("vector has a non-finite norm")
    nonzero = r >= EPS_DIV
    return np.where(nonzero, r, 1.0), nonzero


def project_to_ball(p: np.ndarray) -> np.ndarray:
    """Retract finite (..., d) points onto the closed ball of radius 1 - EPS_BALL.

    Rows already inside are returned unchanged; anything else is rescaled
    radially. A row whose norm is not finite (a non-finite component, or a
    squared norm past float64's range) raises NumericalError, where
    rescaling would return the origin.
    """
    p = np.asarray(p, dtype=np.float64)
    norm = np.sqrt(_sqnorm(p))
    # A non-finite row has a nan or inf norm, so it never passes this test.
    if (norm <= MAX_NORM).all():
        return p
    if not np.isfinite(norm).all():
        raise NumericalError("point has a non-finite norm")
    # Inside rows are scaled by exactly 1.0, outside rows by MAX_NORM / norm.
    return _scale_rows(MAX_NORM / np.maximum(norm, MAX_NORM), p)


def riemannian_grad(x: np.ndarray, euclid_grad: np.ndarray) -> np.ndarray:
    """Rescale Euclidean gradients at (..., d) points x by the inverse metric:
    g_x = lambda_x^2 I, so g^-1 grad = grad * (1 - ||x||^2)^2 / 4."""
    x2 = _sqnorm(np.asarray(x, dtype=np.float64))
    return _scale_rows((1.0 - x2) ** 2 / 4.0, euclid_grad)


def exp_map(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Exponential map at x: x (+) u with u = tanh(lambda_x ||v|| / 2) * v / ||v||,
    row by row, where lambda_x = 2 / (1 - ||x||^2) and (+) is Mobius addition.

    Mobius addition x (+) u = ((1 + 2<x,u> + ||u||^2) x + (1 - ||x||^2) u)
    / (1 + 2<x,u> + ||x||^2 ||u||^2) is taken in closed form from three
    row scalars, ||x||^2, <x,v> and ||v||: with t = ||u|| and u = (t / ||v||) v,
    the result is one weighted sum of x and v, projected into the ball. A
    zero row of v returns the matching point of x.
    """
    x = np.asarray(x, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    r, nonzero = _row_norms(v)
    x2 = _sqnorm(x)
    b = 1.0 - x2
    # t = ||u||, with lambda_x / 2 = 1 / (1 - ||x||^2); u = s v.
    t = np.where(nonzero, np.tanh(r / b), 0.0)
    s = t / r
    t2 = t * t
    # 1 + 2<x,u>, shared by the numerator and the denominator.
    a = 1.0 + 2.0 * s * np.vecdot(x, v)
    den = a + x2 * t2
    return project_to_ball(_scale_rows((a + t2) / den, x) + _scale_rows(b * s / den, v))


def _terms(x: np.ndarray, y: np.ndarray):
    """The shared terms of d(x, y) over broadcast (..., d) rows: x - y,
    a = ||x - y||^2, b = 1 - ||x||^2, c = 1 - ||y||^2, bc and the arcosh
    argument 1 + 2 a / bc."""
    diff = x - y
    a = _sqnorm(diff)
    b = 1.0 - _sqnorm(x)
    c = 1.0 - _sqnorm(y)
    bc = b * c
    return diff, a, b, c, bc, 1.0 + 2.0 * a / bc


def _slope(arg: np.ndarray, bc: np.ndarray) -> np.ndarray:
    """4 / (bc sqrt(arg^2 - 1)), the factor shared by both partials of the
    distance (d/du arcosh(u) = 1 / sqrt(u^2 - 1)); 0 where the root is
    below EPS_DIV, where x == y and the distance is not differentiable.
    The mask multiplies the numerator and the root is floored at EPS_DIV,
    so no masked divide is needed; a NaN arg gives NaN. Inside the ball
    arg >= 1, so the root's argument is never negative."""
    root = np.sqrt(arg * arg - 1.0)
    return (root >= EPS_DIV) * 4.0 / (bc * np.maximum(root, EPS_DIV))


def distance(x: np.ndarray, y: np.ndarray) -> float | np.ndarray:
    """Geodesic distance: arcosh(1 + 2 ||x - y||^2 / ((1 - ||x||^2)(1 - ||y||^2))).

    Broadcasts over the leading axes of (..., d) inputs; two 1-D points
    give a float. The arcosh argument is exactly 1 at x == y, which gives
    exactly 0, and above 1 elsewhere inside the ball.
    """
    arg = _terms(np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64))[-1]
    d = np.arccosh(arg)
    return float(d) if d.ndim == 0 else d


def distance_vjp(
    x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]]:
    """(d, vjp): the (B, K) distances d[i, j] = distance(x[i], y[i, j]) of
    (B, 1, d) points x against (B, K, d) points y, and vjp(g), which maps
    a (B, K) cotangent g on d to (gx, gy): gx, shaped like x, is
    sum_j g[i, j] dd[i, j]/dx[i], and gy, shaped like y, is g * dd/dy.

    With a = ||x - y||^2, b = 1 - ||x||^2, c = 1 - ||y||^2 and
    w = g * 4 / (b c sqrt(arg^2 - 1)) for the arcosh argument arg,
    gx = sum_j w_j (x - y_j) + (sum_j w_j a_j / b) x is one matmul over
    the pair axis plus a (B, d) term, so no (B, K, d) partial of x is
    built, and gy = w ((a / c) y - (x - y)). A pair with x == y (within
    EPS_DIV) contributes the zero subgradient, as in `distance`.
    """
    diff, a, b, c, bc, arg = _terms(x, y)
    d = np.arccosh(arg)

    def vjp(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        w = g * _slope(arg, bc)
        gx = np.matmul(w[:, None, :], diff) + _scale_rows(np.vecdot(w, a / b)[:, None], x)
        return gx, _scale_rows(w * (a / c), y) - _scale_rows(w, diff)

    return d, vjp


def exp_map_origin(v: np.ndarray) -> np.ndarray:
    """exp_0(v) = tanh(||v||) * v / ||v|| for (..., d) tangent vectors at the
    origin; a zero row maps to the origin."""
    return _exp_map_origin(np.asarray(v, dtype=np.float64))[0]


def log_map_origin(y: np.ndarray) -> np.ndarray:
    """log_0(y) = artanh(||y||) * y / ||y|| for (..., d) points, inverse of
    exp_map_origin; rows outside the ball are first clamped onto it, and a
    zero row maps to the zero vector."""
    y = project_to_ball(y)
    r, nonzero = _row_norms(y)
    # artanh argument stays below 1 because project_to_ball clamps into the ball.
    return _scale_rows(np.where(nonzero, np.arctanh(np.minimum(r, MAX_NORM)) / r, 0.0), y)


def _exp_map_origin(v: np.ndarray):
    """(exp_0(v), and the row terms (r, nonzero, tanh(r)) its VJP reuses)."""
    r, nonzero = _row_norms(v)
    t = np.tanh(r)
    return project_to_ball(_scale_rows(np.where(nonzero, t / r, 0.0), v)), (r, nonzero, t)


def exp_origin_distance_vjp(
    v: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """(d, vjp): the (B,) distances d[i] = distance(exp_map_origin(v[i]), y[i])
    of (B, d) tangent vectors v against frozen (B, d) points y, and vjp(g),
    which maps a (B,) cotangent g to the (B, d) gradient g * dd/dv.

    With z = exp_0(v), d and dd/dz come from `_terms` and `_slope` on the
    (B, d) rows, the expressions of `distance_vjp` with one pair per row:
    w = g * 4 / (b c sqrt(arg^2 - 1)) and dz = w (z - y) + w (a / b) z,
    with no gradient of y. The row norms and tanh of v serve both exp_0
    and its Jacobian s(r) I + (s'(r)/r) v v^T, s(r) = tanh(r)/r, which is
    the identity as r -> 0. Past the radial clamp (tanh(r) > MAX_NORM,
    r > ~6.1) exp_0 is MAX_NORM v / r: tanh is MAX_NORM there, slope 0.
    """
    v = np.asarray(v, dtype=np.float64)
    z, (r, nonzero, t) = _exp_map_origin(v)
    diff, a, b, _, bc, arg = _terms(z, y)
    dt = np.where(t > MAX_NORM, 0.0, 1.0 - t * t)
    t = np.minimum(t, MAX_NORM)
    s = np.where(nonzero, t / r, 1.0)
    # s'(r) / r = (tanh'(r) * r - tanh(r)) / r^3
    ds_over_r = np.where(nonzero, (dt * r - t) / (r * r * r), 0.0)

    def vjp(g: np.ndarray) -> np.ndarray:
        w = g * _slope(arg, bc)
        dz = _scale_rows(w, diff) + _scale_rows(w * (a / b), z)
        return _scale_rows(s, dz) + _scale_rows(ds_over_r * np.vecdot(v, dz), v)

    return np.arccosh(arg), vjp


def random_ball_point(rng: np.random.Generator, dim: int, max_radius: float) -> np.ndarray:
    """Uniform sample from the ball of the given radius (polar construction)."""
    direction = rng.standard_normal(dim)
    norm = np.linalg.norm(direction)
    if norm < EPS_DIV:
        return np.zeros(dim)
    radius = max_radius * rng.uniform() ** (1.0 / dim)
    return project_to_ball(direction * (radius / norm))
