"""Damped Newton ascent, shared by the Cox and the recalibration fits."""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

LL_SLACK = 1e-12  # relative loss in log likelihood a Newton step may show


def newton_ascent(
    objective: Callable[[np.ndarray], tuple[float, np.ndarray, np.ndarray]],
    theta0: np.ndarray,
    start: tuple[float, np.ndarray, np.ndarray],
    *, tol: float, max_iter: int, max_halvings: int, bound: float,
    error: type[Exception], singular: str, escaped: str,
) -> tuple[np.ndarray, float, int, bool]:
    """Maximize a concave log likelihood from ``theta0`` by damped Newton steps.

    ``objective(theta)`` returns the log likelihood, its gradient and the
    information matrix (minus the Hessian); ``start`` is ``objective(theta0)``.
    Returns ``(theta, ll, iterations, converged)``.

    Before each step the fit stops as converged when the gradient is exactly
    zero, or when the Newton decrement grad' info^-1 grad / 2, the rise in
    log likelihood one more step predicts whatever the units of theta (Boyd
    & Vandenberghe 2004, Convex Optimization, section 9.5), is below ``tol``,
    or is too small to change the log likelihood and no smaller than the
    decrement before the previous step: the gradient is then rounding noise.
    A singular information matrix raises ``error(singular)``.

    A step is halved until its log likelihood is at most
    ``LL_SLACK * max(1, |ll|)`` below the current one, since rounding in sums
    over subjects can make a good step read as a small loss; after
    ``max_halvings`` tries the last candidate is taken as it is. So the log
    likelihood can fall by up to that slack on any step, and by any amount
    once the halvings run out. A coefficient past ``bound`` after a step
    raises ``error``, with ``escaped`` as the reason: the likelihood is still
    climbing towards an infinite estimate. After ``max_iter`` steps the fit
    stops unconverged.
    """
    theta = theta0
    ll, grad, info = start
    last_decrement = math.inf
    for iteration in range(max_iter):
        if not grad.any():
            return theta, ll, iteration, True
        try:
            step = np.linalg.solve(info, grad)
        except np.linalg.LinAlgError:
            raise error(singular) from None
        decrement = grad @ step / 2
        if decrement < tol or (ll + decrement == ll and decrement >= last_decrement):
            return theta, ll, iteration, True
        last_decrement = decrement
        slack = LL_SLACK * max(1.0, abs(ll))
        scale = 1.0
        for _ in range(max_halvings):
            cand = theta + scale * step
            cand_ll, cand_grad, cand_info = objective(cand)
            if cand_ll >= ll - slack:
                break
            scale *= 0.5
        theta, ll, grad, info = cand, cand_ll, cand_grad, cand_info
        if np.max(np.abs(theta)) > bound:
            raise error(
                f"coefficient escaped past {bound} with likelihood still increasing; {escaped}"
            )
    return theta, ll, max_iter, False
