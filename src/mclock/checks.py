"""The three facts ``mclock check`` verifies, as numbers and verdicts.

The premeasurement reaches the model's declared fidelity, the happened
operator M is a projector, and dP/dt = p on the scenario's grid. Each check
yields ``(name, passed, parts)``; each part is a tuple ``(kind, *numbers)``
that ``cli`` words as one clause. Only ``check`` loads this module.
"""

import numpy as np

from .dynamics import trajectory
from .measurement import premeasurement_check
from .tolerances import TOL


def run_checks(spec, model, branches):
    """Yield (name, passed, parts) for each check of a scenario's model and start, in order.

    ``spec`` is the parsed ``ScenarioSpec``; ``model`` and ``branches`` are what
    ``build_model`` and ``initial_state`` make of it.
    """
    worst = float(premeasurement_check(model).min())
    threshold = model.fidelity - TOL.premeasurement_check
    yield "premeasurement", worst >= threshold, [("fidelity", worst, model.fidelity)]

    # M = V V^H for the pairs V = |a_i>|o_i> is Hermitian by construction, and
    # M^2 - M = V (G - I) V^H with G = (A^H A) o (O^H O): a projector iff G = I.
    a = model.system_frame
    o = model.pointer_frame[:, 1:]
    gram = (a.conj().T @ a) * (o.conj().T @ o)
    dev = float(np.max(np.abs(gram - np.eye(model.n_outcomes))))
    tol = TOL.projector_check
    yield "projector idempotence", dev < tol, [("gram", dev, tol)]

    traj = trajectory(model, branches, spec.grid)
    step = spec.grid.step
    # The tolerance is in units of g, as p is. Central-difference truncation
    # grows like |P'''| h^2 / 6 <= (2/3) g^3 h^2 for these models, so it widens
    # on coarse grids. Products, not powers: a float power that overflows raises.
    g = spec.coupling_g
    widening = (g * step) * (g * step)
    widened = widening > TOL.derivative_check
    tol = g * max(TOL.derivative_check, widening)
    # Three-point derivative on the stored times, which rounding spaces
    # unevenly far from t = 0: the spacings are a h and b h. Differencing t
    # before dividing by h keeps the spacings; a and b near 1 cannot underflow.
    t, prob = traj.grid.times, traj.prob_happened
    dt = np.diff(t)
    k = int(np.argmin(dt))
    if t[k + 1] == t[k]:  # a zero spacing leaves the derivative undefined
        yield "derivative identity", False, [("coincide", k, k + 1, t[k])]
        return
    a, b = dt[:-1] / step, dt[1:] / step
    diffs = (a * a * prob[2:] - b * b * prob[:-2] + (b * b - a * a) * prob[1:-1]) / (
        a * b * (a + b) * step
    )
    err = float(np.max(np.abs(diffs - traj.rate[1:-1])))
    parts = [("derivative", err, tol)]
    if widened:
        parts.append(("widened", step))
    # Each phase lambda t is rounded to about |lambda t| 2^-52 radians.
    phase_error = float(np.max(np.abs(model.branch_spectra.eigenvalues))) * float(
        np.max(np.abs(t))) * 2.0**-52
    if not err < tol and phase_error > TOL.derivative_check:
        parts.append(("phases", phase_error))
    # Any pair of curves misses by at most max|dP/dt| + max|p|; a tolerance
    # that is not below that bound tests nothing.
    bound = float(np.max(np.abs(diffs)) + np.max(np.abs(traj.rate[1:-1])))
    tested = tol < bound
    if not tested:
        parts.append(("coarse" if widened else "small", bound))
    yield "derivative identity", tested and err < tol, parts
