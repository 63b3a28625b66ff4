"""Time evolution, distances to stationarity, and decay-rate fits.

Production trajectories come from one loop over the grid: the exact
exponential action of the generator until it agrees with the mode sum of a
spectral decomposition, and the mode sum after that.  The mode sum may take
over at t=0 only when an a-priori bound certifies it there as well.  Both
run in the real coordinates of the orthonormal Hermitian basis that the
decomposition was solved in.  The exact action is a truncated Taylor series
of the real sparse generator (Al-Mohy & Higham 2011), planned from one exact
1-norm per trajectory.  The mode sum runs block by block: one real product
per block and chunk of grid times, over one unit per real mode or conjugate
pair and only over the units whose terms are not yet below the rounding
floor of the full sum.  A trajectory stays in those coordinates: one real
row of ``rho(t) - rho_ss`` per grid time, whose Euclidean norm is the
distance and whose product with l2's coordinate row is the slow overlap, so
no state is formed; ``evolve_spectral_grid`` maps the same rows back through
the basis into exactly Hermitian states.  Decay fits start where the slow
mode's term dominates the rest of the mode sum (``fit_start``).  A
fixed-step fourth-order Runge-Kutta integrator, written directly with the
model operators, never touches either route and is kept as the independent
test oracle for both.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import norm as sparse_norm

from .errors import NotHermitian, NotNormalized, PoorFit, ShapeMismatch, WindowEmpty
from .linalg import as_matrix
from .spectral import SpectralDecomposition
from .superop import LindbladModel, build_liouvillian

RK4_STEP_FACTOR = 0.05
AGREEMENT_TOL = 1e-6

FIT_WINDOW_UNROTATED = (1e-1, 1e-4)
FIT_WINDOW_ROTATED = (1e-2, 1e-6)
FIT_R2_FLOOR = 0.99
FIT_START_FRACTION = 1e-2  # the rest of the mode sum over the slow term, at the fit's start

_MODE_SUM_CHUNK = 32  # grid times per mode-sum product
_UNIT_ROUNDOFF = np.finfo(float).eps / 2
# theta_m of Al-Mohy & Higham (2011), Table 3.1, for the unit roundoff:
# m Taylor terms reach it on steps of 1-norm at most theta_m
_TAYLOR_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3, 6: 9.07e-3, 7: 2.38e-2,
    8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1, 11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1,
    15: 6.41e-1, 16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44, 21: 1.62, 22: 1.82,
    23: 2.01, 24: 2.22, 25: 2.43, 26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54, 35: 4.7,
    40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing, non-negative, finite times."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("time grid needs at least two points")
        if not np.isfinite(pts).all():
            raise ValueError("time grid points must be finite")
        if pts[0] < 0 or np.any(np.diff(pts) <= 0):
            raise ValueError("time grid must be strictly increasing and start at t >= 0")
        object.__setattr__(self, "points", pts)

    @classmethod
    def linear(cls, t_start: float, t_stop: float, n: int) -> "TimeGrid":
        cls(points=[t_start, t_stop])  # the endpoints checked before numpy spaces them
        return cls(points=np.linspace(t_start, t_stop, n))

    @classmethod
    def geometric(
        cls, t_start: float, t_stop: float, n: int, include_zero: bool = False
    ) -> "TimeGrid":
        if t_start <= 0:
            raise ValueError("geometric grid needs t_start > 0")
        cls(points=[t_start, t_stop])  # the endpoints checked before numpy spaces them
        pts = np.geomspace(t_start, t_stop, n - 1 if include_zero else n)
        if include_zero:
            pts = np.concatenate([[0.0], pts])
        return cls(points=pts)


@dataclass(frozen=True)
class DecayFit:
    """Least-squares slope of log-distance over a distance window."""

    rate: float
    r_squared: float
    window: tuple
    t_start: float
    t_stop: float
    n_points: int

    @property
    def poor(self) -> bool:
        return self.r_squared < FIT_R2_FLOOR


@dataclass(frozen=True)
class TrajectoryRecord:
    times: np.ndarray
    distances: np.ndarray
    slow_overlaps: np.ndarray  # Tr(l_2 rho_t) along the trajectory
    source: str  # "spectral": mode sum from t=0 | "hybrid": exact action first
    handoff_time: Optional[float] = None  # first mode-sum time; None: never agreed
    exact_matvecs: int = 0  # generator products of the exact segment


def _check_density(rho, d: int, tol: float = 1e-10) -> np.ndarray:
    rho = as_matrix(rho)
    if rho.shape != (d, d):
        raise ShapeMismatch(f"state shape {rho.shape} does not match dimension {d}")
    if abs(np.trace(rho) - 1.0) > tol:
        raise NotNormalized(f"state trace {np.trace(rho):.12g} differs from 1 beyond {tol:g}")
    if float(np.max(np.abs(rho - rho.conj().T))) > tol:
        raise NotHermitian(f"state is not Hermitian within {tol:g}")
    return rho


def evolve_spectral_grid(dec: SpectralDecomposition, rho0, grid: TimeGrid) -> np.ndarray:
    """Stack of states at all grid times, summed block by block in real Hermitian coordinates.

    The rows of ``_mode_sum_rows`` plus the stationary term
    ``Tr(l_1 rho0) r_1``, mapped back by ``HermitianModes.hermitian`` into
    exactly Hermitian states.  Nothing is kept between calls.
    """
    rho0 = _check_density(rho0, dec.dim)
    rows = _mode_sum_rows(dec, _coefficients(dec, dec.packed.coordinates(rho0)), grid.points)
    rows += _stationary_term(dec, rho0)
    return dec.packed.hermitian(rows)


def _stationary_term(dec: SpectralDecomposition, rho0: np.ndarray) -> np.ndarray:
    return dec.packed.stationary * np.einsum("ij,ji->", dec.leading_left[0], rho0).real


def _mode_sum_rows(dec: SpectralDecomposition, coefficients: list, times: np.ndarray) -> np.ndarray:
    """Coordinates of ``rho(t) - Tr(rho0) rho_ss``, one row per time.

    Sums ``sum_{k>1} exp(t lam_k) Tr(l_k rho0) r_k`` on the packed modes of
    ``dec.packed``, in its coordinate layout, from the ``_coefficients`` of
    ``rho0``.  A unit, a real mode or a conjugate pair, has the coefficient
    ``z = c e^{lam t} = P + iQ``, and the float view of a chunk's
    coefficients meets each unit's two real rows (a real mode's Q is 0 and so
    is its second row).  So every block writes one real product per chunk of
    grid times straight into its slice of the chunk's rows, over the prefix
    of its units that ``_active_prefix`` counts at the chunk's first time.
    """
    plan = dec.packed
    starts = times[::_MODE_SUM_CHUNK]
    terms = [
        (coords, lam, right, c, _active_prefix(weight, lam.real, starts))
        for (coords, lam, _, right, _), (c, weight) in zip(plan.blocks, coefficients)
    ]
    rows = np.empty((times.size, plan.stationary.size))
    for k, start in enumerate(range(0, times.size, _MODE_SUM_CHUNK)):
        t = times[start : start + _MODE_SUM_CHUNK]
        for coords, lam, right, c, prefix in terms:
            u = prefix[k]
            z = np.exp(np.outer(t, lam[:u]))
            z *= c[:u]
            # zeros when u == 0
            np.matmul(z.view(float), right[: 2 * u], out=rows[start : start + t.size, coords])
    return rows


def _coefficients(dec: SpectralDecomposition, x: np.ndarray) -> list:
    """Per block: ``c_u = Tr(l_u rho0)`` and ``|c_u| peak_u``, from the coordinates x of rho0."""
    out = []
    for coords, _, left, _, peak in dec.packed.blocks:
        c = (left @ x[coords]).view(complex)
        out.append((c, np.abs(c) * peak))
    return out


def _active_prefix(weight: np.ndarray, rate: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Fewest leading units whose dropped tail is within ``u`` of the bound, per chunk start.

    With weights ``w_k = |c_k| peak_k`` (see ``HermitianModes``; a pair is
    one unit, so no count splits it), the tail of units whose bound
    ``tail_n(t) = sum_{j>=n} w_j exp(t Re lam_j)`` is at most ``u`` (the unit
    roundoff) times the block's whole bound ``tail_0(t)`` is dropped.  That
    is the a-priori rounding bound of the untruncated sum, so the truncation
    stays at the rounding floor; at t=0 it can drop only a tail whose weights
    are themselves at that floor.

    The count is taken at each chunk's first time only, and that is the same
    bound at every later time of the chunk: the units are sorted by
    ``|Re lam|`` and every non-stationary ``Re lam <= 0``, so the tail's rates
    are no larger than the head's, ``tail_n / (tail_0 - tail_n)`` does not
    increase with t, and neither does ``tail_n(t) / tail_0(t)``.  A prefix
    that is enough at a chunk's first time is enough for the whole chunk.
    """
    terms = weight * np.exp(np.outer(starts, rate))
    tail = np.cumsum(terms[:, ::-1], axis=1)[:, ::-1]  # tail[:, n] = sum_{j>=n}
    return (tail > _UNIT_ROUNDOFF * tail[:, :1]).sum(axis=1)


def _lindblad_rhs(h: np.ndarray, jumps, rho: np.ndarray) -> np.ndarray:
    out = -1j * (h @ rho - rho @ h)
    for l_op in jumps:
        ld = l_op.conj().T
        ldl = ld @ l_op
        out += l_op @ rho @ ld - 0.5 * (ldl @ rho + rho @ ldl)
    return out


def integrator_step_bound(model: LindbladModel) -> float:
    """Largest stable RK4 step: 0.05 over the generator's infinity norm."""
    gen = build_liouvillian(model).matrix
    return RK4_STEP_FACTOR / float(sparse_norm(gen, np.inf))


def evolve_integrator(model: LindbladModel, rho0, grid: TimeGrid) -> np.ndarray:
    """Fixed-step RK4 integration of the master equation, one state per grid time.

    The right-hand side is evaluated directly from the model operators; the
    step size is the stability bound subdivided to land exactly on every grid
    point, so a given (model, state, grid) is bitwise reproducible.
    """
    d = model.dim
    rho = _check_density(rho0, d).copy()
    h_max = integrator_step_bound(model)
    h_op = model.hamiltonian
    jumps = model.jumps
    out = np.empty((grid.points.size, d, d), dtype=complex)
    t_prev = grid.points[0]
    if t_prev > 0:
        _integrate_interval(h_op, jumps, rho, 0.0, t_prev, h_max)
    out[0] = rho
    for i in range(1, grid.points.size):
        _integrate_interval(h_op, jumps, rho, t_prev, grid.points[i], h_max)
        out[i] = rho
        t_prev = grid.points[i]
    return out


def _integrate_interval(h_op, jumps, rho, t0, t1, h_max):
    span = t1 - t0
    n_steps = max(1, int(np.ceil(span / h_max)))
    h = span / n_steps
    for _ in range(n_steps):
        k1 = _lindblad_rhs(h_op, jumps, rho)
        k2 = _lindblad_rhs(h_op, jumps, rho + 0.5 * h * k1)
        k3 = _lindblad_rhs(h_op, jumps, rho + 0.5 * h * k2)
        k4 = _lindblad_rhs(h_op, jumps, rho + h * k3)
        rho += (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def hs_distance(rho, sigma):
    """Hilbert-Schmidt (Frobenius) distance sqrt(Tr[(rho - sigma)^2]).

    ``rho`` and ``sigma`` are square matrices or stacks ``(..., d, d)`` of
    them that broadcast against each other; two matrices give a float, stacks
    an array of distances.  Both must be finite and Hermitian within 1e-8.
    Trajectories do not come here: ``_record`` takes their distances from
    coordinate rows.
    """
    rho, sigma = np.asarray(rho, dtype=complex), np.asarray(sigma, dtype=complex)
    for m in (rho, sigma):
        if m.ndim < 2 or m.shape[-1] < 1 or m.shape[-2] < 1:
            raise ShapeMismatch(f"expected a matrix or a stack of matrices, got shape {m.shape}")
    if rho.shape[-2:] != sigma.shape[-2:] or rho.shape[-1] != rho.shape[-2]:
        raise ShapeMismatch(
            f"shapes {rho.shape} and {sigma.shape} are not matching square matrices"
        )
    for name, m in (("rho", rho), ("sigma", sigma)):
        # the defect is nan or inf if m is not finite
        if not float(np.max(np.abs(m - m.conj().swapaxes(-1, -2)))) <= 1e-8:
            if not np.isfinite(m).all():
                raise ValueError(f"{name} contains non-finite entries")
            raise NotHermitian(f"{name} is not Hermitian within 1e-8")
    diff = np.ascontiguousarray(rho - sigma)
    flat = diff.view(float).reshape(*diff.shape[:-2], -1)
    dist = np.sqrt(np.einsum("...i,...i->...", flat, flat))
    return float(dist) if diff.ndim == 2 else dist


def fit_decay_rate(
    times: np.ndarray, distances: np.ndarray, window: tuple
) -> DecayFit:
    """|slope| of log-distance over the longest contiguous run inside ``window``.

    ``window = (hi, lo)`` selects times with ``lo <= E_t <= hi``.  A fit with
    R^2 below 0.99 is reported with a ``PoorFit`` warning, not an error.
    """
    hi, lo = window
    if not (hi > lo > 0):
        raise ValueError(f"window must satisfy hi > lo > 0, got {window}")
    times = np.asarray(times, dtype=float)
    distances = np.asarray(distances, dtype=float)
    idx = np.flatnonzero((distances <= hi) & (distances >= lo))
    if idx.size < 2:
        raise WindowEmpty(f"fewer than two trajectory points inside window {window}")
    runs = np.split(idx, np.flatnonzero(np.diff(idx) != 1) + 1)
    run = max(runs, key=len)
    if run.size < 2:
        raise WindowEmpty(f"no contiguous run of two points inside window {window}")
    tt = times[run]
    log_e = np.log(distances[run])
    design = np.vstack([tt, np.ones_like(tt)]).T
    sol, *_ = np.linalg.lstsq(design, log_e, rcond=None)
    resid = log_e - design @ sol
    ss_tot = float(np.sum((log_e - log_e.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    fit = DecayFit(
        rate=float(abs(sol[0])),
        r_squared=r2,
        window=(float(hi), float(lo)),
        t_start=float(tt[0]),
        t_stop=float(tt[-1]),
        n_points=int(run.size),
    )
    if fit.poor:
        warnings.warn(
            f"decay fit R^2 = {r2:.4f} below {FIT_R2_FLOOR}", PoorFit, stacklevel=2
        )
    return fit


def _record(dec, rows, grid, source, handoff, matvecs) -> TrajectoryRecord:
    """Distances and slow overlaps reduced from the coordinate rows of ``rho(t) - rho_ss``."""
    plan = dec.packed
    dists = plan.norms(rows)
    if not np.isfinite(dists).all():
        raise ValueError("trajectory contains non-finite entries")
    ell = plan.trace_row(dec.leading_left[1])
    pair = np.stack([ell.real, ell.imag], axis=1)  # one real product for Re and Im
    overlaps = (rows @ pair).view(complex)[:, 0] + ell @ plan.stationary
    return TrajectoryRecord(
        times=grid.points.copy(),
        distances=dists,
        slow_overlaps=overlaps,
        source=source,
        handoff_time=handoff,
        exact_matvecs=matvecs,
    )


def _real_generator(dec: SpectralDecomposition):
    """``(A, mu, |A|_1)``: the real generator of ``dec.packed``, less ``mu I``.

    ``mu`` is the mean of the diagonal, the shift of Al-Mohy & Higham that
    lowers the 1-norm the Taylor steps are planned from.
    """
    a = dec.packed.generator
    mu = float(a.diagonal().mean())
    a = a - mu * sp.identity(a.shape[0], format="csr")
    return a, mu, float(abs(a).sum(axis=0).max())


def _taylor_action(generator, x: np.ndarray, h: float):
    """``e^{h (A + mu)} x`` and the products with A that it took (Al-Mohy & Higham 2011).

    ``generator`` is ``_real_generator``'s triple.  Of the degrees m of
    ``_TAYLOR_THETA`` the step takes the one that needs the fewest products
    m s, with ``s = ceil(h |A|_1 / theta_m)`` substeps; each substep stops
    its series once two successive terms fall below the unit roundoff of the
    sum, and is scaled by ``e^{mu h / s}``.
    """
    a, mu, norm = generator
    m, s = min(((m, max(1, math.ceil(h * norm / theta))) for m, theta in _TAYLOR_THETA.items()),
               key=lambda ms: ms[0] * ms[1])
    eta, products = math.exp(mu * h / s), 0
    for _ in range(s):
        b, c1 = x, np.abs(x).max()
        for j in range(1, m + 1):
            b = (h / (s * j)) * (a @ b)
            products += 1
            c2 = np.abs(b).max()
            x = x + b
            if c1 + c2 <= _UNIT_ROUNDOFF * np.abs(x).max():
                break
            c1 = c2
        x = eta * x
    return x, products


def robust_trajectory(
    model: LindbladModel,
    dec: SpectralDecomposition,
    rho0,
    grid: TimeGrid,
) -> TrajectoryRecord:
    """Trajectory that is valid at every grid time, even on hard eigenbases.

    The mode sum is exact once the ill-conditioned fast modes have decayed,
    but near t=0 its reconstruction defect can be large when the eigenvector
    basis is close to defective.  One loop walks the grid from its first
    point, carrying the exact state: rho0 itself at t=0, and after that the
    exact exponential action of ``dec.packed.generator``, so no generator is
    built here.  ``model`` is unread, kept for callers that pass it by
    position.  At the first grid time where the exact state and the mode sum
    agree to ``AGREEMENT_TOL``, the mode sum takes over; the agreement check
    makes the handoff self-validating.

    The trajectory is held as one real array of rows of ``rho(t) - rho_ss``
    in the basis coordinates of ``HermitianModes``: the mode sum's rows as
    ``_mode_sum_rows`` writes them, and before the handoff the exact rows.
    The exact state is propagated in those coordinates, where it cannot
    leave the Hermitian matrices: ``_real_generator`` is built on the first
    exact step only, and each grid interval is one ``_taylor_action``;
    ``exact_matvecs`` counts its products.  Only the difference of the two
    rows at a time before the handoff is mapped back to a matrix, for the
    max-abs agreement check.  The basis is orthonormal, so the distances are
    the Euclidean norms of the rows, and must be finite; the slow overlaps
    are one product with l2's coordinate row.  A mode-sum distance leaves out
    the trace defect ``(Tr rho0 - 1) rho_ss`` of the state, at most 1e-10 of
    ``|rho_ss|`` by the check of ``rho0``.

    At t=0 the measured defect alone is rounding noise on a hard basis, so
    the mode sum is taken there only when the a-priori bound agrees too:
    ``biorthonormality_residual * W0 <= AGREEMENT_TOL``, with ``W0`` the sum
    of the weights ``|c_u| peak_u`` that ``_active_prefix`` starts from.  On
    dicke N=20, on the N=40 dicke rotated state (whose defect alone is 2.5x
    above the threshold) and on the all-to-all N=20 rotated state (bound
    2.2e-8) that bound sits at least 20x from it.  A handoff at t=0 gives
    ``source`` "spectral" and ``handoff_time`` 0.0, and means that it was
    certified there; a later one gives "hybrid".  A grid that ends before
    the two routes agree keeps the exact states throughout and has
    ``handoff_time`` None.
    """
    rho0 = _check_density(rho0, dec.dim)
    plan = dec.packed
    x = plan.coordinates(rho0)
    coefficients = _coefficients(dec, x)
    rows = _mode_sum_rows(dec, coefficients, grid.points)
    stationary = _stationary_term(dec, rho0)
    weight = sum(float(w.sum()) for _, w in coefficients)
    certified = dec.diagnostics.biorthonormality_residual * weight <= AGREEMENT_TOL
    t_prev, handoff = 0.0, None
    generator, matvecs = None, 0
    for i, t in enumerate(grid.points):
        if t > t_prev:
            generator = generator or _real_generator(dec)
            x, products = _taylor_action(generator, x, t - t_prev)
            t_prev, matvecs = t, matvecs + products
        agreed = (t > 0 or certified) and float(np.max(np.abs(
            plan.hermitian(rows[i : i + 1] + stationary - x)))) <= AGREEMENT_TOL
        rows[i] = x - plan.stationary
        if agreed:
            handoff = float(t)
            break
    source = "spectral" if handoff == 0.0 else "hybrid"
    return _record(dec, rows, grid, source, handoff, matvecs)


def fit_start(dec: SpectralDecomposition, rho0, grid: TimeGrid, slow: int) -> Optional[float]:
    """First grid time at which the slow mode's term dominates the rest of the mode sum.

    With the weights ``w_u = |c_u| peak_u`` of ``_coefficients``, that is
    the first time t with ``sum_{u != s} w_u e^{Re lam_u t} <=
    FIT_START_FRACTION w_s e^{Re lam_s t}``, where s is the unit of mode
    ``slow``: 1 for lambda_2, 2 for lambda_3, whose conjugate partner shares
    its unit.  None if no grid time qualifies, as for a state without
    overlap with the slow mode.
    """
    lam = dec.eigenvalues
    target = lam[slow] if lam[slow].imag >= 0 else np.conj(lam[slow])
    t = grid.points
    rest, own = np.zeros(t.size), np.zeros(t.size)
    x = dec.packed.coordinates(_check_density(rho0, dec.dim))
    for modes, (_, lam_u, *_), (_, w) in zip(dec.blocks, dec.packed.blocks, _coefficients(dec, x)):
        if slow in modes:
            u = int(np.flatnonzero(lam_u == target)[0])
            own = w[u] * np.exp(lam_u[u].real * t)
            w = w.copy()
            w[u] = 0.0
        rest += np.exp(np.outer(t, lam_u.real)) @ w
    qualifies = (rest <= FIT_START_FRACTION * own) & (own > 0)
    return float(t[np.argmax(qualifies)]) if qualifies.any() else None


def find_plateau(
    times: np.ndarray,
    values: np.ndarray,
    span: float,
    max_rel_variation: float = 0.10,
) -> Optional[tuple[int, int]]:
    """Earliest flat stretch of length >= span, extended while it stays flat.

    Returns ``(i, j)`` with ``times[j] >= times[i] + span`` and
    ``(max - min)/max < max_rel_variation`` over ``values[i:j+1]``, where j is
    pushed as far right as the variation bound allows; None if no window of
    the minimum span qualifies.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)

    def flat(i, j):
        seg = values[i : j + 1]
        top = float(np.max(seg))
        return top > 0 and (top - float(np.min(seg))) / top < max_rel_variation

    for i in range(times.size):
        j = int(np.searchsorted(times, times[i] + span))
        if j >= times.size:
            return None
        if flat(i, j):
            while j + 1 < times.size and flat(i, j + 1):
                j += 1
            return i, j
    return None
