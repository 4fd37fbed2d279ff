"""Matrix-geometric (Neuts) solution of the MMPP/M/1 queue.

Feeding an MMPP into a single exponential server yields a quasi-birth-death
process: the *level* is the number of customers ``z`` and the *phase* is the
modulating state.  Neuts' matrix-geometric method — the paper's reference
[15] — expresses the stationary distribution as ``pi_z = pi_0 R^z`` where the
rate matrix ``R`` is the minimal non-negative solution of

    A0 + R A1 + R^2 A2 = 0

with ``A0 = D1`` (arrival, level up), ``A1 = D0 - mu I`` (phase changes,
level >= 1), ``A2 = mu I`` (service, level down).

This gives an independent route to HAP/M/1 mean delay used to cross-validate
the paper's Solution 0 iteration in the test suite, and it is *much* faster
than brute-force iteration over the three-dimensional chain.

Solver notes
------------
Three ``R`` solvers are provided, all agreeing to tolerance:

* ``"cr"`` (default) — cyclic reduction specialised to the MMPP/M/1 blocks
  ``A0 = diag(lambda)`` and ``A2 = mu I``.  The Bini–Meini recurrence runs
  on a fixed set of preallocated Fortran-order buffers — ``B0``, ``hat``,
  an LU scratch, the stacked ``[Bm1 B1]``, its solve ``V`` and one
  ``n x 2n`` product buffer, nine ``n x n`` arrays in all — driven by
  LAPACK ``getrf``/``getrs`` and GEMMs written in place.  No dense
  diagonal block or identity is formed: ``A1 = D0 - mu I`` is filled
  straight from the sparse ``D0``, and the first step uses the block
  structure directly (one factorization, then row and column scalings).
  At convergence ``R`` comes in closed form: ``R A2 = A0 G`` with
  ``G = -mu hat^{-1}`` gives ``R = diag(lambda) G / mu =
  -diag(lambda) hat^{-1}``, one factorization and one solve of ``hat``
  with no ``G`` and no second LU.
* ``"lr"`` — Latouche–Ramaswami logarithmic reduction on dense general
  blocks, kept as an independent quadratically-convergent oracle.
* ``"fixed-point"`` — the simple monotone iteration, linear convergence,
  also on dense general blocks.

One factorization of ``I - R`` serves both the boundary vector and the
mean level.  ``w = (I - R)^{-1} 1`` normalizes the boundary system, which
is ``D0 + mu R`` (built from the sparse ``D0``) with one column replaced by
``w`` and is solved by one LU instead of least squares; ``E[z] =
pi_0 R (I - R)^{-1} w`` is computed once and stored on the solution.

Failure semantics: the CR rung calls LAPACK without scipy's finite checks,
so it checks for itself.  Non-finite blocks, a singular factorization
(``getrf`` ``info != 0``) or a non-finite ``B1`` raise ``ArithmeticError``
at once instead of iterating to the cap, and so does a non-finite
``E[z]``.  :func:`solve_mmpp_m1` reports a failed rung through its
degradation chain (``DegradationError`` once every rung has failed).

Warm starts: sweeps that solve a ladder of nearby queues (service-rate or
load sweeps, fig 11/12/19/20 style) can pass ``initial_rate_matrix`` — the
previous sweep point's ``R``.  The solver then runs a *budgeted* fixed-point
refinement from that guess and falls back to the full cyclic-reduction solve
when the refinement does not contract to tolerance within the budget.  Like
the CR rung, the refinement works on the MMPP/M/1 blocks themselves: one LU
of ``A1 = D0 - mu I``, then one GEMM and one solve per sweep, with no
dense ``A0``/``A2``.  The refinement's linear contraction rate is
``sp(R) sp(G)``, which approaches 1 for the near-critical headline queues,
so the warm start mainly pays off on lightly-loaded sweep points; the
fallback keeps the result exact either way.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import get_lapack_funcs, lu_factor, lu_solve

from repro.markov.mmpp import MMPP

__all__ = ["QBDSolution", "solve_mmpp_m1"]

#: Iteration budget for the warm-start fixed-point refinement before the
#: solver gives up and falls back to a cold cyclic-reduction solve.
_WARM_START_BUDGET = 40

#: The R matrix of an MMPP/M/1 QBD is dense regardless of how sparse the
#: blocks are, so the solve is O(n^3) per reduction step and O(n^2) memory
#: in the phase count no matter what.  Above this many phases that cost is
#: almost certainly an accident (an untrimmed truncation box); the solver
#: warns and points at the mass-based trimming knobs rather than silently
#: grinding.
_QBD_PHASE_WARN_LIMIT = 4000


@dataclass(frozen=True)
class QBDSolution:
    """Stationary solution of an MMPP/M/1 quasi-birth-death queue.

    Attributes
    ----------
    rate_matrix:
        Neuts' ``R`` matrix.
    boundary:
        ``pi_0``, the stationary probability vector of level 0 by phase.
    mean_rate:
        Mean arrival rate of the input MMPP.
    service_rate:
        The exponential server's rate ``mu``.
    mean_level:
        ``E[z] = pi_0 R (I - R)^{-2} 1``, the stationary mean number of
        customers in system, computed once by the solver.
    diagnostics:
        :class:`~repro.runtime.resilience.SolveDiagnostics` of the ``R``
        solve — whether the warm start answered or the cold solve had to
        (``None`` for solutions built before the chain existed, e.g. by
        old pickles).
    """

    rate_matrix: np.ndarray
    boundary: np.ndarray
    mean_rate: float
    service_rate: float
    mean_level: float
    diagnostics: object = None

    @property
    def utilization(self) -> float:
        """Offered load ``mean_rate / service_rate``."""
        return self.mean_rate / self.service_rate

    def level_distribution(self, max_level: int) -> np.ndarray:
        """Marginal queue-length probabilities ``P(z = k)`` for ``k <= max_level``."""
        probs = np.empty(max_level + 1)
        vec = self.boundary.copy()
        for level in range(max_level + 1):
            probs[level] = vec.sum()
            vec = vec @ self.rate_matrix
        return probs

    def mean_queue_length(self) -> float:
        """``E[z] = pi_0 R (I - R)^{-2} 1`` (customers in system)."""
        return self.mean_level

    def mean_delay(self) -> float:
        """Mean time in system via Little's law."""
        return self.mean_level / self.mean_rate

    def probability_empty(self) -> float:
        """Stationary probability that the system is empty."""
        return float(self.boundary.sum())


def _solve_rate_matrix_fixed_point(
    a0: np.ndarray,
    a1: np.ndarray,
    a2: np.ndarray,
    tol: float,
    max_iterations: int,
    initial: np.ndarray | None = None,
) -> np.ndarray:
    """Fixed-point iteration ``R <- -(A0 + R^2 A2) A1^{-1}``.

    Monotone from ``R = 0``; linear convergence, so only suitable for small
    phase spaces, warm-start refinement, or as a cross-check of the doubling
    paths.  ``A1`` is LU-factored once and reused every sweep.
    """
    lu_a1t = lu_factor(a1.T)
    rate = np.zeros_like(a0) if initial is None else initial.copy()
    for _ in range(max_iterations):
        # R A1 = -(A0 + R^2 A2)  =>  A1^T R^T = -(A0 + R^2 A2)^T.
        updated = lu_solve(lu_a1t, -(a0 + rate @ rate @ a2).T).T
        delta = float(np.abs(updated - rate).max())
        rate = updated
        if delta < tol:
            return rate
    raise ArithmeticError(
        f"R iteration did not converge within {max_iterations} steps "
        f"(last delta {delta:g}); is the queue stable?"
    )


def _solve_rate_matrix_lr(
    a0: np.ndarray,
    a1: np.ndarray,
    a2: np.ndarray,
    tol: float,
    max_iterations: int,
) -> np.ndarray:
    """Latouche–Ramaswami logarithmic reduction.

    Computes ``G`` (first-passage-down probabilities, the minimal solution
    of ``A2 + A1 G + A0 G^2 = 0``) with quadratic convergence, then converts
    to ``R = A0 (-(A1 + A0 G))^{-1}``.  Each step squares the effective
    horizon, so ~30 iterations suffice where the fixed point needs tens of
    thousands.
    """
    n = a0.shape[0]
    identity = np.eye(n)
    neg_a1_inv = np.linalg.inv(-a1)
    down = neg_a1_inv @ a2
    up = neg_a1_inv @ a0
    g = down.copy()
    t = up.copy()
    for _ in range(max_iterations):
        u = up @ down + down @ up
        m = np.linalg.inv(identity - u)
        up = m @ up @ up
        down = m @ down @ down
        g += t @ down
        t = t @ up
        if float(np.abs(t).max()) < tol:
            break
    else:
        raise ArithmeticError("logarithmic reduction did not converge")
    return _rate_from_g(a0, a1, g)


def _factor_in_place(getrf, a: np.ndarray, what: str) -> np.ndarray:
    """LU-factor the Fortran-order ``a`` in place; return the pivots.

    ``getrf`` runs without scipy's finite check, so a singular factor
    (``info != 0``) raises here instead of surfacing later as garbage.
    """
    _, piv, info = getrf(a, overwrite_a=True)
    if info != 0:
        raise ArithmeticError(f"{what} is singular (getrf info {info})")
    return piv


def _solve_rate_matrix_cr(
    d0: sp.csr_matrix,
    rates: np.ndarray,
    mu: float,
    tol: float,
    max_iterations: int,
) -> np.ndarray:
    """Cyclic reduction for ``R`` on ``A0 = diag(rates)``, ``A2 = mu I``.

    Classical Bini–Meini recurrence for ``G`` (minimal solution of
    ``A2 + A1 G + A0 G^2 = 0``) with the level-up block ``B1``, local block
    ``B0``, level-down block ``Bm1`` and the "hat" block accumulating the
    level-0 Schur complement:

        V   = B0^{-1} [Bm1  B1]          (one LU, one stacked solve)
        hat -= B1 Vm1
        B0  -= B1 Vm1 + Bm1 V1
        Bm1  = -Bm1 Vm1
        B1   = -B1 V1

    until ``max|B1| < tol * scale``.  The first step starts from ``B1 =
    diag(rates)`` and ``Bm1 = mu I``, so with ``X = A1^{-1}`` its products
    are row and column scalings of ``X``.  Then ``G = -mu hat^{-1}`` and
    ``R = diag(rates) G / mu = -diag(rates) hat^{-1}``, returned in the
    ``B0`` buffer.
    """
    if not (
        np.isfinite(mu) and np.isfinite(rates).all() and np.isfinite(d0.data).all()
    ):
        raise ArithmeticError("QBD blocks have non-finite entries")
    n = rates.size
    diag = np.arange(n)
    top_rate = float(rates.max(initial=0.0))
    threshold = tol * max(1.0, top_rate)
    b0 = d0.toarray(order="F")
    b0[diag, diag] -= mu
    hat = b0.copy(order="F")
    getrf, getrs = get_lapack_funcs(("getrf", "getrs"), (b0,))

    if top_rate >= threshold:
        lu = np.empty_like(b0)
        stacked = np.empty((n, 2 * n), order="F")
        bm1, b1 = stacked[:, :n], stacked[:, n:]
        v = np.empty_like(stacked)
        prod = np.empty_like(stacked)

        def solve_b0(rhs: np.ndarray) -> None:
            np.copyto(lu, b0)
            piv = _factor_in_place(getrf, lu, "cyclic-reduction block B0")
            getrs(lu, piv, rhs, overwrite_b=True)

        x, scaled = v[:, :n], prod[:, :n]
        x.fill(0.0)
        x[diag, diag] = 1.0
        solve_b0(x)
        np.multiply(x, (mu * rates)[:, None], out=scaled)  # B1 Vm1
        hat -= scaled
        b0 -= scaled
        np.multiply(x, (mu * rates)[None, :], out=scaled)  # Bm1 V1
        b0 -= scaled
        np.multiply(x, -mu * mu, out=bm1)
        np.multiply(x, -rates[:, None], out=b1)
        b1 *= rates[None, :]

        for _ in range(max_iterations):
            size = max(float(b1.max()), -float(b1.min()))
            if not np.isfinite(size):
                raise ArithmeticError("cyclic reduction produced non-finite blocks")
            if size < threshold:
                break
            np.copyto(v, stacked)
            solve_b0(v)
            np.matmul(b1, v, out=prod)  # [B1 Vm1 | B1 V1]
            hat -= prod[:, :n]
            b0 -= prod[:, :n]
            np.negative(prod[:, n:], out=b1)
            np.matmul(bm1, v, out=prod)  # [Bm1 Vm1 | Bm1 V1]
            b0 -= prod[:, n:]
            np.negative(prod[:, :n], out=bm1)
        else:
            raise ArithmeticError("cyclic reduction did not converge")

    piv = _factor_in_place(getrf, hat, "cyclic-reduction block hat")
    rate = b0
    rate.fill(0.0)
    rate[diag, diag] = 1.0
    getrs(hat, piv, rate, overwrite_b=True)
    rate *= -rates[:, None]
    return rate


def _rate_from_g(a0: np.ndarray, a1: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Convert ``G`` to ``R = A0 (-(A1 + A0 G))^{-1}`` via a transposed solve."""
    m = -(a1 + a0 @ g)
    return lu_solve(lu_factor(m.T), a0.T).T


def _dense_blocks(
    d0: sp.csr_matrix, rates: np.ndarray, mu: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense general ``(A0, A1, A2)`` for the ``lr``/``fixed-point`` oracles."""
    identity = np.eye(rates.size)
    return np.diag(rates), d0.toarray() - mu * identity, mu * identity


def _solve_rate_matrix(
    d0: sp.csr_matrix,
    rates: np.ndarray,
    mu: float,
    tol: float,
    max_iterations: int,
    method: str = "cr",
) -> np.ndarray:
    if method == "cr":
        return _solve_rate_matrix_cr(d0, rates, mu, tol, min(max_iterations, 100))
    a0, a1, a2 = _dense_blocks(d0, rates, mu)
    if method == "lr":
        return _solve_rate_matrix_lr(a0, a1, a2, tol, min(max_iterations, 200))
    if method == "fixed-point":
        return _solve_rate_matrix_fixed_point(a0, a1, a2, tol, max_iterations)
    raise ValueError(f"unknown R-matrix method {method!r}")


def _boundary_and_mean_level(
    d0: sp.csr_matrix, rate: np.ndarray, mu: float
) -> tuple[np.ndarray, float]:
    """``pi_0`` and ``E[z]`` from one factorization of ``I - R``.

    Boundary: ``pi_0 (D0 + mu R) = 0`` (no service completes at level 0),
    normalized by ``pi_0 w = 1`` with ``w = (I - R)^{-1} 1``.  The singular
    block has rank ``n - 1``, so replacing its last column with ``w`` gives
    a square non-singular system ``pi_0 B' = e_last``, solved as
    ``B'^T pi_0 = e_last`` through one LU of ``B'``.  The mean level is
    ``E[z] = pi_0 R (I - R)^{-1} w``.
    """
    n = rate.shape[0]
    diag = np.arange(n)
    getrf, getrs = get_lapack_funcs(("getrf", "getrs"), (rate,))
    i_minus_r = np.negative(rate, order="F")
    i_minus_r[diag, diag] += 1.0
    piv = _factor_in_place(getrf, i_minus_r, "I - R")
    w = getrs(i_minus_r, piv, np.ones(n))[0]
    v = getrs(i_minus_r, piv, w)[0]
    del i_minus_r  # freed before the boundary system takes its n x n

    system = np.multiply(rate, mu, order="F")
    coo = d0.tocoo()
    np.add.at(system, (coo.row, coo.col), coo.data)
    system[:, n - 1] = w
    piv = _factor_in_place(getrf, system, "boundary system")
    rhs = np.zeros(n)
    rhs[n - 1] = 1.0
    boundary = np.maximum(getrs(system, piv, rhs, trans=1)[0], 0.0)
    # Renormalize exactly after clipping tiny negatives.
    boundary /= float(boundary @ w)
    mean_level = float(boundary @ (rate @ v))
    if not np.isfinite(mean_level):
        raise ArithmeticError("matrix-geometric mean level is not finite")
    return boundary, mean_level


def _refine_rate_matrix(
    d0: sp.csr_matrix,
    rates: np.ndarray,
    mu: float,
    tol: float,
    initial: np.ndarray,
) -> np.ndarray | None:
    """Budgeted warm-start refinement; ``None`` when it fails to contract.

    Runs the fixed-point sweep ``R <- -(diag(rates) + mu R^2) A1^{-1}``
    from ``initial`` for at most :data:`_WARM_START_BUDGET` iterations, on
    the MMPP/M/1 blocks themselves: ``A1 = D0 - mu I`` is LU-factored
    once, and each sweep is one GEMM (``R @ R``), a scaling, a diagonal
    update and one solve, with no dense ``A0``/``A2``.

    The sweep contracts linearly at roughly ``sp(R) sp(G)``, so a guess
    from a nearby sweep point converges in a handful of sweeps on
    lightly-loaded points and stalls near criticality.  After a few
    sweeps the observed contraction factor is extrapolated; when the
    projected iteration count exceeds the budget the refinement bails out
    immediately so a stalled warm start costs a small fraction of the
    cold solve it falls back to.
    """
    diag = np.arange(rates.size)
    a1 = d0.toarray()
    a1[diag, diag] -= mu
    lu_a1t = lu_factor(a1.T)
    rate = initial.copy()
    previous_delta = None
    for sweep in range(_WARM_START_BUDGET):
        rhs = rate @ rate
        rhs *= -mu
        rhs[diag, diag] -= rates
        updated = lu_solve(lu_a1t, rhs.T).T
        delta = float(np.abs(updated - rate).max())
        rate = updated
        if delta < tol:
            return rate
        if not np.isfinite(delta):
            return None
        if previous_delta is not None and sweep >= 4:
            contraction = delta / max(previous_delta, 1e-300)
            if contraction >= 1.0:
                return None
            remaining = np.log(tol / delta) / np.log(contraction)
            if sweep + remaining > _WARM_START_BUDGET:
                return None
        previous_delta = delta
    return None


def solve_mmpp_m1(
    mmpp: MMPP,
    service_rate: float,
    tol: float = 1e-12,
    max_iterations: int = 200_000,
    method: str = "cr",
    initial_rate_matrix: np.ndarray | None = None,
) -> QBDSolution:
    """Solve the MMPP/M/1 queue by the matrix-geometric method.

    Parameters
    ----------
    mmpp:
        Input arrival process (finite modulating chain — truncate first for
        HAP via :mod:`repro.core.mmpp_mapping`).
    service_rate:
        Rate ``mu`` of the exponential server.
    tol, max_iterations:
        Convergence controls for the ``R`` solve.
    method:
        ``"cr"`` (default, cyclic reduction specialised to the MMPP/M/1
        blocks — quadratic convergence), ``"lr"`` (logarithmic reduction)
        or ``"fixed-point"`` (the simple monotone iteration); the last two
        run on dense general blocks as independent oracles.
    initial_rate_matrix:
        Optional warm start (e.g. the previous point of a service-rate
        sweep).  A budgeted fixed-point refinement runs from this guess and
        the solver falls back to a cold ``method`` solve when the
        refinement does not reach ``tol`` — the warm start can only change
        the wall-clock, never the answer beyond tolerance.

    Notes
    -----
    The ``R`` solve runs as a declarative degradation chain
    (:class:`~repro.runtime.resilience.DegradationChain`, name
    ``"qbd-rate-matrix"``): the ``warm-start`` rung (present only when
    ``initial_rate_matrix`` is given) abdicates when the budgeted
    refinement fails to contract, and the cold ``method`` rung (``"cr"``
    by default) backs it up.  Which rung answered is recorded in the
    returned solution's ``diagnostics``.

    Raises
    ------
    ValueError
        If the queue is not stable (``mean rate >= service rate``).
    """
    if service_rate <= 0:
        raise ValueError("service rate must be positive")
    mean_rate = mmpp.mean_rate()
    if mean_rate >= service_rate:
        raise ValueError(
            f"unstable queue: mean arrival rate {mean_rate:g} >= "
            f"service rate {service_rate:g}"
        )
    n = mmpp.num_states
    if n > _QBD_PHASE_WARN_LIMIT:
        warnings.warn(
            f"QBD solve over {n} phases: R is dense, so this is O(n^3) per "
            "reduction step regardless of block sparsity — consider a "
            "tighter phase_mass_tol / truncation box",
            RuntimeWarning,
            stacklevel=2,
        )
    # The blocks stay sparse: the CR rung fills its dense buffers straight
    # from D0, and only the dense general-block rungs build A0, A1, A2.
    d0 = mmpp.d0_sparse()
    rates = mmpp.rates
    if method not in ("cr", "lr", "fixed-point"):
        raise ValueError(f"unknown R-matrix method {method!r}")
    from repro.runtime.resilience import DegradationChain, RungRejected

    rungs = []
    if initial_rate_matrix is not None:
        if initial_rate_matrix.shape != (n, n):
            raise ValueError(
                "initial_rate_matrix shape "
                f"{initial_rate_matrix.shape} does not match the "
                f"{(n, n)} phase space"
            )

        def refine_warm_start():
            refined = _refine_rate_matrix(
                d0, rates, service_rate, tol, initial_rate_matrix
            )
            if refined is None:
                raise RungRejected(
                    "warm-start refinement did not contract to tolerance "
                    f"within its {_WARM_START_BUDGET}-sweep budget"
                )
            return refined

        rungs.append(("warm-start", refine_warm_start))
    rungs.append(
        (
            method,
            lambda: _solve_rate_matrix(
                d0, rates, service_rate, tol, max_iterations, method
            ),
        )
    )
    rate_matrix, diagnostics = DegradationChain("qbd-rate-matrix", rungs).run()
    boundary, mean_level = _boundary_and_mean_level(d0, rate_matrix, service_rate)
    return QBDSolution(
        rate_matrix=rate_matrix,
        boundary=boundary,
        mean_rate=mean_rate,
        service_rate=service_rate,
        mean_level=mean_level,
        diagnostics=diagnostics,
    )
