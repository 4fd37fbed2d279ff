"""Solution 0 — "exact" brute-force analysis of the HAP/M/1 Markov chain.

The paper's Section 3.2.1 augments the modulating chain with the message
count ``z`` and iterates the balance equations of the resulting
``(l + 2)``-dimension chain to steady state (two weeks of 1993 CPU time).
This module implements that chain three ways:

* ``backend="direct"`` — assemble the truncated generator sparsely and solve
  the stationary equations with a sparse LU factorization (the production
  path; seconds instead of weeks).
* ``backend="power"`` — the paper-faithful iterative route: uniformize the
  chain and apply power iteration, sweeping until successive distributions
  agree.  Kept for fidelity and used with tiny state spaces in tests.
* ``backend="qbd"`` — do not truncate ``z`` at all: treat the queue as a
  quasi-birth-death process over the modulating phases and use Neuts'
  matrix-geometric method (:mod:`repro.markov.matrix_geometric`).

All three agree to numerical tolerance on overlapping state spaces, which is
the strongest internal-consistency check in the test suite.  Unlike
Solutions 1 and 2, Solution 0 *preserves the correlation between successive
interarrivals* — the paper attributes the big accuracy gap at high load
exactly to that correlation.

Solving once per chain and rate
-------------------------------
An MMPP/M/1 queue's stationary behaviour depends only on the MMPP's
matrices and the service rate, never on the parameter set's name or
message service rates.  The mapping cache of :mod:`repro.core.mmpp_mapping`
already returns one shared :class:`~repro.core.mmpp_mapping.MappedMMPP`
per (chain rates, bounds, ``mass_tol``), so a cold ``qbd`` answer is
memoized on that chain, keyed by ``(service_rate, z_max)``: fig 11 at
``mu'' = 17`` and fig 12 at ``lambda = 0.0055`` solve their shared
1280-phase queue once, and so do the headline and the accuracy table's
``mu'' = 20`` row when one process runs both.

* A hit skips the QBD solve and the pmf and returns the stored answer with
  the caller's ``params``; its ``rate_matrix`` is ``None`` (only the call
  that solved reports ``R``, so the memo holds no ``n x n`` array).
* Each chain keeps at most :data:`_MEMO_SIZE` entries, dropping the oldest;
  the memo goes when its chain leaves the mapping LRU or that cache is
  cleared.
* A warm-started call (``qbd_initial_rate_matrix`` given) neither reads
  nor writes the memo, and a call that raises stores nothing.
* The ``qbd`` pmf is read-only, so no caller can change a stored answer.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.core.mmpp_mapping import (
    MappedMMPP,
    hap_to_mmpp,
    symmetric_hap_to_mmpp,
)
from repro.core.params import HAPParameters
from repro.markov.matrix_geometric import solve_mmpp_m1
from repro.markov.uniformization import UNIFORMIZATION_MARGIN

__all__ = ["DEFAULT_PHASE_MASS_TOL", "Solution0Result", "solve_solution0"]

#: Stationary-mass threshold for trimming the modulating phase space on the
#: auto-bounds QBD path.  Box corner states below this probability cost full
#: cubic work in the matrix-geometric solve while moving the answer at the
#: 1e-7 relative level; trimming them is the single largest analytic speedup.
DEFAULT_PHASE_MASS_TOL = 1e-12

#: Cold ``qbd`` answers memoized per mapped chain (distinct ``(mu'', z_max)``
#: pairs); beyond this the oldest goes, so a bisection over ``mu''`` cannot
#: grow a chain's memo without limit.
_MEMO_SIZE = 16

#: Guards memo writes: live solves run in service worker threads.
_MEMO_LOCK = threading.Lock()


@dataclass(frozen=True)
class Solution0Result:
    """Output of Solution 0 for a HAP/M/1 queue.

    Attributes
    ----------
    params:
        The analyzed HAP.
    service_rate:
        The queue's ``mu''``.
    mean_queue_length:
        ``z-bar`` — stationary mean number of messages in system.
    mean_delay:
        ``T = z-bar / lambda-eff`` by Little's result.
    effective_arrival_rate:
        Mean *accepted* arrival rate (equals the chain's mean rate up to the
        tiny mass blocked at the ``z`` truncation boundary).
    sigma:
        Probability an arriving message finds the server busy.
    utilization:
        Time-stationary probability the server is busy.
    boundary_mass:
        Stationary probability at ``z = z_max`` (``qbd`` backend: 0.0); if
        this is not tiny, enlarge ``z_max``.
    queue_length_pmf:
        Marginal distribution of ``z`` (truncated backends) or the first
        ``z_max + 1`` probabilities (``qbd``, read-only: it may be shared
        with the chain's memo).
    backend:
        Which backend produced the numbers.
    rate_matrix:
        The converged matrix-geometric ``R`` (``qbd`` backend only, else
        ``None``) — feed it to a neighbouring sweep point via
        ``qbd_initial_rate_matrix`` to warm-start its fixed point.  Only
        the call that solved reports it: a cold ``qbd`` call answered from
        the chain's memo (same chain, ``mu''`` and ``z_max`` as an earlier
        cold call; see the module docstring) reports ``None``.  A
        warm-started call never reads the memo, so it always reports ``R``.
    """

    params: HAPParameters
    service_rate: float
    mean_queue_length: float
    mean_delay: float
    effective_arrival_rate: float
    sigma: float
    utilization: float
    boundary_mass: float
    queue_length_pmf: np.ndarray
    backend: str
    rate_matrix: np.ndarray | None = None


def solve_solution0(
    params: HAPParameters,
    service_rate: float | None = None,
    backend: str = "qbd",
    modulating_bounds: tuple[int, ...] | None = None,
    z_max: int = 400,
    collapse_symmetric: bool = True,
    power_tol: float = 1e-12,
    power_max_sweeps: int = 2_000_000,
    phase_mass_tol: float | None = None,
    qbd_initial_rate_matrix: np.ndarray | None = None,
) -> Solution0Result:
    """Run Solution 0 on a HAP.

    Parameters
    ----------
    params:
        HAP description.
    service_rate:
        Queue service rate; defaults to the common message service rate.
    backend:
        ``"qbd"`` (default, exact in ``z``), ``"direct"`` (sparse LU on the
        ``z``-truncated chain) or ``"power"`` (paper-faithful iteration).
        This selects the *queue solver*, not the analytic grid-evaluation
        backend of :mod:`repro.markov.spectral` (``dense``/``krylov``/
        ``auto``) — every queue backend here already assembles its blocks
        sparsely (:func:`_augment_with_queue` is a CSR Kronecker build, and
        ``qbd`` crosses to dense exactly once, at the R-solver boundary
        where R is dense by nature).
    modulating_bounds:
        Truncation of the modulating chain; ``(x_max, y_max)`` for collapsed
        symmetric HAPs, else one bound per dimension.
    z_max:
        Queue-length truncation for ``direct``/``power`` (and the length of
        the reported pmf for ``qbd``).
    collapse_symmetric:
        Collapse symmetric HAPs to the 2-D Figure-7 modulating chain.
    power_tol, power_max_sweeps:
        Convergence controls for the ``power`` backend.
    phase_mass_tol:
        Mass-adaptive trimming threshold for the modulating phase space
        (see :mod:`repro.core.mmpp_mapping`).  ``None`` (default) trims at
        :data:`DEFAULT_PHASE_MASS_TOL` on the auto-bounds ``qbd`` path —
        where the box is a numerical artifact — and never when
        ``modulating_bounds`` is given (explicit boxes, including
        admission-control limits, are honoured exactly).  Pass ``0.0`` to
        force the full rectangle, or a positive threshold to trim anyway.
    qbd_initial_rate_matrix:
        Optional warm start for the ``qbd`` backend's rate-matrix fixed
        point — typically the :attr:`Solution0Result.rate_matrix` of an
        adjacent sweep point with the same modulating bounds.  Ignored by
        the other backends; wrong-shaped guesses are rejected downstream.
    """
    if service_rate is None:
        service_rate = params.common_service_rate()
    if phase_mass_tol is None:
        phase_mass_tol = (
            DEFAULT_PHASE_MASS_TOL
            if backend == "qbd" and modulating_bounds is None
            else 0.0
        )
    mapped = _map_modulating_chain(
        params, modulating_bounds, collapse_symmetric, phase_mass_tol
    )
    if backend == "qbd":
        return _solve_qbd(
            params, service_rate, mapped, z_max, qbd_initial_rate_matrix
        )
    if backend not in ("direct", "power"):
        raise ValueError(f"unknown backend {backend!r}")

    generator, rates = _augment_with_queue(mapped, service_rate, z_max)
    if backend == "direct":
        pi = _stationary_direct(generator)
    else:
        pi = _stationary_power(generator, power_tol, power_max_sweeps)

    num_phases = mapped.space.size
    # z-major layout: pi_grid[z, phase].
    pi_grid = pi.reshape(z_max + 1, num_phases)
    z_values = np.arange(z_max + 1, dtype=float)
    queue_pmf = pi_grid.sum(axis=1)
    mean_queue = float(queue_pmf @ z_values)
    # Arrivals at z = z_max are blocked by the truncation.
    accepted = np.ones((z_max + 1, 1)) * rates[None, :]
    accepted[z_max, :] = 0.0
    effective_rate = float((pi_grid * accepted).sum())
    if effective_rate <= 0:
        raise ArithmeticError("chain accepted no arrivals; check parameters")
    busy = 1.0 - float(pi_grid[0, :].sum())
    arrivals_to_busy = float((pi_grid[1:, :] * accepted[1:, :]).sum())
    return Solution0Result(
        params=params,
        service_rate=service_rate,
        mean_queue_length=mean_queue,
        mean_delay=mean_queue / effective_rate,
        effective_arrival_rate=effective_rate,
        sigma=arrivals_to_busy / effective_rate,
        utilization=busy,
        boundary_mass=float(pi_grid[z_max, :].sum()),
        queue_length_pmf=queue_pmf,
        backend=backend,
    )


def _map_modulating_chain(
    params: HAPParameters,
    bounds: tuple[int, ...] | None,
    collapse_symmetric: bool,
    mass_tol: float = 0.0,
) -> MappedMMPP:
    if collapse_symmetric and params.is_symmetric:
        if bounds is None:
            return symmetric_hap_to_mmpp(params, mass_tol=mass_tol)
        x_max, y_max = bounds
        return symmetric_hap_to_mmpp(
            params, x_max=x_max, y_max=y_max, mass_tol=mass_tol
        )
    return hap_to_mmpp(params, bounds=bounds, mass_tol=mass_tol)


def _augment_with_queue(
    mapped: MappedMMPP, service_rate: float, z_max: int
) -> tuple[sp.csr_matrix, np.ndarray]:
    """Kronecker-assemble the generator of the (z, modulating) chain.

    z-major layout (state index ``z * num_phases + phase``) keeps the matrix
    bandwidth at ~``num_phases``, which makes the sparse LU factorization
    dramatically cheaper than the phase-major layout:

    ``Q = I_z ⊗ Q_mod  +  (U - D_up) ⊗ diag(r)  +  mu (L - D_down) ⊗ I``

    where ``U``/``L`` shift the queue up/down and the ``D`` terms keep rows
    summing to zero (arrivals at ``z_max`` are blocked by the truncation).
    """
    if z_max < 1:
        raise ValueError("z_max must be at least 1")
    rates = mapped.mmpp.rates
    num_z = z_max + 1
    identity_z = sp.eye(num_z, format="csr")
    shift_up = sp.diags([np.ones(z_max)], offsets=[1], format="csr")
    up_mask = sp.diags(
        [np.concatenate([np.ones(z_max), [0.0]])], offsets=[0], format="csr"
    )
    shift_down = sp.diags([np.ones(z_max)], offsets=[-1], format="csr")
    down_mask = sp.diags(
        [np.concatenate([[0.0], np.ones(z_max)])], offsets=[0], format="csr"
    )
    q_mod = mapped.mmpp.generator
    q_mod = q_mod if sp.issparse(q_mod) else sp.csr_matrix(q_mod)
    generator = (
        sp.kron(identity_z, q_mod)
        + sp.kron(shift_up - up_mask, sp.diags([rates], offsets=[0]))
        + sp.kron(
            service_rate * (shift_down - down_mask),
            sp.eye(mapped.space.size, format="csr"),
        )
    )
    return generator.tocsr(), rates


def _stationary_direct(generator: sp.csr_matrix) -> np.ndarray:
    """Sparse LU solve of ``pi Q = 0`` with normalization.

    Rather than overwriting one balance equation with the (dense)
    normalization row — which destroys sparsity and blows up LU fill-in —
    we pin the empty state's probability to 1, solve the remaining ``n - 1``
    balance equations for the other components, and normalize afterwards.
    State 0 (empty system) always carries non-negligible stationary mass
    for the stable queues we solve, so the pin is numerically benign.
    """
    n = generator.shape[0]
    a = generator.T.tocsc()
    # Q^T[1:, 1:] x = -Q^T[1:, 0] with pi[0] := 1.
    left = a[1:, 1:]
    rhs = -np.asarray(a[1:, 0].toarray()).ravel()
    x = spla.spsolve(left, rhs)
    pi = np.concatenate([[1.0], x])
    pi = np.maximum(pi, 0.0)
    return pi / pi.sum()


def _stationary_power(
    generator: sp.csr_matrix, tol: float, max_sweeps: int
) -> np.ndarray:
    """Uniformized power iteration — the paper's brute-force loop.

    The paper initializes states uniformly, recomputes probabilities sweep
    by sweep, renormalizes, and stops when successive sweeps agree; power
    iteration on the uniformized transition matrix is the same computation
    in matrix form.

    The uniformization rate carries :data:`UNIFORMIZATION_MARGIN` over the
    largest exit rate: at exactly the maximum, states with that exit rate
    get a zero self-loop and the DTMC can be periodic (equal exit rates
    around a cycle), making power iteration oscillate forever.  The margin
    leaves every state a self-loop (aperiodicity) without moving the fixed
    point; see :mod:`repro.markov.uniformization`.
    """
    n = generator.shape[0]
    rate = UNIFORMIZATION_MARGIN * float(-generator.diagonal().min())
    transition = (sp.eye(n, format="csr") + generator / rate).T.tocsr()
    pi = np.full(n, 1.0 / n)
    for _ in range(max_sweeps):
        updated = transition @ pi
        updated /= updated.sum()
        if float(np.abs(updated - pi).max()) < tol:
            return updated
        pi = updated
    raise ArithmeticError(
        f"power iteration did not converge within {max_sweeps} sweeps"
    )


def _solve_qbd(
    params: HAPParameters,
    service_rate: float,
    mapped: MappedMMPP,
    z_max: int,
    initial_rate_matrix: np.ndarray | None = None,
) -> Solution0Result:
    cold = initial_rate_matrix is None
    key = (float(service_rate), z_max)
    memo = mapped.solution0_memo
    if cold:
        cached = memo.get(key)
        if cached is not None:
            return replace(cached, params=params)
    solution = solve_mmpp_m1(
        mapped.mmpp, service_rate, initial_rate_matrix=initial_rate_matrix
    )
    mean_queue = solution.mean_queue_length()
    mean_rate = mapped.mmpp.mean_rate()
    # sigma: arrival-weighted probability of finding the server busy.
    rate_when_empty = float(solution.boundary @ mapped.mmpp.rates)
    sigma = 1.0 - rate_when_empty / mean_rate
    pmf = solution.level_distribution(z_max)
    pmf.setflags(write=False)
    result = Solution0Result(
        params=params,
        service_rate=service_rate,
        mean_queue_length=mean_queue,
        mean_delay=mean_queue / mean_rate,
        effective_arrival_rate=mean_rate,
        sigma=sigma,
        utilization=1.0 - solution.probability_empty(),
        boundary_mass=0.0,
        queue_length_pmf=pmf,
        backend="qbd",
        rate_matrix=solution.rate_matrix,
    )
    if cold:
        with _MEMO_LOCK:
            if key not in memo and len(memo) >= _MEMO_SIZE:
                del memo[next(iter(memo))]
            memo[key] = replace(result, rate_matrix=None)
    return result
