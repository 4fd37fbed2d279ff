"""Mapping HAP onto (truncated) MMPPs — the paper's Section 3.1.

HAP's modulating state is ``(x, y_1, ..., y_l)``: the user count and the
per-type application counts.  Transitions connect neighbouring states only:

    x -> x + 1        at rate lambda
    x -> x - 1        at rate x * mu
    y_i -> y_i + 1    at rate x * lambda_i     (invocations need a user)
    y_i -> y_i - 1    at rate y_i * mu_i

and the message arrival rate in a state is ``sum_i y_i * Lambda_i``.  The
infinite lattice is truncated to a box (Section 3.2.1's boundary convention:
out-of-bound transitions are dropped).

For the symmetric model the paper collapses the chain to ``(x, y)`` with
``y`` the total application count (Figure 7); :func:`symmetric_hap_to_mmpp`
builds that far smaller chain, which is what Solutions 0/1 and the QBD
cross-check use at the paper's parameter sizes.

Bounding ``x`` and ``y`` *intentionally* (rather than for numerical
truncation) is the paper's admission-control mechanism (Figure 20); the same
functions serve both purposes — only the interpretation of the bound differs.

Caching and trimming
--------------------
Both mapping functions are backed by a keyed, bounded LRU cache
(``chain rates + resolved bounds + mass_tol`` → :class:`MappedMMPP`), so the
headline pipeline and the figure sweeps stop rebuilding the identical
truncated chain once per Solution.  The key holds only what the builders
read — user rates, per-type application rates and message arrival rates —
so parameter sets that differ in message service rate or name (a
service-rate sweep) share one chain.  Because the cached :class:`MappedMMPP`
instances are shared, everything they memoize is shared too: the modulating
chain's stationary vector (cached on the :class:`~repro.markov.ctmc.CTMC`),
the analytic kernels (cached on the :class:`~repro.markov.mmpp.MMPP`, one
per analytic backend — so a chain already factorized under ``dense`` is not
re-factorized when ``krylov`` is requested, and vice versa), and the
lazily-computed boundary mass.  Callers must treat cached instances as
immutable.

The generator built here is CSR from :func:`repro.markov.truncation.build_generator`
and *stays* CSR: mapping, trimming (a sparse row/column slice plus a
diagonal correction), and every downstream analytic consumer operate
without a dense round-trip, which is what lets truncation boxes of tens of
thousands of states run on the Krylov analytic backend.

``mass_tol`` enables *mass-adaptive trimming*: the box keeps a rectangle's
worth of corner states whose stationary probability is far below
floating-point noise yet costs full cubic work in every QBD solve.  Passing
``mass_tol > 0`` drops states with stationary mass below the threshold and
reflects their transitions (the paper's own boundary convention, applied to
the mass contour instead of the rectangle), shrinking the phase space by
~25% at the headline size for a relative solution error of order
``mass_tol``-driven 1e-7 at the default 1e-12.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from repro.core.params import HAPParameters
from repro.markov.mmpp import MMPP
from repro.markov.truncation import StateSpace, TrimmedStateSpace, build_generator

__all__ = [
    "MappedMMPP",
    "default_bounds",
    "hap_to_mmpp",
    "symmetric_hap_to_mmpp",
]

#: How many standard deviations beyond the mean the default truncation keeps.
_DEFAULT_SPREAD = 6.0

#: Bound on the number of distinct (chain, bounds, mass_tol) chains kept.
_CACHE_SIZE = 64

#: The fields of a HAP its modulating chain depends on:
#: ``(lambda, mu, ((lambda_i, mu_i, (lambda_i1, .., lambda_im)), ..))``.
ChainKey = tuple[float, float, tuple[tuple[float, float, tuple[float, ...]], ...]]


@dataclass(frozen=True)
class MappedMMPP:
    """An MMPP produced from a HAP plus its state-space bookkeeping.

    Attributes
    ----------
    mmpp:
        The truncated MMPP.
    space:
        State space whose dense index matches the MMPP's state index.
    precomputed_boundary_mass:
        Optional boundary mass supplied by the builder (used by mappers that
        already hold a stationary vector); leave ``None`` to defer the solve.
    """

    mmpp: MMPP
    space: StateSpace
    precomputed_boundary_mass: float | None = None

    @property
    def boundary_mass(self) -> float:
        """Stationary probability of states on the truncation boundary.

        A quick check that the box was large enough (should be tiny unless
        the bound is an intentional admission-control limit).  Computed
        lazily on first access from the chain's cached stationary vector —
        construction itself never triggers a stationary solve — and then
        memoized on the instance.
        """
        if self.precomputed_boundary_mass is not None:
            return self.precomputed_boundary_mass
        value = _boundary_mass(self.mmpp, self.space)
        object.__setattr__(self, "precomputed_boundary_mass", value)
        return value

    @property
    def mean_rate(self) -> float:
        """Mean message rate of the truncated chain."""
        return self.mmpp.mean_rate()


def default_bounds(params: HAPParameters, spread: float = _DEFAULT_SPREAD) -> tuple[int, ...]:
    """Truncation box covering ``mean + spread * std`` per coordinate.

    The user population is Poisson (variance = mean), but an application
    population is a *mixed* Poisson over the random user count, which makes
    it over-dispersed:

        Var(y_i) = x-bar * a_i * (1 + a_i),   a_i = lambda_i / mu_i.

    Under-truncating the application level silently shaves off exactly the
    burst states that dominate HAP's queueing delay, so the default box uses
    the true variance.
    """
    bounds = [_spread_bound(params.mean_users, params.mean_users, spread)]
    for app in params.applications:
        a_i = app.offered_instances
        mean_instances = params.mean_users * a_i
        variance = params.mean_users * a_i * (1.0 + a_i)
        bounds.append(_spread_bound(mean_instances, variance, spread))
    return tuple(bounds)


def _spread_bound(mean: float, variance: float, spread: float) -> int:
    return max(2, int(np.ceil(mean + spread * np.sqrt(max(variance, 1.0)))))


def hap_to_mmpp(
    params: HAPParameters,
    bounds: tuple[int, ...] | None = None,
    mass_tol: float | None = None,
) -> MappedMMPP:
    """Build the general ``(x, y_1, .., y_l)`` truncated MMPP.

    Parameters
    ----------
    params:
        The HAP description.
    bounds:
        Inclusive bounds ``(x_max, y1_max, .., yl_max)``; defaults to
        :func:`default_bounds`.  State-space size is the product of
        ``bound + 1`` over coordinates — keep ``l`` small or use
        :func:`symmetric_hap_to_mmpp` for symmetric models.
    mass_tol:
        When positive, trim box states whose stationary probability falls
        below this threshold (see module docstring).  ``None`` keeps the
        full rectangle.

    Results are memoized per ``(chain rates, bounds, mass_tol)`` —
    repeated calls, and calls whose parameters differ only in message
    service rates or names, return the *same* :class:`MappedMMPP` instance.
    """
    if bounds is None:
        bounds = default_bounds(params)
    bounds = tuple(int(b) for b in bounds)
    if len(bounds) != params.num_app_types + 1:
        raise ValueError(
            f"need {params.num_app_types + 1} bounds (x plus one per app type), "
            f"got {len(bounds)}"
        )
    return _cached_general_map(
        _chain_key(params), bounds, _normalize_mass_tol(mass_tol)
    )


def symmetric_hap_to_mmpp(
    params: HAPParameters,
    x_max: int | None = None,
    y_max: int | None = None,
    mass_tol: float | None = None,
) -> MappedMMPP:
    """Build the collapsed ``(x, y)`` MMPP for a symmetric HAP (Figure 7).

    ``y`` is the total application count across all ``l`` types; invocations
    occur at ``x * l * lambda'`` and the message rate is ``y * m * lambda''``.
    ``mass_tol`` trims low-mass box states exactly as in :func:`hap_to_mmpp`.

    Results are memoized per ``(chain rates, x_max, y_max, mass_tol)``
    exactly as in :func:`hap_to_mmpp`.

    Raises
    ------
    ValueError
        If the HAP is not symmetric — the collapse needs exchangeable types.
    """
    if not params.is_symmetric:
        raise ValueError("symmetric_hap_to_mmpp needs a symmetric HAP")
    app = params.applications[0]
    if x_max is None:
        x_max = _spread_bound(
            params.mean_users, params.mean_users, _DEFAULT_SPREAD
        )
    if y_max is None:
        # Total apps: mixed Poisson with c = l * lambda'/mu' per user.
        c_total = params.num_app_types * app.offered_instances
        variance = params.mean_users * c_total * (1.0 + c_total)
        y_max = _spread_bound(params.mean_applications, variance, _DEFAULT_SPREAD)
    return _cached_symmetric_map(
        _chain_key(params), int(x_max), int(y_max), _normalize_mass_tol(mass_tol)
    )


def _chain_key(params: HAPParameters) -> ChainKey:
    """The cache key: every rate the chain builders read, nothing else."""
    return (
        params.user_arrival_rate,
        params.user_departure_rate,
        tuple(
            (
                app.arrival_rate,
                app.departure_rate,
                tuple(msg.arrival_rate for msg in app.messages),
            )
            for app in params.applications
        ),
    )


def _normalize_mass_tol(mass_tol: float | None) -> float | None:
    if mass_tol is None or mass_tol <= 0.0:
        return None
    return float(mass_tol)


@lru_cache(maxsize=_CACHE_SIZE)
def _cached_general_map(
    chain: ChainKey,
    bounds: tuple[int, ...],
    mass_tol: float | None,
) -> MappedMMPP:
    space = StateSpace(bounds)
    lam, mu, apps = chain

    def transitions(state):
        x = state[0]
        yield (x + 1, *state[1:]), lam
        if x > 0:
            yield (x - 1, *state[1:]), x * mu
        for i, (app_arrival, app_departure, _) in enumerate(apps):
            y = state[1 + i]
            up = list(state)
            up[1 + i] = y + 1
            yield tuple(up), x * app_arrival
            if y > 0:
                down = list(state)
                down[1 + i] = y - 1
                yield tuple(down), y * app_departure

    generator = build_generator(space, transitions)
    coords = space.coordinate_arrays()
    rates = np.zeros(space.size)
    for i, (_, _, message_rates) in enumerate(apps):
        rates += coords[1 + i] * sum(message_rates)
    mapped = MappedMMPP(mmpp=MMPP(generator, rates), space=space)
    return _trim_by_mass(mapped, mass_tol)


@lru_cache(maxsize=_CACHE_SIZE)
def _cached_symmetric_map(
    chain: ChainKey,
    x_max: int,
    y_max: int,
    mass_tol: float | None,
) -> MappedMMPP:
    lam, mu, apps = chain
    app_arrival, mu_app, message_rates = apps[0]
    per_app_rate = sum(message_rates)
    invoke_rate = len(apps) * app_arrival
    space = StateSpace((x_max, y_max))

    def transitions(state):
        x, y = state
        yield (x + 1, y), lam
        if x > 0:
            yield (x - 1, y), x * mu
        yield (x, y + 1), x * invoke_rate
        if y > 0:
            yield (x, y - 1), y * mu_app

    generator = build_generator(space, transitions)
    xs, ys = space.coordinate_arrays()
    rates = ys * per_app_rate
    mapped = MappedMMPP(mmpp=MMPP(generator, rates.astype(float)), space=space)
    return _trim_by_mass(mapped, mass_tol)


def _trim_by_mass(mapped: MappedMMPP, mass_tol: float | None) -> MappedMMPP:
    """Drop box states below ``mass_tol`` stationary probability.

    Transitions into dropped states are reflected — removed from the source
    diagonal, exactly the paper's out-of-bounds convention applied to the
    mass contour.  Returns ``mapped`` unchanged when nothing falls below the
    threshold (or trimming is disabled), so the no-trim path never pays a
    stationary solve.
    """
    if mass_tol is None:
        return mapped
    pi = mapped.mmpp.stationary_distribution()
    keep = np.flatnonzero(pi >= mass_tol)
    if keep.size == mapped.space.size:
        return mapped
    if keep.size == 0:
        raise ValueError(f"mass_tol {mass_tol:g} would trim away every state")
    generator = mapped.mmpp.generator
    generator = generator.tocsr() if sp.issparse(generator) else sp.csr_matrix(generator)
    trimmed = generator[keep][:, keep]
    # Re-zero row sums: reflected outflow comes off the diagonal.
    row_sums = np.asarray(trimmed.sum(axis=1)).ravel()
    trimmed = (trimmed - sp.diags(row_sums)).tocsr()
    space = TrimmedStateSpace(mapped.space, keep)
    return MappedMMPP(
        mmpp=MMPP(trimmed, mapped.mmpp.rates[keep]),
        space=space,
    )


def _boundary_mass(mmpp: MMPP, space: StateSpace) -> float:
    """Total stationary probability of states touching the box boundary."""
    pi = mmpp.stationary_distribution()
    coords = space.coordinate_arrays()
    on_boundary = np.zeros(space.size, dtype=bool)
    for k, bound in enumerate(space.bounds):
        on_boundary |= coords[k] == bound
    return float(pi[on_boundary].sum())
