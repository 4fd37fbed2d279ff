"""Tests for repro.core.mmpp_mapping — HAP as a truncated MMPP."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.mmpp_mapping import (
    default_bounds,
    hap_to_mmpp,
    symmetric_hap_to_mmpp,
)


class TestSymmetricCollapse:
    def test_mean_rate_matches_equation4(self, small_hap):
        mapped = symmetric_hap_to_mmpp(small_hap)
        # Truncation shaves a little rate off the exact Equation-4 value.
        assert mapped.mean_rate == pytest.approx(
            small_hap.mean_message_rate, rel=1e-3
        )
        assert mapped.mean_rate <= small_hap.mean_message_rate

    def test_boundary_mass_is_tiny(self, small_hap):
        mapped = symmetric_hap_to_mmpp(small_hap)
        assert mapped.boundary_mass < 1e-4

    def test_population_marginals_are_poisson(self, small_hap):
        from scipy.stats import poisson

        mapped = symmetric_hap_to_mmpp(small_hap)
        pi = mapped.mmpp.stationary_distribution()
        xs, _ = mapped.space.coordinate_arrays()
        x_marginal = np.bincount(xs, weights=pi)
        expected = poisson.pmf(np.arange(len(x_marginal)), small_hap.mean_users)
        np.testing.assert_allclose(
            x_marginal, expected / expected.sum(), atol=1e-4
        )

    def test_mean_apps_matches_closed_form(self, small_hap):
        mapped = symmetric_hap_to_mmpp(small_hap)
        pi = mapped.mmpp.stationary_distribution()
        _, ys = mapped.space.coordinate_arrays()
        assert float(pi @ ys) == pytest.approx(
            small_hap.mean_applications, rel=1e-3
        )

    def test_rejects_asymmetric(self, asymmetric_hap):
        with pytest.raises(ValueError, match="symmetric"):
            symmetric_hap_to_mmpp(asymmetric_hap)

    def test_explicit_bounds_respected(self, small_hap):
        mapped = symmetric_hap_to_mmpp(small_hap, x_max=4, y_max=7)
        assert mapped.space.bounds == (4, 7)


class TestGeneralMapping:
    def test_mean_rate_matches_equation4(self, asymmetric_hap):
        mapped = hap_to_mmpp(asymmetric_hap)
        assert mapped.mean_rate == pytest.approx(
            asymmetric_hap.mean_message_rate, rel=1e-3
        )

    def test_state_space_dimension(self, asymmetric_hap):
        mapped = hap_to_mmpp(asymmetric_hap)
        assert mapped.space.ndim == asymmetric_hap.num_app_types + 1

    def test_wrong_bounds_length_rejected(self, asymmetric_hap):
        with pytest.raises(ValueError, match="bounds"):
            hap_to_mmpp(asymmetric_hap, bounds=(5, 5))

    def test_collapsed_and_general_agree_for_symmetric(self, small_hap):
        collapsed = symmetric_hap_to_mmpp(small_hap)
        general = hap_to_mmpp(small_hap)
        assert collapsed.mean_rate == pytest.approx(general.mean_rate, rel=1e-3)
        assert collapsed.mmpp.rate_variance() == pytest.approx(
            general.mmpp.rate_variance(), rel=1e-2
        )

    def test_rates_are_y_weighted(self, asymmetric_hap):
        mapped = hap_to_mmpp(asymmetric_hap, bounds=(2, 2, 2))
        coords = mapped.space.coordinate_arrays()
        apps = asymmetric_hap.applications
        expected = (
            coords[1] * apps[0].total_message_rate
            + coords[2] * apps[1].total_message_rate
        )
        np.testing.assert_allclose(mapped.mmpp.rates, expected)


class TestDefaultBounds:
    def test_covers_mean_generously(self, small_hap):
        bounds = default_bounds(small_hap)
        assert bounds[0] > small_hap.mean_users
        total_apps = small_hap.mean_users * sum(
            app.offered_instances for app in small_hap.applications
        )
        assert sum(bounds[1:]) > total_apps

    def test_uses_overdispersed_variance(self, paper_base):
        # y's variance is x-bar * c * (1 + c); a plain-Poisson bound would
        # stop near 59 for the paper base — the correct one must go beyond.
        bounds = default_bounds(paper_base)
        per_type_mean = 5.5  # x-bar * lambda'/mu' per type
        variance = 5.5 * 1.0 * 2.0  # a_i = 1 per type
        assert bounds[1] >= per_type_mean + 5.0 * np.sqrt(variance)

    def test_spread_parameter_grows_bounds(self, small_hap):
        tight = default_bounds(small_hap, spread=3.0)
        wide = default_bounds(small_hap, spread=9.0)
        assert all(w >= t for w, t in zip(wide, tight))


class TestMappingCache:
    # The cache keys on the chain's rates, so each test's HAP gets its own
    # message arrival rate: a name alone no longer makes a chain unique.
    _MESSAGE_RATES = {
        "share": 0.401,
        "keys": 0.402,
        "lazy": 0.403,
        "fields": 0.404,
        "all": 0.405,
    }

    def _unique_hap(self, tag: str, **overrides):
        from repro.core.params import HAPParameters

        fields = dict(
            user_arrival_rate=0.05,
            user_departure_rate=0.05,
            app_arrival_rate=0.05,
            app_departure_rate=0.05,
            message_arrival_rate=self._MESSAGE_RATES[tag],
            message_service_rate=3.0,
            num_app_types=2,
            num_message_types=1,
            name=f"cache-{tag}",
        )
        fields.update(overrides)
        return HAPParameters.symmetric(**fields)

    def test_repeated_calls_share_one_instance(self):
        params = self._unique_hap("share")
        first = symmetric_hap_to_mmpp(params)
        second = symmetric_hap_to_mmpp(params)
        assert first is second
        assert hap_to_mmpp(params) is hap_to_mmpp(params)

    def test_distinct_keys_get_distinct_instances(self):
        params = self._unique_hap("keys")
        assert symmetric_hap_to_mmpp(params) is not symmetric_hap_to_mmpp(
            params, x_max=4, y_max=8
        )
        assert symmetric_hap_to_mmpp(params) is not symmetric_hap_to_mmpp(
            params, mass_tol=1e-9
        )

    def test_service_rate_and_name_do_not_enter_the_key(self):
        # Neither the message service rate nor the name is read by the
        # chain builders, so a service-rate sweep shares one chain.
        params = self._unique_hap("fields")
        for variant in (
            params.with_service_rate(17.0),
            self._unique_hap("fields", message_service_rate=9.0),
            self._unique_hap("fields", name="renamed"),
        ):
            assert symmetric_hap_to_mmpp(variant) is symmetric_hap_to_mmpp(params)
            assert hap_to_mmpp(variant) is hap_to_mmpp(params)

    @pytest.mark.parametrize(
        "override",
        [
            {"user_arrival_rate": 0.06},
            {"user_departure_rate": 0.06},
            {"app_arrival_rate": 0.06},
            {"app_departure_rate": 0.06},
            {"message_arrival_rate": 0.5},
            {"num_app_types": 3},
        ],
        ids=lambda override: next(iter(override)),
    )
    def test_every_chain_field_enters_the_key(self, override):
        params = self._unique_hap("fields")
        changed = self._unique_hap("fields", **override)
        assert symmetric_hap_to_mmpp(changed) is not symmetric_hap_to_mmpp(params)
        assert hap_to_mmpp(changed) is not hap_to_mmpp(params)

    def test_construction_never_solves_stationary(self, monkeypatch):
        # The lazy-boundary-mass contract: building an (untrimmed) mapped
        # chain must not trigger a stationary solve; only the first
        # boundary_mass access may, and the result is then memoized.
        from repro.markov.ctmc import CTMC

        calls = []
        original = CTMC.stationary_distribution

        def counting(self):
            calls.append(1)
            return original(self)

        monkeypatch.setattr(CTMC, "stationary_distribution", counting)
        mapped = symmetric_hap_to_mmpp(self._unique_hap("lazy"))
        assert calls == []
        first = mapped.boundary_mass
        assert len(calls) == 1
        assert mapped.boundary_mass == first
        assert len(calls) == 1


class TestMassTrimming:
    # The paper-base box actually has sub-threshold corner mass (the tiny
    # fixture HAPs do not), so these tests run on a mid-size paper chain.
    def _paper_chain(self, mass_tol=None):
        from repro.experiments.configs import base_parameters

        return symmetric_hap_to_mmpp(
            base_parameters(), x_max=14, y_max=70, mass_tol=mass_tol
        )

    def test_trim_preserves_statistics(self):
        from repro.markov.truncation import TrimmedStateSpace

        full = self._paper_chain()
        trimmed = self._paper_chain(mass_tol=1e-10)
        assert isinstance(trimmed.space, TrimmedStateSpace)
        assert trimmed.space.size < full.space.size
        assert trimmed.mean_rate == pytest.approx(full.mean_rate, rel=1e-7)
        assert trimmed.mmpp.rate_variance() == pytest.approx(
            full.mmpp.rate_variance(), rel=1e-6
        )

    def test_trim_generator_rows_sum_to_zero(self):
        trimmed = self._paper_chain(mass_tol=1e-10)
        row_sums = np.asarray(trimmed.mmpp.generator.sum(axis=1)).ravel()
        np.testing.assert_allclose(row_sums, 0.0, atol=1e-12)

    def test_trim_everything_rejected(self):
        params = TestMappingCache()._unique_hap("all")
        with pytest.raises(ValueError, match="trim away every state"):
            symmetric_hap_to_mmpp(params, mass_tol=2.0)
