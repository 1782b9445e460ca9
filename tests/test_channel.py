"""Channel model: connectivity and the Gilbert-Elliott loss process."""

import random

import pytest

from repro.sim.channel import Channel, GilbertElliottLink, LinkQuality
from repro.sim.topology import Position, linear_positions


class TestLinkQuality:
    def test_defaults_match_paper_description(self):
        quality = LinkQuality()
        assert quality.bad_fraction == pytest.approx(0.1)
        assert quality.mean_bad_duration == pytest.approx(3.0)

    def test_mean_good_duration_from_bad_fraction(self):
        quality = LinkQuality(bad_fraction=0.1, mean_bad_duration=3.0)
        assert quality.mean_good_duration == pytest.approx(27.0)

    def test_average_loss(self):
        quality = LinkQuality(good_loss=0.0, bad_loss=1.0, bad_fraction=0.25)
        assert quality.average_loss == pytest.approx(0.25)

    def test_perfect_and_stable_factories(self):
        assert LinkQuality.perfect().average_loss == 0.0
        assert LinkQuality.stable(0.05).average_loss == pytest.approx(0.05)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            LinkQuality(good_loss=1.5)
        with pytest.raises(ValueError):
            LinkQuality(bad_fraction=1.0)
        with pytest.raises(ValueError):
            LinkQuality(mean_bad_duration=0.0)


class TestGilbertElliottLink:
    """With ``good_loss=0`` and ``bad_loss=1`` an attempt succeeds exactly
    when the link is in its good state, so outcomes read the chain."""

    def test_no_bad_state_when_fraction_zero(self):
        quality = LinkQuality(good_loss=0.0, bad_loss=1.0, bad_fraction=0.0)
        link = GilbertElliottLink(quality, random.Random(1))
        for t in range(0, 1000, 50):
            assert link.transmission_succeeds(float(t))

    def test_long_run_bad_fraction_close_to_target(self):
        quality = LinkQuality(good_loss=0.0, bad_loss=1.0, bad_fraction=0.2, mean_bad_duration=3.0)
        link = GilbertElliottLink(quality, random.Random(7))
        samples = [link.transmission_succeeds(t * 0.5) for t in range(40_000)]
        observed = samples.count(False) / len(samples)
        assert 0.12 <= observed <= 0.28

    def test_transmission_succeeds_is_deterministic_per_seed(self):
        quality = LinkQuality()
        a = GilbertElliottLink(quality, random.Random(3))
        b = GilbertElliottLink(quality, random.Random(3))
        assert [a.transmission_succeeds(t * 0.1) for t in range(100)] == [
            b.transmission_succeeds(t * 0.1) for t in range(100)
        ]

    def test_perfect_link_never_loses(self):
        link = GilbertElliottLink(LinkQuality.perfect(), random.Random(1))
        assert all(link.transmission_succeeds(t * 1.0) for t in range(200))

    def test_long_idle_gap_fast_forwards_with_bounded_rng_draws(self):
        # A link queried after a huge idle gap must not replay millions
        # of dwell transitions: after MAX_CATCHUP_TRANSITIONS sampled
        # dwells the chain jumps to its stationary distribution.
        class CountingRandom(random.Random):
            calls = 0

            def random(self):
                CountingRandom.calls += 1
                return super().random()

        rng = CountingRandom(3)
        quality = LinkQuality(bad_fraction=0.5, mean_bad_duration=0.001)
        link = GilbertElliottLink(quality, rng)
        before = CountingRandom.calls
        link.transmission_succeeds(1e9)  # ~1e12 transitions if replayed faithfully
        draws = CountingRandom.calls - before
        assert link.fast_forwards == 1
        # The outcome draw, the sampled dwells, then one state and one dwell draw.
        assert draws <= GilbertElliottLink.MAX_CATCHUP_TRANSITIONS + 3
        # Subsequent nearby queries advance normally again.
        link.transmission_succeeds(1e9 + 0.001)
        assert link.fast_forwards <= 2

    def test_short_gaps_never_fast_forward(self):
        quality = LinkQuality(bad_fraction=0.2, mean_bad_duration=3.0)
        link = GilbertElliottLink(quality, random.Random(5))
        for t in range(0, 5000, 5):
            link.transmission_succeeds(float(t))
        assert link.fast_forwards == 0


class TestChannel:
    def _channel(self, num_nodes=4, spacing=40.0, radio_range=50.0, quality=None):
        return Channel(
            linear_positions(num_nodes, spacing),
            radio_range=radio_range,
            rng=random.Random(0),
            default_quality=quality or LinkQuality.perfect(),
        )

    def test_in_range_neighbours_only(self):
        channel = self._channel()
        assert channel.in_range(0, 1)
        assert not channel.in_range(0, 2)
        assert not channel.in_range(0, 0)

    def test_neighbors_of(self):
        channel = self._channel()
        assert channel.neighbors_of(1) == {0, 2}

    def test_connectivity_graph(self):
        channel = self._channel(num_nodes=3)
        graph = channel.connectivity()
        assert graph == {0: {1}, 1: {0, 2}, 2: {1}}

    def test_set_position_changes_connectivity(self):
        channel = self._channel()
        channel.set_position(1, Position(1000.0, 0.0))
        assert not channel.in_range(0, 1)
        assert 1 not in channel.neighbors_of(0)

    def test_set_position_unknown_node(self):
        channel = self._channel()
        with pytest.raises(KeyError):
            channel.set_position(99, Position(0, 0))

    def test_unknown_node_ids_raise_not_alias(self):
        # Regression: positions moved from a dict to a list; negative
        # ids must keep raising instead of aliasing the last node.
        channel = self._channel()
        with pytest.raises(KeyError):
            channel.neighbors_of(-1)
        with pytest.raises(KeyError):
            channel.in_range(0, -1)
        with pytest.raises(KeyError):
            channel.in_range(99, 0)
        with pytest.raises(KeyError):
            channel.transmission_succeeds(0, 99, now=0.0)
        with pytest.raises(KeyError):
            channel.position_of(-1)

    def test_out_of_range_loss_probability_is_one(self):
        channel = self._channel()
        assert not any(channel.transmission_succeeds(0, 3, now=float(t)) for t in range(100))

    def test_perfect_link_always_succeeds(self):
        channel = self._channel()
        assert all(channel.transmission_succeeds(0, 1, now=float(t)) for t in range(100))

    def test_average_loss_probability_uses_quality(self):
        channel = self._channel(quality=LinkQuality(good_loss=0.1, bad_loss=0.5, bad_fraction=0.1))
        assert channel.average_loss_probability(0, 1) == pytest.approx(0.9 * 0.1 + 0.1 * 0.5)

    def test_lossy_link_statistics(self):
        channel = self._channel(quality=LinkQuality(good_loss=0.5, bad_loss=0.5, bad_fraction=0.0))
        outcomes = [channel.transmission_succeeds(0, 1, now=t * 0.1) for t in range(2000)]
        success_rate = sum(outcomes) / len(outcomes)
        assert 0.42 <= success_rate <= 0.58
