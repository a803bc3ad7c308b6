"""Units: durations, epoch conversion, energy arithmetic."""

import pytest

from repro.errors import ValidationError
from repro.units import Duration, joules_from_current


class TestDuration:
    def test_one_minute_is_sixty_seconds(self):
        assert Duration(1, "min").seconds == 60.0

    def test_paper_example_three_months(self):
        # "the last 3 months" at one epoch per day = 90 epochs.
        assert Duration(3, "months").epochs(epoch_seconds=86400.0) == 90

    def test_unit_spellings_are_case_insensitive(self):
        assert Duration(2, "MIN").seconds == Duration(2, "min").seconds

    def test_plural_and_singular_agree(self):
        assert Duration(5, "minute").seconds == Duration(5, "minutes").seconds

    def test_milliseconds(self):
        assert Duration(500, "ms").seconds == 0.5

    def test_weeks(self):
        assert Duration(2, "weeks").seconds == 2 * 7 * 86400

    def test_unknown_unit_rejected(self):
        with pytest.raises(ValidationError):
            Duration(1, "fortnight")

    def test_negative_amount_rejected(self):
        with pytest.raises(ValidationError):
            Duration(-1, "s")

    def test_epochs_rounds_to_nearest(self):
        assert Duration(90, "s").epochs(epoch_seconds=60.0) == 2

    def test_epochs_is_at_least_one(self):
        assert Duration(1, "ms").epochs(epoch_seconds=60.0) == 1

    def test_epochs_requires_positive_epoch(self):
        with pytest.raises(ValidationError):
            Duration(1, "min").epochs(epoch_seconds=0.0)

    def test_str_round_trips_integers(self):
        assert str(Duration(3, "months")) == "3 months"

    def test_str_keeps_fractions(self):
        assert str(Duration(1.5, "h")) == "1.5 h"


class TestEnergyArithmetic:
    def test_joules_from_current(self):
        # 27 mA at 3 V for 1 s = 81 mJ.
        assert joules_from_current(0.027, 3.0, 1.0) == pytest.approx(0.081)

    def test_zero_time_is_zero_energy(self):
        assert joules_from_current(0.027, 3.0, 0.0) == 0.0

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValidationError):
            joules_from_current(-0.01, 3.0, 1.0)
