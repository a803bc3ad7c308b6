"""SensorBoard: sampling, quantization, and the energy a read charges."""

import pytest

from repro.errors import ConfigurationError, ValidationError
from repro.network.node import SensorNode
from repro.sensing.board import SensorBoard
from repro.sensing.generators import ConstantField
from repro.sensing.modalities import get_modality


@pytest.fixture
def board():
    return SensorBoard({
        "sound": ConstantField({1: 42.42}),
        "temperature": ConstantField({1: 21.0}),
    })


class TestSampling:
    def test_sample_returns_quantized_value(self, board):
        value = board.sample("sound", 1, 0)
        assert value == get_modality("sound").quantize(42.42)

    def test_unquantized_board_returns_raw(self):
        raw = SensorBoard({"sound": ConstantField({1: 42.42})},
                          quantize=False)
        assert raw.sample("sound", 1, 0) == 42.42

    def test_unquantized_board_still_clamps(self):
        raw = SensorBoard({"sound": ConstantField({1: 412.0})},
                          quantize=False)
        assert raw.sample("sound", 1, 0) == 100.0

    def test_unknown_channel_raises(self, board):
        with pytest.raises(ValidationError, match="no 'light' channel"):
            board.sample("light", 1, 0)

    def test_attributes_sorted(self, board):
        assert board.attributes == ("sound", "temperature")


class TestEnergyCharging:
    def test_sample_charges_modality_cost(self, board):
        """The node reading the board books the modality's sampling
        cost once per epoch: a second read of the epoch is served from
        its sample and charges nothing."""
        node = SensorNode(1, board=board)
        node.read("sound", 0)
        assert node.ledger.sensing == get_modality("sound").sample_cost_joules
        node.read("sound", 0)
        assert node.ledger.sensing == get_modality("sound").sample_cost_joules


class TestConstruction:
    def test_empty_board_rejected(self):
        with pytest.raises(ConfigurationError):
            SensorBoard({})

    def test_unknown_modality_rejected(self):
        with pytest.raises(ValidationError):
            SensorBoard({"humidity": ConstantField({})})

    def test_modality_lookup(self, board):
        assert board.modality("sound").name == "sound"
