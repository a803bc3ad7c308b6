"""Scenario configuration files, the Configuration Panel's load/store.

"The Configuration Panel … enables the user to load a new scenario
from a configuration file or to create a new scenario that can be
stored in a configuration file." The format here is JSON: sensor
positions, cluster membership, map dimensions, the sensed attribute
and the radio range — everything needed to re-deploy the network. The
file is the whole panel model: ``repro scenario-init`` writes one, and
``repro run`` and ``repro workload --scenario`` deploy it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import ScenarioError
from ..network.simulator import Network
from ..network.topology import Topology
from ..sensing.board import SensorBoard
from ..sensing.generators import FieldGenerator

FORMAT_VERSION = 1


@dataclass
class ScenarioConfig:
    """A serializable deployment description."""

    name: str
    map_width: float
    map_height: float
    radio_range: float
    attribute: str = "sound"
    sink_position: tuple[float, float] = (0.0, 0.0)
    positions: dict[int, tuple[float, float]] = field(default_factory=dict)
    cluster_of: dict[int, str] = field(default_factory=dict)
    floor_plan_caption: str = "floor plan"

    def validate(self) -> None:
        """Structural checks before deployment or saving."""
        if not self.positions:
            raise ScenarioError("scenario has no sensors")
        if self.radio_range <= 0:
            raise ScenarioError("radio range must be positive")
        for node_id, (x, y) in self.positions.items():
            if node_id == 0:
                raise ScenarioError("node id 0 is reserved for the sink")
            if not (0 <= x <= self.map_width and 0 <= y <= self.map_height):
                raise ScenarioError(
                    f"sensor {node_id} at ({x}, {y}) lies outside the map"
                )
        stray = sorted(set(self.cluster_of) - set(self.positions))
        if stray:
            raise ScenarioError(
                f"clustered sensors without positions: {stray}"
            )

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------

    def to_topology(self) -> Topology:
        """Physical layout for the simulator."""
        self.validate()
        positions: dict[int, tuple[float, float]] = {0: self.sink_position}
        positions.update(self.positions)
        return Topology(positions=positions, radio_range=self.radio_range)

    def deploy(self, field_generator: FieldGenerator) -> Network:
        """Instantiate the network with boards sensing the given field."""
        boards = {
            node_id: SensorBoard({self.attribute: field_generator})
            for node_id in self.positions
        }
        return Network(self.to_topology(), boards=boards,
                       group_of=dict(self.cluster_of))


def save_scenario(config: ScenarioConfig, path: str | Path) -> None:
    """Write a scenario to a JSON configuration file."""
    config.validate()
    payload = {
        "version": FORMAT_VERSION,
        "name": config.name,
        "map": {"width": config.map_width, "height": config.map_height},
        "radio_range": config.radio_range,
        "attribute": config.attribute,
        "sink": list(config.sink_position),
        "floor_plan_caption": config.floor_plan_caption,
        "sensors": [
            {
                "id": node_id,
                "x": x,
                "y": y,
                "cluster": config.cluster_of.get(node_id),
            }
            for node_id, (x, y) in sorted(config.positions.items())
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=2))


def load_scenario(path: str | Path) -> ScenarioConfig:
    """Read a scenario from a JSON configuration file."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ScenarioError(f"cannot load scenario: {error}") from error
    if not isinstance(payload, dict):
        raise ScenarioError(
            "malformed scenario file: expected a JSON object, got "
            f"{type(payload).__name__}")
    if payload.get("version") != FORMAT_VERSION:
        raise ScenarioError(
            f"unsupported scenario version {payload.get('version')!r}"
        )
    try:
        positions: dict[int, tuple[float, float]] = {}
        cluster_of: dict[int, str] = {}
        for sensor in payload["sensors"]:
            node_id, cluster = sensor["id"], sensor.get("cluster")
            if type(node_id) is not int:
                raise ScenarioError(
                    f"malformed scenario file: sensor id {node_id!r} is "
                    f"not an integer")
            if node_id in positions:
                raise ScenarioError(
                    f"malformed scenario file: sensor id {node_id} is "
                    f"listed twice")
            if isinstance(cluster, (list, dict)) or (
                    isinstance(cluster, float)
                    and not math.isfinite(cluster)):
                raise ScenarioError(
                    f"malformed scenario file: sensor {node_id} has "
                    f"cluster {cluster!r}, not a label")
            positions[node_id] = (_number(sensor["x"], f"sensor {node_id} x"),
                                  _number(sensor["y"], f"sensor {node_id} y"))
            if cluster is not None:
                cluster_of[node_id] = cluster
        sink = payload.get("sink", [0.0, 0.0])
        if not (isinstance(sink, list) and len(sink) == 2
                and all(type(value) in (int, float) for value in sink)):
            raise ScenarioError(
                f"malformed scenario file: sink {sink!r} is not a pair "
                f"of numbers")
        attribute = payload.get("attribute", "sound")
        if not isinstance(attribute, str):
            raise ScenarioError(
                f"malformed scenario file: attribute {attribute!r} is not "
                f"a string")
        config = ScenarioConfig(
            name=payload["name"],
            map_width=_number(payload["map"]["width"], "map width"),
            map_height=_number(payload["map"]["height"], "map height"),
            radio_range=_number(payload["radio_range"], "radio_range"),
            attribute=attribute,
            sink_position=(float(sink[0]), float(sink[1])),
            positions=positions,
            cluster_of=cluster_of,
            floor_plan_caption=payload.get("floor_plan_caption",
                                           "floor plan"),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as error:
        raise ScenarioError(f"malformed scenario file: {error}") from error
    config.validate()
    return config


def _number(value: object, what: str) -> float:
    """A field that must be a JSON number (an int or a float, never a
    bool), as a float. A non-finite one passes: deployment names it."""
    if type(value) not in (int, float):
        raise ScenarioError(
            f"malformed scenario file: {what} {value!r} is not a number")
    return float(value)
