#!/usr/bin/env python3
"""Spatio-temporal historic query (§I): zebras with similar trajectories.

The paper's intro motivates historic top-k with "Find the K zebras with
the most similar trajectories to zebra X" (the ZebraNet workload of
reference [2]). This example reproduces that pipeline:

1. every collar buffers its own GPS trajectory locally (horizontal
   fragmentation — similarity to a reference is computable per collar);
2. the sink floods zebra X's reference trajectory into the network
   (its dissemination cost is charged);
3. each collar reduces its buffered trajectory to one similarity score
   (negative mean Euclidean distance, normalised to a 0–100 scale); and
4. a TOP-K query over the derived score ranks the herd in-network with
   MINT, verified against the centralized oracle.

Run:  python examples/zebranet_trajectories.py
"""

import math
import random

from repro.api import Deployment, EpochDriver
from repro.core import oracle_scores
from repro.core.aggregates import make_aggregate
from repro.network.messages import ScoreListMessage, ObjectScore
from repro.network.simulator import Network
from repro.network.topology import random_topology
from repro.sensing.board import SensorBoard
from repro.sensing.generators import ConstantField

HERD = 24          # collared zebras
TRAJECTORY_LEN = 96  # buffered fixes per collar
K = 3
REFERENCE_ZEBRA = 5


def make_trajectories(seed=11):
    """Correlated random-walk trajectories: a herd drifts together,
    individuals wander around the herd centroid."""
    rng = random.Random(seed)
    herd_position = [500.0, 500.0]
    herd_track = []
    for _ in range(TRAJECTORY_LEN):
        herd_position[0] += rng.uniform(-8, 8)
        herd_position[1] += rng.uniform(-8, 8)
        herd_track.append(tuple(herd_position))
    trajectories = {}
    for zebra in range(1, HERD + 1):
        wander = rng.uniform(2.0, 40.0)  # some follow closely, some stray
        offset = (rng.uniform(-50, 50), rng.uniform(-50, 50))
        track = []
        for hx, hy in herd_track:
            track.append((hx + offset[0] + rng.uniform(-wander, wander),
                          hy + offset[1] + rng.uniform(-wander, wander)))
        trajectories[zebra] = track
    return trajectories


def similarity(track_a, track_b):
    """Negative mean pointwise distance, mapped onto [0, 100]."""
    distance = sum(math.hypot(ax - bx, ay - by)
                   for (ax, ay), (bx, by) in zip(track_a, track_b))
    mean = distance / len(track_a)
    return max(0.0, 100.0 - mean)


def main():
    print("KSpot spatio-temporal query — ZebraNet trajectory similarity")
    print("=" * 64)

    trajectories = make_trajectories()
    reference = trajectories[REFERENCE_ZEBRA]

    # Local reduction: one similarity score per collar.
    scores = {zebra: similarity(track, reference)
              for zebra, track in trajectories.items()
              if zebra != REFERENCE_ZEBRA}

    # Deploy the herd as a connected ad-hoc network.
    topology = random_topology(HERD, area=200.0, radio_range=60.0, seed=3)
    field = ConstantField(scores, default=0.0)
    network = Network(
        topology,
        boards={z: SensorBoard({"sound": field}, quantize=False)
                for z in range(1, HERD + 1)},
        group_of={z: z for z in range(1, HERD + 1)},
    )

    # Charge the reference-trajectory dissemination (4 bytes per fix
    # ride in ScoreList-shaped frames, flooded down the tree).
    reference_message = ScoreListMessage(items=tuple(
        ObjectScore(t, x) for t, (x, _) in enumerate(reference)))
    network.flood_down(reference_message)
    dissemination = network.stats.snapshot()
    print(f"reference trajectory dissemination: "
          f"{dissemination.messages} broadcasts, "
          f"{dissemination.payload_bytes} bytes")

    # In-network TOP-K over the derived score, through the facade: the
    # herd is one deployment, the similarity ranking one session.
    participants = {z: z for z in scores}
    aggregate = make_aggregate("AVG", 0, 100)
    deployment = Deployment(network, group_of=participants)
    handle = deployment.submit(
        f"SELECT TOP {K} roomid, AVERAGE(sound) FROM sensors "
        f"GROUP BY roomid EPOCH DURATION 1 min")
    EpochDriver(deployment).run(2)  # creation epoch, then pruned update
    result = handle.last_result

    truth = oracle_scores(scores, participants, aggregate)
    expected = sorted(truth.items(), key=lambda kv: (-kv[1], kv[0]))[:K]

    print(f"\nzebras most similar to zebra {REFERENCE_ZEBRA}:")
    for rank, item in enumerate(result.items, start=1):
        mean_distance = 100.0 - item.score
        print(f"  {rank}. zebra {item.key:2d}  similarity {item.score:.1f} "
              f"(mean distance {mean_distance:.1f} m)")

    assert [i.key for i in result.items] == [z for z, _ in expected]
    print("\nverified against the centralized oracle.")
    print(f"total traffic: {network.stats.messages} messages, "
          f"{network.stats.payload_bytes} payload bytes")


if __name__ == "__main__":
    main()
