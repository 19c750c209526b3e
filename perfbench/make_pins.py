"""Write ``pins.json``: the expected outputs of the default seed.

Each pin is computed on a path independent of the one the workload
times: ensemble members run one by one through ``SequentialAirshed``
with one chemistry worker, never batched or tiled.  Run from the root
of a checkout::

    PYTHONPATH=src python3 perfbench/make_pins.py
"""

from __future__ import annotations

import json

import workloads as w
from repro.datasets import get_dataset
from repro.model import (
    AirshedConfig, BatchedEnsemble, PerturbedDataset, SequentialAirshed)


def episode_sha(dataset_name: str, hours: int) -> str:
    dataset = PerturbedDataset(get_dataset(dataset_name),
                               member_seed=w.DEFAULT_SEED, sigma=w.SIGMA)
    return w.sha256(SequentialAirshed(AirshedConfig(
        dataset=dataset, hours=hours, start_hour=6)).run().final_conc)


def member_shas(dataset_name: str, members: int) -> list:
    ensemble = BatchedEnsemble(
        AirshedConfig(dataset=get_dataset(dataset_name), hours=1,
                      start_hour=12),
        members=members, sigma=w.SIGMA, seed=w.DEFAULT_SEED)
    return [w.sha256(SequentialAirshed(ensemble.member_config(i))
                     .run().final_conc) for i in range(members)]


def main() -> None:
    pins = {
        "la_episode": {"full": episode_sha("la", 2),
                       "short": episode_sha("demo", 1)},
        "ensemble_la": {"full": member_shas("la", 8),
                        "short": member_shas("demo", 2)},
    }
    w.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
