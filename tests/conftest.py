"""Shared fixtures: a small cluster, model and workload usable everywhere."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.cluster.collectives import CollectiveCostModel
from repro.cluster.profiler import Profiler
from repro.cluster.topology import ClusterTopology
from repro.config import ClusterConfig, MoEModelConfig, WorkloadConfig
from repro.core.cost_model import MoECostModel
from repro.core.placement import Placement
from repro.workload.synthetic import DriftingRoutingGenerator


@pytest.fixture
def cluster_config() -> ClusterConfig:
    """2 nodes x 4 GPUs: small enough for fast tests, has inter-node links."""
    return ClusterConfig(num_nodes=2, gpus_per_node=4)


@pytest.fixture
def topology(cluster_config: ClusterConfig) -> ClusterTopology:
    return ClusterTopology(cluster_config)


@pytest.fixture
def collectives(topology: ClusterTopology) -> CollectiveCostModel:
    return CollectiveCostModel(topology)


@pytest.fixture
def model_config() -> MoEModelConfig:
    return MoEModelConfig(
        "test-moe", num_layers=4, d_model=256, d_ffn=1024, num_experts=8
    )


@pytest.fixture
def exact_profile(topology: ClusterTopology, model_config: MoEModelConfig):
    return Profiler(topology, noise=0.0, seed=0).profile(model_config)


@pytest.fixture
def cost_model(exact_profile, model_config: MoEModelConfig) -> MoECostModel:
    return MoECostModel(exact_profile, model_config)


@pytest.fixture
def placement(model_config: MoEModelConfig, topology: ClusterTopology) -> Placement:
    return Placement.balanced(model_config.num_experts, topology.num_gpus, 2)


@pytest.fixture
def workload_config() -> WorkloadConfig:
    return WorkloadConfig(tokens_per_step=65_536, num_steps=10, seed=1)


@pytest.fixture
def assignment(
    model_config: MoEModelConfig,
    topology: ClusterTopology,
    workload_config: WorkloadConfig,
) -> np.ndarray:
    generator = DriftingRoutingGenerator(
        model_config.num_experts, topology.num_gpus, workload_config
    )
    return generator.next_step()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def committed_report():
    """``committed_report(name)`` -> ``(argv, report)`` of a committed
    ``BENCH_*.json``: the argv its provenance records, and the report
    without that provenance block -- what re-running ``python -m repro
    *argv`` must reproduce exactly for a simulated-only report."""

    def load(name: str) -> tuple[list[str], dict]:
        path = Path(__file__).resolve().parent.parent / name
        report = json.loads(path.read_text(encoding="utf-8"))
        return list(report.pop("provenance")["argv"]), report

    return load
