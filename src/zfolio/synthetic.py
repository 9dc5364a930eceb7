"""Synthetic benchmarks: lognormal solvers over latent instance clusters.

A desk-scale stand-in for real competition runs: instances fall into a few
latent clusters with planted feature shifts, each solver draws its runtime
from a per-cluster lognormal, and local-search style solvers never solve
unsatisfiable instances. This makes end-to-end portfolio experiments
meaningful without shipping third-party solver binaries.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field

import numpy as np

from .features import NUM_FEATURES, FeatureVector
from .runtimes import RunRecord, RuntimeMatrix, SolverDescriptor
from .scoring import PurseConfig

CATEGORY_NAMES = ("random", "handmade", "industrial")
SERIES_SIZE = 10  # instances of one cluster per series
FEATURE_SECONDS = 3.0  # least feature time; each instance adds up to 0.5 s


@dataclass(frozen=True)
class SyntheticInstance:
    id: str
    cluster: int
    satisfiable: bool
    category: str


@dataclass
class SyntheticSolverModel:
    """Per-cluster lognormal runtime model for one synthetic solver."""

    solver_id: str
    kind: str
    log_mu: dict[int, float]
    log_sigma: dict[int, float]

    def __post_init__(self):
        if any(s <= 0 for s in self.log_sigma.values()):
            raise ValueError("log_sigma values must be positive")


def _derived_seed(seed: int, solver_id: str, instance_id: str) -> int:
    digest = hashlib.sha256(f"{seed}:{solver_id}:{instance_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def run_synthetic(model: SyntheticSolverModel, instance: SyntheticInstance,
                  cutoff_seconds: float, seed: int) -> RunRecord:
    """Sample one run; deterministic in (model, instance, seed)."""
    if model.kind == "local_search" and not instance.satisfiable:
        return RunRecord(model.solver_id, instance.id, cutoff_seconds, "timeout")
    rng = random.Random(_derived_seed(seed, model.solver_id, instance.id))
    mu = model.log_mu[instance.cluster]
    sigma = model.log_sigma[instance.cluster]
    runtime = math.exp(rng.gauss(mu, sigma))
    if runtime > cutoff_seconds:
        return RunRecord(model.solver_id, instance.id, cutoff_seconds, "timeout")
    status = "sat" if instance.satisfiable else "unsat"
    return RunRecord(model.solver_id, instance.id, runtime, status)


@dataclass
class SyntheticBenchmark:
    instances: list[SyntheticInstance]
    features: dict[str, FeatureVector]
    descriptors: list[SolverDescriptor]
    models: dict[str, SyntheticSolverModel]
    matrix: RuntimeMatrix
    series: dict[str, str]
    purse: PurseConfig = field(default_factory=PurseConfig)


def default_solver_models(clusters: int, seed: int) -> tuple[list[SolverDescriptor], dict[str, SyntheticSolverModel]]:
    """Three complete solvers (one dominant per cluster, cycling when there
    are more clusters) and three local-search solvers that are fast on
    satisfiable instances but useless on unsatisfiable ones."""
    rng = random.Random(seed)
    descriptors = []
    models = {}
    for j in range(3):
        sid = f"complete-{chr(ord('a') + j)}"
        descriptors.append(SolverDescriptor(sid, "complete"))
        mu, sigma = {}, {}
        for k in range(clusters):
            if k % 3 == j:
                mu[k] = math.log(5.0) + rng.uniform(-0.2, 0.2)
                sigma[k] = 0.5
            else:
                mu[k] = math.log(4000.0) + rng.uniform(-0.3, 0.3)
                sigma[k] = 1.0
        models[sid] = SyntheticSolverModel(sid, "complete", mu, sigma)
    for j in range(3):
        sid = f"local-{chr(ord('a') + j)}"
        descriptors.append(SolverDescriptor(sid, "local_search"))
        mu, sigma = {}, {}
        for k in range(clusters):
            if k % 3 == j:
                mu[k] = math.log(1.5) + rng.uniform(-0.2, 0.2)
                sigma[k] = 0.6
            else:
                mu[k] = math.log(40.0) + rng.uniform(-0.3, 0.3)
                sigma[k] = 0.8
        models[sid] = SyntheticSolverModel(sid, "local_search", mu, sigma)
    return descriptors, models


def generate_benchmark(num_instances: int = 600, clusters: int = 3, seed: int = 0,
                       unsat_fraction: float = 0.3,
                       cutoff_seconds: float = 1200.0) -> SyntheticBenchmark:
    """Build instances, planted features, solver models and sampled runs.

    Feature columns 0..5 carry the cluster signal, column 6 a noisy
    satisfiability hint; the rest is standard normal noise. Series group
    consecutive instances of the same cluster; the purse's time limit is
    the cutoff.
    """
    rng = random.Random(seed)
    nprng = np.random.default_rng(seed + 1)
    centers = nprng.normal(scale=3.0, size=(clusters, 6))

    instances = []
    features: dict[str, FeatureVector] = {}
    series: dict[str, str] = {}
    per_cluster_counter = [0] * clusters
    for i in range(num_instances):
        cluster = i % clusters
        satisfiable = rng.random() >= unsat_fraction
        category = CATEGORY_NAMES[cluster % len(CATEGORY_NAMES)]
        iid = f"synth-{i:05d}"
        instances.append(SyntheticInstance(iid, cluster, satisfiable, category))

        vec = nprng.normal(size=NUM_FEATURES)
        vec[:6] = centers[cluster] + nprng.normal(scale=0.5, size=6)
        vec[6] = (1.5 if satisfiable else -1.5) + nprng.normal(scale=1.0)
        features[iid] = FeatureVector(vec, FEATURE_SECONDS + rng.uniform(0, 0.5), False, seed)

        idx = per_cluster_counter[cluster]
        per_cluster_counter[cluster] += 1
        series[iid] = f"cluster{cluster}-series{idx // SERIES_SIZE}"

    descriptors, models = default_solver_models(clusters, seed + 2)
    matrix = RuntimeMatrix(cutoff_seconds)
    for inst in instances:
        for sid, model in models.items():
            matrix.add(run_synthetic(model, inst, cutoff_seconds, seed))

    return SyntheticBenchmark(
        instances, features, descriptors, models, matrix, series,
        PurseConfig(time_limit=cutoff_seconds),
    )
