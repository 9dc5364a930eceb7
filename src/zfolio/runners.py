"""Runners: how the online procedure executes solvers and features.

SimulatedRunner serves recorded runs and features from tables (with
optional crash and feature-timeout injection for fault-path testing);
ExternalRunner parses a CNF file, extracts features for real, and launches
the configured solver commands.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cnf import read_dimacs_file
from .execution import run_external
from .features import FeatureVector, extract_all
from .probes import ProbeBudget
from .runtimes import RunRecord, RuntimeMatrix, SolverDescriptor

CRASH_SECONDS = 1.0  # time an injected crash takes, within the time limit


@dataclass
class SimulatedRunner:
    """Replays a runtime matrix; instances are identified by id strings.

    `crashes` is a set of (solver_id, instance_id) pairs that crash instead
    of running; `feature_timeouts` forces the feature phase to time out for
    those instances.
    """

    features_table: dict[str, FeatureVector]
    matrix: RuntimeMatrix
    crashes: set = field(default_factory=set)
    feature_timeouts: set = field(default_factory=set)

    def features(self, instance_id: str, budget: ProbeBudget, seed: int) -> FeatureVector:
        if instance_id in self.feature_timeouts:
            return FeatureVector(None, budget.total_seconds, True, seed)
        fv = self.features_table.get(instance_id)
        if fv is None:
            return FeatureVector(None, 0.0, True, seed)
        return fv

    def run(self, solver_id: str, instance_id: str, time_limit: float) -> RunRecord:
        if (solver_id, instance_id) in self.crashes:
            t = min(CRASH_SECONDS, time_limit)
            return RunRecord(solver_id, instance_id, t, "crash")
        rec = self.matrix.get(solver_id, instance_id)
        if rec.solved and rec.runtime_seconds <= time_limit:
            return rec
        if rec.status == "crash" and rec.runtime_seconds <= time_limit:
            return rec
        return RunRecord(solver_id, instance_id, time_limit, "timeout")


class ExternalRunner:
    """Runs real solver binaries on a CNF file path."""

    def __init__(self, descriptors: dict[str, SolverDescriptor]):
        self.descriptors = descriptors

    def features(self, instance_path, budget: ProbeBudget, seed: int) -> FeatureVector:
        formula = read_dimacs_file(instance_path)
        return extract_all(formula, budget, seed)

    def run(self, solver_id: str, instance_path, time_limit: float) -> RunRecord:
        return run_external(self.descriptors[solver_id], instance_path, time_limit)
