"""The Lingua Manga optimizer: validator, simulator, connector, cost model."""

from repro.core.optimizer.connector import (
    ConnectorAnswer,
    ConnectorPolicyError,
    ExposureReport,
    TabularConnector,
)
from repro.core.optimizer.cost import CostComparison, CostSnapshot, CostTracker
from repro.core.optimizer.distill import DistillationRouter, DistillStats
from repro.core.optimizer.validator import (
    CaseResult,
    ModuleValidator,
    TestCase,
    ValidationReport,
)

__all__ = [
    "ConnectorAnswer",
    "ConnectorPolicyError",
    "ExposureReport",
    "TabularConnector",
    "CostComparison",
    "CostSnapshot",
    "CostTracker",
    "DistillationRouter",
    "DistillStats",
    "CaseResult",
    "ModuleValidator",
    "TestCase",
    "ValidationReport",
]
