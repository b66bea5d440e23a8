"""Runtime facade: system, scheduler, checkpoints, streaming executor."""

from repro.core.runtime.checkpoint import (
    CheckpointError,
    CheckpointJournal,
    CheckpointMismatchError,
    RunCheckpoint,
)
from repro.core.runtime.scheduler import Scheduler
from repro.core.runtime.system import LinguaManga
from repro.core.runtime.workqueue import (
    ShardLedger,
    StreamingExecutor,
    StreamingPlanError,
)

__all__ = [
    "LinguaManga",
    "Scheduler",
    "RunCheckpoint",
    "CheckpointJournal",
    "CheckpointError",
    "CheckpointMismatchError",
    "ShardLedger",
    "StreamingExecutor",
    "StreamingPlanError",
]
