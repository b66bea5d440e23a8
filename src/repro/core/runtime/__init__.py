"""Runtime facade: system, scheduler, checkpoints, streaming executor."""

from repro.core.runtime.cancel import CancelToken, JobCancelled
from repro.core.runtime.checkpoint import (
    CheckpointError,
    CheckpointJournal,
    CheckpointMismatchError,
    RunCheckpoint,
)
from repro.core.runtime.scheduler import Scheduler
from repro.core.runtime.system import LinguaManga
from repro.core.runtime.workqueue import (
    PoisonInfo,
    ShardLedger,
    StreamingExecutor,
    StreamingPlanError,
)

__all__ = [
    "LinguaManga",
    "Scheduler",
    "CancelToken",
    "JobCancelled",
    "RunCheckpoint",
    "CheckpointJournal",
    "CheckpointError",
    "CheckpointMismatchError",
    "ShardLedger",
    "PoisonInfo",
    "StreamingExecutor",
    "StreamingPlanError",
]
