"""Profile-driven self-tuning: close the loop from run profiles to plans.

The rest of the optimizer measures what a run cost (:mod:`cost`), which
tier answered each prompt (:mod:`repro.llm.cache`) and what every operator
spent (:mod:`repro.obs.profile`) — but until now the execution knobs
(worker count, chunk size, batched-vs-single provider path) were
hand-picked per call site.  This module closes the loop:

- :class:`ProfileStore` — a crash-tolerant, append-only JSONL store beside
  the cache journal (same torn-tail truncation and compaction discipline
  as the run journals) persisting per-operator :class:`~repro.obs.profile.
  ProfileRow` slices, provider/cache/distilled time and cost splits, chunk
  latency histograms and coalescing hit rates across runs.  Keyed by the
  plan's chunking-independent fingerprint plus each operator's
  ``config_identity()`` digest, so a re-run of the same app finds its own
  history and a reconfigured operator does not inherit a stale one.
- :func:`fit_cost_model` — simple fitted cost models per operator: linear
  in records for local work (non-negative least squares so predictions are
  monotonic), per-call for provider work, with cache-hit-rate
  extrapolation from the store.  Deterministic given the store contents.
- :class:`PlanTuner` — consulted by ``system.run(autotune=True)`` /
  ``run_stream(autotune=True)`` at plan-build time.  It chooses worker
  count, chunk size and the batched-vs-single provider path, writing every
  decision and the predicted-vs-actual delta into the trace and
  ``RunReport.tuning``.

**Tuning never changes outputs.**  Applied decisions are restricted to
knobs proven byte-identical by the determinism suite — scheduler worker
counts (1/2/8) always; chunk size and prefetch on/off only on *verified
fully-warm* batch runs, where every prompt the plan
will ask is already in the exact cache tier (proved by comparing the
stored key digests of the previous run's ledger against the live cache),
so chunk boundaries and the prime scan are provably output-neutral.
Streaming runs tune the worker count only: their plan key excludes the
input data, so warmth can never be verified, and a resumable shard ledger
is keyed by chunk-size-dependent fingerprints anyway.  A decision that
cannot be applied without changing outputs (the cold batch engine switch,
anything under a checkpoint) is recorded with ``applied: false``; knobs
that always change outputs — the distillation routing threshold, the
near-duplicate cache tier — are not tuned at all.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator

from repro.llm.cache import PROVENANCE_DISTILLED, CacheKey, key_digest

__all__ = [
    "PROFILE_STORE_FORMAT_VERSION",
    "DEFAULT_KEEP",
    "KEY_DIGEST_CAP",
    "LATENCY_BUCKETS",
    "SAFE_WORKER_COUNTS",
    "WARM_CHUNK_SIZE",
    "Observation",
    "RunObservation",
    "ProfileStore",
    "OperatorCostModel",
    "fit_cost_model",
    "PlanPrediction",
    "TuningDecision",
    "TuningPlan",
    "PlanTuner",
    "observe_run",
    "resolve_profile_path",
]

PROFILE_STORE_FORMAT_VERSION = 1

#: Observations kept per (plan, operator, config) key after compaction.
DEFAULT_KEEP = 32

#: Ledger key digests recorded per run for the warm-cache proof; a run
#: touching more keys than this is marked warm-unverifiable (never tuned
#: on the warm-only knobs) rather than truncated.
KEY_DIGEST_CAP = 4096

#: Fixed per-record latency histogram buckets (virtual seconds).
LATENCY_BUCKETS = (0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0)

#: Scheduler worker counts proven byte-identical by the determinism suite.
SAFE_WORKER_COUNTS = (1, 2, 8)

#: Chunk size chosen on verified-warm runs (cache hits only: boundaries
#: are output-neutral, and fewer chunks means less scope/merge overhead).
WARM_CHUNK_SIZE = 64

#: Predicted provider seconds above which a cold streaming run is worth
#: spreading over the full safe worker count.
_PARALLEL_SECONDS_BAR = 1.0


def _canonical_json(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, ensure_ascii=False)


def _content_id(payload: dict) -> str:
    """Deterministic identity of one observation (dedupe + merge order)."""
    return hashlib.sha256(_canonical_json(payload).encode("utf-8")).hexdigest()[
        :16
    ]


def op_config_digest(config: Any) -> str:
    """Short digest of a module's ``config_identity()`` payload."""
    return hashlib.sha256(_canonical_json(config).encode("utf-8")).hexdigest()[:16]


def latency_histogram(latencies: Iterable[float]) -> list[int]:
    """Fixed-bucket per-record latency histogram (last bucket = overflow)."""
    counts = [0] * (len(LATENCY_BUCKETS) + 1)
    for value in latencies:
        for index, bound in enumerate(LATENCY_BUCKETS):
            if value <= bound:
                counts[index] += 1
                break
        else:
            counts[-1] += 1
    return counts


@dataclass(frozen=True)
class Observation:
    """One operator's profile slice from one run."""

    plan: str
    op: str
    op_config: str
    engine: str  # "batch" | "stream"
    records_in: int
    row: dict[str, Any]  # ProfileRow.to_dict()
    wall_seconds: float
    knobs: dict[str, Any]

    def key(self) -> tuple[str, str, str]:
        return (self.plan, self.op, self.op_config)

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": "op",
            "v": PROFILE_STORE_FORMAT_VERSION,
            "plan": self.plan,
            "op": self.op,
            "op_config": self.op_config,
            "engine": self.engine,
            "records_in": self.records_in,
            "row": self.row,
            "wall_seconds": self.wall_seconds,
            "knobs": self.knobs,
        }

    @property
    def obs_id(self) -> str:
        return _content_id(self.to_dict())

    @classmethod
    def from_dict(cls, payload: dict) -> "Observation":
        return cls(
            plan=str(payload["plan"]),
            op=str(payload["op"]),
            op_config=str(payload["op_config"]),
            engine=str(payload.get("engine", "batch")),
            records_in=int(payload["records_in"]),
            row=dict(payload["row"]),
            wall_seconds=float(payload["wall_seconds"]),
            knobs=dict(payload.get("knobs", {})),
        )


@dataclass(frozen=True)
class RunObservation:
    """One whole run: knobs used, totals, and the warm-cache evidence."""

    plan: str
    engine: str
    seq: int
    records_in: int
    totals: dict[str, Any]
    wall_seconds: float
    knobs: dict[str, Any]
    coalesced: int
    latency_hist: list[int]
    key_digests: list[str]
    warm_eligible: bool
    decisions: list[dict[str, Any]] = field(default_factory=list)
    predicted: dict[str, Any] = field(default_factory=dict)
    actual: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": "run",
            "v": PROFILE_STORE_FORMAT_VERSION,
            "plan": self.plan,
            "engine": self.engine,
            "seq": self.seq,
            "records_in": self.records_in,
            "totals": self.totals,
            "wall_seconds": self.wall_seconds,
            "knobs": self.knobs,
            "coalesced": self.coalesced,
            "latency_hist": list(self.latency_hist),
            "key_digests": list(self.key_digests),
            "warm_eligible": self.warm_eligible,
            "decisions": self.decisions,
            "predicted": self.predicted,
            "actual": self.actual,
        }

    @property
    def obs_id(self) -> str:
        return _content_id(self.to_dict())

    @classmethod
    def from_dict(cls, payload: dict) -> "RunObservation":
        return cls(
            plan=str(payload["plan"]),
            engine=str(payload.get("engine", "batch")),
            seq=int(payload.get("seq", 0)),
            records_in=int(payload.get("records_in", 0)),
            totals=dict(payload.get("totals", {})),
            wall_seconds=float(payload.get("wall_seconds", 0.0)),
            knobs=dict(payload.get("knobs", {})),
            coalesced=int(payload.get("coalesced", 0)),
            latency_hist=[int(x) for x in payload.get("latency_hist", [])],
            key_digests=[str(x) for x in payload.get("key_digests", [])],
            warm_eligible=bool(payload.get("warm_eligible", False)),
            decisions=list(payload.get("decisions", [])),
            predicted=dict(payload.get("predicted", {})),
            actual=dict(payload.get("actual", {})),
        )


class ProfileStore:
    """Crash-tolerant append-only JSONL store of run profiles.

    Persistence rides the same :class:`~repro.core.runtime.checkpoint.
    CheckpointJournal` machinery as the run journals: appends are flushed
    lines with group-committed fsync, and :meth:`load` (run at
    construction) truncates a torn or corrupt tail instead of failing —
    ``torn_bytes`` reports how much a crash cost.  ``path=None`` keeps the
    store purely in memory (tuning works within one process, nothing
    persists).

    Only the last ``keep`` observations per (plan, operator, config) key —
    and per plan for run lines — are retained in memory; :meth:`compact`
    rewrites the file down to that same retained state via a tmp file and
    an atomic replace, exactly like the cache journal's compaction.
    """

    def __init__(
        self, path: str | Path | None = None, keep: int = DEFAULT_KEEP
    ):
        if keep < 1:
            raise ValueError("keep must be at least 1")
        self.path = Path(path) if path is not None else None
        self.keep = keep
        self.torn_bytes = 0
        self.lines_loaded = 0
        self._lock = threading.RLock()
        self._ops: "OrderedDict[tuple[str, str, str], list[Observation]]" = (
            OrderedDict()
        )
        self._runs: "OrderedDict[str, list[RunObservation]]" = OrderedDict()
        self._ids: set[str] = set()
        self._journal = None
        if self.path is not None:
            from repro.core.runtime.checkpoint import CheckpointJournal

            self._journal = CheckpointJournal(self.path)
            for record in self._journal.load():
                self._ingest(record)
                self.lines_loaded += 1
            self.torn_bytes = self._journal.torn_bytes

    # -- state -----------------------------------------------------------------

    def _ingest(self, record: dict) -> bool:
        kind = record.get("kind")
        try:
            if kind == "op":
                observation = Observation.from_dict(record)
            elif kind == "run":
                observation = RunObservation.from_dict(record)
            else:
                return False  # forward compatible: unknown kinds are skipped
        except (KeyError, TypeError, ValueError):
            return False
        return self._add(observation)

    def _add(self, observation: "Observation | RunObservation") -> bool:
        obs_id = observation.obs_id
        if obs_id in self._ids:
            return False
        self._ids.add(obs_id)
        if isinstance(observation, Observation):
            bucket = self._ops.setdefault(observation.key(), [])
        else:
            bucket = self._runs.setdefault(observation.plan, [])
        bucket.append(observation)
        while len(bucket) > self.keep:
            dropped = bucket.pop(0)
            self._ids.discard(dropped.obs_id)
        return True

    def append(self, observation: "Observation | RunObservation") -> bool:
        """Add one observation; journalled durably when persistent.

        Returns whether the observation was new (duplicates — identical
        content — are dropped, which is what makes merging runs of two
        stores commutative).
        """
        with self._lock:
            added = self._add(observation)
            if added and self._journal is not None:
                self._journal.append(observation.to_dict(), durable=True)
            return added

    def observations(
        self, plan: str, op: str | None = None, op_config: str | None = None
    ) -> list[Observation]:
        """Stored operator observations, oldest first."""
        with self._lock:
            out: list[Observation] = []
            for (p, o, c), bucket in self._ops.items():
                if p != plan:
                    continue
                if op is not None and o != op:
                    continue
                if op_config is not None and c != op_config:
                    continue
                out.extend(bucket)
            return out

    def runs(self, plan: str) -> list[RunObservation]:
        """Stored run observations for ``plan``, oldest first."""
        with self._lock:
            return list(self._runs.get(plan, []))

    def last_run(self, plan: str) -> RunObservation | None:
        runs = self.runs(plan)
        return runs[-1] if runs else None

    def state_dict(self) -> dict[str, Any]:
        """Canonical retained state (tests compare stores through this)."""
        with self._lock:
            return {
                "ops": {
                    "/".join(key): [obs.to_dict() for obs in bucket]
                    for key, bucket in sorted(self._ops.items())
                },
                "runs": {
                    plan: [run.to_dict() for run in bucket]
                    for plan, bucket in sorted(self._runs.items())
                },
            }

    def merge(self, other: "ProfileStore") -> "ProfileStore":
        """A new in-memory store holding both stores' observations.

        Observations are united by content identity and re-ordered by
        ``obs_id`` inside each key, so ``a.merge(b)`` and ``b.merge(a)``
        produce equal :meth:`state_dict` regardless of which run wrote
        which store first (merge commutativity, pinned by hypothesis).
        """
        merged = ProfileStore(keep=max(self.keep, other.keep))
        everything: list[Any] = []
        for store in (self, other):
            with store._lock:
                for bucket in store._ops.values():
                    everything.extend(bucket)
                for bucket in store._runs.values():
                    everything.extend(bucket)
        for observation in sorted(everything, key=lambda o: o.obs_id):
            merged._add(observation)
        return merged

    # -- persistence -----------------------------------------------------------

    def compact(self) -> int:
        """Rewrite the journal from retained state; returns lines written.

        Same crash discipline as the cache journal: the survivors are
        written to a ``.compact`` sibling first and atomically renamed over
        the journal, so a crash mid-compaction leaves either the old or
        the new file intact, never a hybrid.
        """
        if self.path is None:
            return 0
        with self._lock:
            lines = [
                obs.to_dict()
                for bucket in self._ops.values()
                for obs in bucket
            ]
            lines.extend(
                run.to_dict()
                for bucket in self._runs.values()
                for run in bucket
            )
            if self._journal is not None:
                self._journal.close()
            tmp = self.path.with_suffix(self.path.suffix + ".compact")
            with tmp.open("w", encoding="utf-8") as handle:
                for line in lines:
                    handle.write(_canonical_json(line) + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            tmp.replace(self.path)
            from repro.core.runtime.checkpoint import CheckpointJournal

            self._journal = CheckpointJournal(self.path)
            return len(lines)

    def close(self) -> None:
        """Settle pending fsyncs and release the journal handle."""
        with self._lock:
            if self._journal is not None:
                self._journal.close()


def resolve_profile_path(
    profile_path: str | Path | None, service: Any
) -> Path | None:
    """Where the profile store lives: explicit path, else beside the cache
    journal (``<cache>.autotune.jsonl``), else nowhere (memory only)."""
    if profile_path is not None:
        return Path(profile_path)
    journal = getattr(getattr(service, "cache", None), "journal", None)
    if journal is not None:
        cache_path = Path(journal.path)
        return cache_path.parent / (cache_path.stem + ".autotune" + cache_path.suffix)
    return None


# -- cost models ---------------------------------------------------------------


@dataclass(frozen=True)
class OperatorCostModel:
    """A fitted per-operator cost model.

    Every coefficient is clamped non-negative at fit time, which is what
    makes :meth:`predict` monotonic in ``records`` by construction (the
    hypothesis suite pins this): more records can never be predicted
    cheaper or faster.
    """

    op: str
    observations: int = 0
    #: ledger records issued per input record (map ops ~1, local ops 0)
    calls_per_record: float = 0.0
    #: mean dollar cost of one paid provider call
    per_call_cost: float = 0.0
    #: mean virtual seconds of one provider-path call (paid or failed)
    per_call_seconds: float = 0.0
    #: mean virtual seconds of one distilled local answer
    per_distilled_seconds: float = 0.0
    #: host wall seconds per record of local (non-ledger) work
    per_record_wall: float = 0.0
    #: host wall seconds intercept
    base_wall: float = 0.0
    #: observed fraction of calls answered without paying the provider
    hit_rate: float = 0.0

    def predict(
        self, records: int, hit_rate: float | None = None
    ) -> dict[str, float]:
        """Predicted cost/latency/wall for a run over ``records`` records."""
        rate = self.hit_rate if hit_rate is None else hit_rate
        rate = min(1.0, max(0.0, rate))
        calls = records * self.calls_per_record
        paid = calls * (1.0 - rate)
        return {
            "provider_calls": paid,
            "cost": paid * self.per_call_cost,
            "provider_seconds": paid * self.per_call_seconds,
            "wall_seconds": self.base_wall + records * self.per_record_wall,
        }


def fit_cost_model(op: str, observations: list[Observation]) -> OperatorCostModel:
    """Fit one operator's cost model from its stored observations.

    Provider work is per-call (total cost / total paid calls); local work
    is linear in records (least squares over ``(records_in,
    wall_seconds)`` with slope and intercept clamped to zero or above);
    the cache hit rate is the observed zero-cost fraction, which the tuner
    extrapolates to 1.0 when the live cache provably holds every key.
    Deterministic given the observations (sums run in stored order).
    """
    if not observations:
        return OperatorCostModel(op=op)
    total_records = sum(o.records_in for o in observations)
    total_calls = sum(int(o.row.get("calls", 0)) for o in observations)
    total_paid = sum(int(o.row.get("provider_calls", 0)) for o in observations)
    # provider_seconds accumulates every non-cached record's latency —
    # failures and fallbacks included — so the per-call rate divides by
    # the provider-path record count (paid successes + failures), not by
    # paid successes alone, or retried runs would bias latency upward.
    total_provider_path = total_paid + sum(
        int(o.row.get("failures", 0)) for o in observations
    )
    total_cached = sum(
        int(o.row.get("cache_exact", 0))
        + int(o.row.get("cache_near", 0))
        + int(o.row.get("distilled", 0))
        for o in observations
    )
    total_distilled = sum(int(o.row.get("distilled", 0)) for o in observations)
    total_cost = sum(float(o.row.get("cost", 0.0)) for o in observations)
    total_provider_seconds = sum(
        float(o.row.get("provider_seconds", 0.0)) for o in observations
    )
    total_distilled_seconds = sum(
        float(o.row.get("distilled_seconds", 0.0)) for o in observations
    )
    # Non-negative least squares (slope then intercept, both clamped).
    points = [(o.records_in, max(0.0, o.wall_seconds)) for o in observations]
    n = len(points)
    mean_x = sum(x for x, _ in points) / n
    mean_y = sum(y for _, y in points) / n
    var_x = sum((x - mean_x) ** 2 for x, _ in points)
    if var_x > 0:
        slope = sum((x - mean_x) * (y - mean_y) for x, y in points) / var_x
    elif mean_x > 0:
        slope = mean_y / mean_x
    else:
        slope = 0.0
    slope = max(0.0, slope)
    intercept = max(0.0, mean_y - slope * mean_x)
    return OperatorCostModel(
        op=op,
        observations=n,
        calls_per_record=(total_calls / total_records) if total_records else 0.0,
        per_call_cost=(total_cost / total_paid) if total_paid else 0.0,
        per_call_seconds=(
            total_provider_seconds / total_provider_path
            if total_provider_path
            else 0.0
        ),
        per_distilled_seconds=(
            total_distilled_seconds / total_distilled if total_distilled else 0.0
        ),
        per_record_wall=slope,
        base_wall=intercept,
        hit_rate=(total_cached / total_calls) if total_calls else 0.0,
    )


@dataclass
class PlanPrediction:
    """Summed per-operator predictions for one upcoming run."""

    provider_calls: float = 0.0
    cost: float = 0.0
    provider_seconds: float = 0.0
    wall_seconds: float = 0.0

    def to_dict(self) -> dict[str, float]:
        return {
            "provider_calls": round(self.provider_calls, 6),
            "cost": round(self.cost, 10),
            "provider_seconds": round(self.provider_seconds, 9),
            "wall_seconds": round(self.wall_seconds, 6),
        }


# -- the tuner -----------------------------------------------------------------


@dataclass
class TuningDecision:
    """One knob choice, applied or advisory, with its audit trail."""

    op: str  # operator name, or "*" for a run-wide knob
    knob: str
    default: Any
    chosen: Any
    basis: str
    applied: bool

    def to_dict(self) -> dict[str, Any]:
        return {
            "op": self.op,
            "knob": self.knob,
            "default": self.default,
            "chosen": self.chosen,
            "basis": self.basis,
            "applied": self.applied,
        }


@dataclass
class TuningPlan:
    """What the tuner decided for one run: effective knobs + audit trail."""

    plan_key: str
    engine: str
    verified_warm: bool
    workers: int | None
    chunk_size: int | None
    decisions: list[TuningDecision] = field(default_factory=list)
    pinned: dict[str, Any] = field(default_factory=dict)
    predicted: PlanPrediction = field(default_factory=PlanPrediction)
    #: per-op (module attr, value, restore value) applied around execute
    module_knobs: list[tuple[Any, str, Any, Any]] = field(default_factory=list)

    def decisions_dict(self) -> list[dict[str, Any]]:
        return [decision.to_dict() for decision in self.decisions]

    @contextmanager
    def applied(self) -> Iterator["TuningPlan"]:
        """Set the per-module knobs for one run and restore them after."""
        for module, attr, value, _restore in self.module_knobs:
            setattr(module, attr, value)
        try:
            yield self
        finally:
            for module, attr, _value, restore in self.module_knobs:
                setattr(module, attr, restore)


class PlanTuner:
    """Chooses execution knobs for one plan from its profile history.

    The decision surface is a pure function of (store contents, plan
    identity, caller-pinned knobs, live cache warmth): same store, same
    plan, same pins — same decisions, at any worker count.  That is the
    autotune determinism contract CI pins.
    """

    def __init__(
        self,
        store: ProfileStore,
        plan: Any,
        service: Any,
        engine: str = "batch",
    ):
        self.store = store
        self.plan = plan
        self.service = service
        self.engine = engine
        self._plan_key: str | None = None
        self._ledger_mark = 0
        self._coalesced_mark = 0
        self._wall_marks: dict[str, float] = {}
        self._records_in = 0
        self._tuning: TuningPlan | None = None

    # -- identity ----------------------------------------------------------------

    def plan_key(self, inputs: dict | None) -> str:
        """Chunking-independent plan identity (the store's primary key)."""
        if self._plan_key is None:
            if self.engine == "stream":
                from repro.core.runtime.checkpoint import fingerprint_payload

                self._plan_key = fingerprint_payload(
                    {
                        "mode": "autotune-stream",
                        "plan": self.plan.fingerprint(None, chunk_size=None),
                    }
                )
            else:
                self._plan_key = self.plan.fingerprint(inputs, chunk_size=None)
        return self._plan_key

    def _op_models(self, plan_key: str) -> dict[str, OperatorCostModel]:
        models: dict[str, OperatorCostModel] = {}
        for binding in self.plan.bound:
            op = binding.operator.name
            config = op_config_digest(binding.module.config_identity())
            models[op] = fit_cost_model(
                op, self.store.observations(plan_key, op, config)
            )
        return models

    def _verify_warm(self, plan_key: str) -> bool:
        """Whether the live exact tier provably answers every prompt.

        True only when the last stored run was warm-eligible (every ledger
        record succeeded, none distilled, under the digest cap) and every
        key digest it recorded is present in the live exact tier.

        Streaming runs are never warm-verifiable: their plan key is built
        from ``fingerprint(None)`` — it excludes the input data — so a
        previous run's key digests prove nothing about the records the
        incoming iterable will actually ask about.  Declaring a different
        dataset "warm" would apply the warm-only knobs to what is really a
        cold run and change its ledger.
        """
        if self.engine == "stream":
            return False
        last = self.store.last_run(plan_key)
        if last is None or not last.warm_eligible or not last.key_digests:
            return False
        cache = getattr(self.service, "cache", None)
        if cache is None or not getattr(self.service, "cache_enabled", True):
            return False
        live = cache.exact_digests()
        return all(digest in live for digest in last.key_digests)

    # -- decisions ---------------------------------------------------------------

    def tune(
        self,
        inputs: dict | None = None,
        workers: int | None = None,
        chunk_size: int | None = None,
        checkpointed: bool = False,
        records_in: int = 0,
    ) -> TuningPlan:
        """Choose knobs for the upcoming run; never changes outputs."""
        plan_key = self.plan_key(inputs)
        records = records_in or _count_records(inputs)
        if records == 0:
            # Streaming sources are opaque iterables; size the prediction
            # from the last stored run of the same plan instead.
            last = self.store.last_run(plan_key)
            if last is not None:
                records = last.records_in
        self._records_in = records
        models = self._op_models(plan_key)
        verified_warm = self._verify_warm(plan_key)
        hit_rate = 1.0 if verified_warm else None
        predicted = PlanPrediction()
        for model in models.values():
            estimate = model.predict(records, hit_rate=hit_rate)
            predicted.provider_calls += estimate["provider_calls"]
            predicted.cost += estimate["cost"]
            predicted.provider_seconds += estimate["provider_seconds"]
            predicted.wall_seconds += estimate["wall_seconds"]
        tuning = TuningPlan(
            plan_key=plan_key,
            engine=self.engine,
            verified_warm=verified_warm,
            workers=workers,
            chunk_size=chunk_size,
            predicted=predicted,
        )
        have_history = any(m.observations for m in models.values())
        if workers is not None:
            tuning.pinned["workers"] = workers
        if chunk_size is not None:
            tuning.pinned["chunk_size"] = chunk_size
        if have_history:
            self._decide_workers(tuning, checkpointed)
            self._decide_chunking(tuning, checkpointed)
        self._tuning = tuning
        self._mark()
        return tuning

    def _decide_workers(self, tuning: TuningPlan, checkpointed: bool) -> None:
        if "workers" in tuning.pinned:
            return
        if self.engine == "stream":
            # Streaming is byte-identical at any worker count, cold or
            # warm (the streaming crash matrix pins it), so the knob is
            # always applicable.
            chosen = (
                SAFE_WORKER_COUNTS[0]
                if tuning.predicted.provider_seconds < _PARALLEL_SECONDS_BAR
                else SAFE_WORKER_COUNTS[-1]
            )
            tuning.decisions.append(
                TuningDecision(
                    op="*",
                    knob="workers",
                    default=None,
                    chosen=chosen,
                    basis=(
                        f"predicted provider latency "
                        f"{tuning.predicted.provider_seconds:.2f}s; streaming "
                        "reports are byte-identical at any worker count"
                    ),
                    applied=True,
                )
            )
            tuning.workers = chosen
            return
        if checkpointed:
            tuning.decisions.append(
                TuningDecision(
                    op="*",
                    knob="workers",
                    default=None,
                    chosen=1,
                    basis=(
                        "checkpointed run: journal replay defaults workers=1; "
                        "resume may change workers, tuning defers to it"
                    ),
                    applied=False,
                )
            )
            return
        if tuning.verified_warm:
            # A verified fully-warm run answers everything from the exact
            # tier in input order, so the sequential path and the
            # scheduler produce identical ledgers — switching engines is
            # output-neutral *here* (and only here).
            tuning.decisions.append(
                TuningDecision(
                    op="*",
                    knob="workers",
                    default=None,
                    chosen=1,
                    basis=(
                        "verified warm cache: zero provider latency to "
                        "overlap, scheduler at 1 worker avoids pool overhead"
                    ),
                    applied=True,
                )
            )
            tuning.workers = 1
        else:
            tuning.decisions.append(
                TuningDecision(
                    op="*",
                    knob="workers",
                    default=None,
                    chosen=SAFE_WORKER_COUNTS[-1],
                    basis=(
                        "cold run: sequential and scheduler ledgers differ "
                        "(prefetch priming), so the engine switch is advisory; "
                        "pass workers= to opt in"
                    ),
                    applied=False,
                )
            )

    def _decide_chunking(self, tuning: TuningPlan, checkpointed: bool) -> None:
        if self.engine == "stream":
            # Streaming tunes workers only: a resumable ledger keys its
            # replay prefix on shard fingerprints cut at chunk_size, so a
            # tuned chunk size (or a disabled prime scan) would orphan the
            # prefix of any later run without the same tuning.
            return
        if checkpointed:
            basis = (
                "checkpointed run: chunk boundaries are journaled identity, "
                "changing them would orphan the replay prefix"
            )
            warm_ok = False
        elif not tuning.verified_warm:
            basis = (
                "cold or unverifiable cache: chunk size changes batch prime "
                "groups and prefetch changes the ledger, so both stay default"
            )
            warm_ok = False
        else:
            basis = (
                "verified warm cache: every prompt exact-hits in input order, "
                "so chunk boundaries and the prime scan are output-neutral"
            )
            warm_ok = True
        chunk_pinned = "chunk_size" in tuning.pinned
        for binding in self.plan.bound:
            module = binding.module
            if not module.chunk_capable:
                continue
            op = binding.operator.name
            if not chunk_pinned:
                tuning.decisions.append(
                    TuningDecision(
                        op=op,
                        knob="chunk_size",
                        default=None,
                        chosen=WARM_CHUNK_SIZE if warm_ok else None,
                        basis=basis,
                        applied=warm_ok,
                    )
                )
                if warm_ok:
                    tuning.module_knobs.append(
                        (module, "tuned_chunk_size", WARM_CHUNK_SIZE,
                         module.tuned_chunk_size)
                    )
            tuning.decisions.append(
                TuningDecision(
                    op=op,
                    knob="prefetch",
                    default=True,
                    chosen=not warm_ok,
                    basis=basis,
                    applied=warm_ok,
                )
            )
            if warm_ok:
                tuning.module_knobs.append(
                    (module, "prefetch_enabled", False, module.prefetch_enabled)
                )

    # -- recording ---------------------------------------------------------------

    def _mark(self) -> None:
        """Snapshot ledger/wall marks so :meth:`record` can slice the run."""
        self._ledger_mark = len(self.service.records)
        self._coalesced_mark = self.service.coalesced_calls
        self._wall_marks = {
            binding.operator.name: binding.module.stats.total_seconds
            for binding in self.plan.bound
        }

    def record(self, report: Any, wall_seconds: float) -> dict[str, Any]:
        """Persist the finished run's profile and the prediction audit.

        Appends one ``op`` observation per operator and one ``run`` line,
        computes the predicted-vs-actual deltas, attaches the audit dict
        to ``report.tuning`` and returns it.
        """
        tuning = self._tuning
        if tuning is None:
            raise RuntimeError("tune() must run before record()")
        plan_key = tuning.plan_key
        knobs = {
            "workers": tuning.workers,
            "chunk_size": tuning.chunk_size,
            "engine": self.engine,
        }
        rows = {row.module: row for row in report.profile.rows}
        records_in = self._records_in or (
            max((row.calls for row in rows.values()), default=0)
        )
        for binding in self.plan.bound:
            op = binding.operator.name
            row = rows.get(op)
            if row is None:
                continue
            wall = max(
                0.0,
                binding.module.stats.total_seconds
                - self._wall_marks.get(op, 0.0),
            )
            self.store.append(
                Observation(
                    plan=plan_key,
                    op=op,
                    op_config=op_config_digest(binding.module.config_identity()),
                    engine=self.engine,
                    records_in=records_in,
                    row=row.to_dict(),
                    wall_seconds=wall,
                    knobs=knobs,
                )
            )
        slice_ = self.service.records[self._ledger_mark :]
        # Streaming runs are never warm-eligible: their plan key excludes
        # the input data, so stored digests could "prove" warmth for a
        # different dataset (see :meth:`_verify_warm`).
        warm_eligible = (
            self.engine != "stream"
            and bool(slice_)
            and len(slice_) <= KEY_DIGEST_CAP
        )
        digests: list[str] = []
        provider_identity = self.service.provider.cache_identity()
        for record in slice_:
            if not record.succeeded or record.provenance == PROVENANCE_DISTILLED:
                warm_eligible = False
                break
            digests.append(
                key_digest(
                    CacheKey(
                        provider=provider_identity,
                        version=record.version,
                        prompt=record.prompt,
                        max_tokens=record.max_tokens,
                    )
                )
            )
        if not warm_eligible:
            digests = []
        totals = report.profile.totals()
        actual = {
            "provider_calls": totals.provider_calls,
            "cost": round(totals.cost, 10),
            "provider_seconds": round(totals.provider_seconds, 9),
            "wall_seconds": round(wall_seconds, 6),
        }
        predicted = tuning.predicted.to_dict()
        delta = {
            key: round(actual[key] - predicted[key], 10) for key in actual
        }
        audit = {
            "enabled": True,
            "engine": self.engine,
            "plan_key": plan_key,
            "verified_warm": tuning.verified_warm,
            "pinned": dict(tuning.pinned),
            "decisions": tuning.decisions_dict(),
            "predicted": predicted,
            "actual": actual,
            "delta": delta,
        }
        last_run = self.store.last_run(plan_key)
        self.store.append(
            RunObservation(
                plan=plan_key,
                engine=self.engine,
                # Continue from the last retained run's seq, not the bucket
                # length: the store keeps at most `keep` runs, so counting
                # the bucket would saturate at keep+1 instead of growing.
                seq=(last_run.seq if last_run is not None else 0) + 1,
                records_in=records_in,
                totals=totals.to_dict(),
                wall_seconds=wall_seconds,
                knobs=knobs,
                coalesced=self.service.coalesced_calls - self._coalesced_mark,
                latency_hist=latency_histogram(
                    record.latency_seconds for record in slice_
                ),
                key_digests=sorted(set(digests)),
                warm_eligible=warm_eligible,
                decisions=audit["decisions"],
                predicted=predicted,
                actual=actual,
            )
        )
        report.tuning = audit
        self._trace(audit)
        return audit

    def _trace(self, audit: dict[str, Any]) -> None:
        """Mirror the decision audit into the trace (autotune runs only)."""
        obs = getattr(self.service, "obs", None)
        tracer = getattr(obs, "tracer", None) if obs is not None else None
        if tracer is None or not tracer.enabled:
            return
        applied = sum(1 for d in audit["decisions"] if d["applied"])
        tracer.add_span(
            "autotune",
            kind="tuning",
            start=float(self.service.clock.now),
            decisions=len(audit["decisions"]),
            applied=applied,
            verified_warm=audit["verified_warm"],
            predicted_cost=audit["predicted"]["cost"],
            actual_cost=audit["actual"]["cost"],
        )


def _count_records(inputs: dict | None) -> int:
    """Size of the dominant list input (the demo pipelines' record count)."""
    if not isinstance(inputs, dict):
        return 0
    return max(
        (len(value) for value in inputs.values() if isinstance(value, list)),
        default=0,
    )


@contextmanager
def observe_run() -> Iterator[dict[str, float]]:
    """Measure one run's wall clock (the only host-time the tuner stores)."""
    import time

    marks = {"wall_seconds": 0.0}
    started = time.perf_counter()
    try:
        yield marks
    finally:
        marks["wall_seconds"] = time.perf_counter() - started
