"""The distributed shard runtime (see ENGINE.md, "Distributed stages").

Shards GOGGLES' three embarrassingly parallel stages — chunked VGG
feature extraction (paper §3, stage 1), affinity tile construction
(§3, stage 2) and per-affinity-function base GMM fits (§4, §5.3) —
across worker processes that may live on other machines, over a
lease-based fault-tolerant task queue, with results merged back
bit-identically to the serial path (shards lease and report in
batches; large results stream back as framed wire-v2 buffers rather
than one giant pickle):

* :mod:`repro.distributed.tasks` — content-addressed shard tasks and
  the :class:`ShardPlanner` that cuts stage work into them.
* :mod:`repro.distributed.queue` — the lease/retry/poison bookkeeping.
* :mod:`repro.distributed.broker` — the authenticated TCP front door.
* :mod:`repro.distributed.worker` — the pull/compute/report loop.
* :mod:`repro.distributed.coordinator` — the session object the
  engines drive when they are given one.  The caller opens it, passes
  it to ``Goggles(coordinator=...)``, keeps it warm across runs and
  closes it; workers join it as ``goggles-repro worker`` processes.
* :mod:`repro.distributed.wire` — wire format v2, the only payload
  format: raw npy result buffers behind a framed header.
"""

from repro.distributed import wire
from repro.distributed.broker import DEFAULT_PORT, Broker
from repro.distributed.coordinator import (
    DEFAULT_AUTHKEY,
    Coordinator,
    DistributedConfig,
    default_authkey,
    parse_address,
    require_safe_authkey,
)
from repro.distributed.queue import PoisonShardError, ShardAutotuner, TaskQueue
from repro.distributed.tasks import (
    ShardPlanner,
    ShardTask,
    base_fit_task,
    execute_shard,
    extraction_task,
    load_shard_result,
    required_result_keys,
    similarity_task,
)
from repro.distributed.worker import (
    DEFAULT_FRAME_BYTES,
    DEFAULT_LEASE_BATCH,
    DEFAULT_POLL_INTERVAL_MAX,
    DEFAULT_STREAM_THRESHOLD,
    Worker,
)
from repro.distributed.wire import (
    WireFormatError,
    decode_arrays,
    decode_telemetry,
    encode_arrays,
    encode_telemetry,
)

__all__ = [
    "DEFAULT_AUTHKEY",
    "DEFAULT_FRAME_BYTES",
    "DEFAULT_LEASE_BATCH",
    "DEFAULT_POLL_INTERVAL_MAX",
    "DEFAULT_PORT",
    "DEFAULT_STREAM_THRESHOLD",
    "Broker",
    "Coordinator",
    "DistributedConfig",
    "PoisonShardError",
    "ShardAutotuner",
    "ShardPlanner",
    "ShardTask",
    "TaskQueue",
    "WireFormatError",
    "Worker",
    "base_fit_task",
    "decode_arrays",
    "decode_telemetry",
    "default_authkey",
    "encode_arrays",
    "encode_telemetry",
    "execute_shard",
    "extraction_task",
    "load_shard_result",
    "parse_address",
    "require_safe_authkey",
    "required_result_keys",
    "similarity_task",
    "wire",
]
