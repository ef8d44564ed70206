"""Wire format v2: raw npy-style buffers instead of monolithic pickles.

Pickling a whole ``{name: array}`` result into one blob before framing
it copies every byte of every array once into the pickle, once more on
the join at reassembly, and a third time on ``pickle.loads``.  For the
multi-megabyte extraction and tile results that dominate distributed
traffic, those copies (not the compute) are a measurable slice of the
constant factor of a distributed run.  (Version 1 was that
pickled stream; it is no longer spoken.)

v2 serialises a result as a *list of buffers* instead of one blob:

* one small framed **header** describing every entry — name, dtype
  descriptor, shape, byte length — in fixed little-endian layout, and
* each array's **raw data buffer**, exported zero-copy via
  ``memoryview`` for C-contiguous arrays (anything else is made
  contiguous first, the same normalisation the kernels apply anyway).

:func:`iter_frames` then slices frames of ``frame_bytes`` across the
buffer list without ever concatenating it, so the worker never
materialises the payload twice.  The broker still reassembles the
framed stream into one blob (the existing length- and order-checked
machinery in :mod:`repro.distributed.broker`), after which
:func:`decode_arrays` reconstructs every array as a **zero-copy
read-only view** into that blob via ``np.frombuffer`` — no third copy,
and nothing on this path ever unpickles attacker-shapeable bytes.

A malformed blob (bad magic, truncated header, lengths that disagree
with the payload) raises :class:`WireFormatError`, which the broker
reports to the queue as a shard *failure* — burning a retry, exactly
like a short stream — never a completion.  The worker refuses the same
way on its side: a result :func:`encode_arrays` cannot express (an
object dtype) is reported as a failure, never pickled.
"""

from __future__ import annotations

import json
import struct
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "TELEMETRY_MAGIC",
    "TELEMETRY_VERSION",
    "WIRE_MAGIC",
    "WIRE_VERSION",
    "WireFormatError",
    "decode_telemetry",
    "encode_arrays",
    "decode_arrays",
    "encode_telemetry",
    "encoded_nbytes",
    "iter_frames",
]

#: First bytes of every v2 payload (GOGGLES Wire).
WIRE_MAGIC = b"GGLW"
WIRE_VERSION = 2

#: First bytes of every telemetry frame (GOGGLES Telemetry).
TELEMETRY_MAGIC = b"GGLT"
TELEMETRY_VERSION = 1

# Header layout (all little-endian):
#   magic(4s) version(u16) n_entries(u16)
# then per entry:
#   name_len(u16) name(utf-8) descr_len(u16) descr(ascii)
#   ndim(u8) shape(ndim x u64) data_len(u64)
_PREAMBLE = struct.Struct("<4sHH")
_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U64 = struct.Struct("<Q")

#: Hard ceiling on entries/dimensions a header may declare, so a
#: corrupt length field cannot ask the decoder for gigabytes of shape.
_MAX_ENTRIES = 4096
_MAX_NDIM = 32


class WireFormatError(ValueError):
    """A v2 payload that cannot be decoded (corrupt, truncated, alien)."""


def encode_arrays(arrays: dict[str, np.ndarray]) -> list[bytes | memoryview]:
    """Serialise ``{name: array}`` into ``[header, data, data, ...]``.

    C-contiguous array data is exported as a zero-copy ``memoryview``;
    non-contiguous or Fortran-ordered inputs are made C-contiguous
    first (value-neutral: the layout contract of shard results is
    carried by explicit flags in the result itself, never by wire-level
    strides).  Object dtypes are refused — the format exists precisely
    so no executable bytes travel in result payloads.
    """
    header = bytearray()
    buffers: list[bytes | memoryview] = []
    header += _PREAMBLE.pack(WIRE_MAGIC, WIRE_VERSION, len(arrays))
    if len(arrays) > _MAX_ENTRIES:
        raise WireFormatError(f"result holds {len(arrays)} entries (limit {_MAX_ENTRIES})")
    for name, value in arrays.items():
        array = np.asarray(value)
        if array.dtype.hasobject:
            raise WireFormatError(f"entry {name!r} has object dtype {array.dtype!r}")
        if not array.flags.c_contiguous:
            # np.ascontiguousarray would also promote 0-d scalars to
            # 1-d; gating on the flag keeps shapes exactly as given
            # (0-d arrays are always C-contiguous).
            array = np.ascontiguousarray(array)
        encoded_name = name.encode("utf-8")
        descr = np.lib.format.dtype_to_descr(array.dtype).encode("ascii")
        header += _U16.pack(len(encoded_name)) + encoded_name
        header += _U16.pack(len(descr)) + descr
        header += _U8.pack(array.ndim)
        for dim in array.shape:
            header += _U64.pack(dim)
        header += _U64.pack(array.nbytes)
        buffers.append(memoryview(array).cast("B") if array.nbytes else b"")
    return [bytes(header), *buffers]


def encoded_nbytes(buffers: Iterable[bytes | memoryview]) -> int:
    """Total payload bytes of an :func:`encode_arrays` buffer list."""
    return sum(len(buffer) for buffer in buffers)


def iter_frames(buffers: Iterable[bytes | memoryview], frame_bytes: int) -> Iterator[memoryview]:
    """Cut a buffer list into ``frame_bytes``-sized frames, zero-copy.

    Frames may span buffer boundaries; each yielded frame is a list of
    memoryview slices joined lazily by the caller's ``send`` — but
    since :mod:`multiprocessing.connection` sends one object at a time,
    spanning frames are assembled into a single ``bytes``.  Only the
    (rare) boundary-straddling frames pay that copy; frames that fall
    inside one buffer stay views.
    """
    if frame_bytes < 1:
        raise ValueError(f"frame_bytes must be >= 1, got {frame_bytes}")
    pending: list[memoryview] = []
    pending_len = 0
    for buffer in buffers:
        view = memoryview(buffer).cast("B") if not isinstance(buffer, memoryview) else buffer.cast("B")
        offset = 0
        length = len(view)
        while offset < length:
            take = min(frame_bytes - pending_len, length - offset)
            piece = view[offset : offset + take]
            offset += take
            if not pending and take == frame_bytes:
                yield piece  # whole frame inside one buffer: zero-copy
                continue
            pending.append(piece)
            pending_len += take
            if pending_len == frame_bytes:
                yield memoryview(b"".join(pending))
                pending, pending_len = [], 0
    if pending:
        yield memoryview(b"".join(pending))


# Telemetry frames: magic(4s) version(u16) then UTF-8 JSON.  Telemetry
# rides as an *optional trailing field* on ``report_many`` /
# ``result-end`` / ``bye``; a worker that ships none simply omits it.
# JSON (never pickle) keeps the same no-executable-bytes guarantee as
# the array payloads.
_TELEMETRY_PREAMBLE = struct.Struct("<4sH")

#: Ceiling on a telemetry frame so a corrupt peer cannot make the
#: broker parse an arbitrarily large JSON document.
_MAX_TELEMETRY_BYTES = 4 * 1024 * 1024


def encode_telemetry(payload: dict) -> bytes:
    """Serialise one telemetry payload (a JSON-able dict) to bytes."""
    if not isinstance(payload, dict):
        raise WireFormatError(f"telemetry payload must be a dict, got {type(payload).__name__}")
    try:
        body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as error:
        raise WireFormatError(f"telemetry payload is not JSON-able: {error}") from None
    if len(body) > _MAX_TELEMETRY_BYTES:
        raise WireFormatError(
            f"telemetry frame of {len(body)} bytes exceeds the {_MAX_TELEMETRY_BYTES} limit"
        )
    return _TELEMETRY_PREAMBLE.pack(TELEMETRY_MAGIC, TELEMETRY_VERSION) + body


def decode_telemetry(blob: bytes | bytearray | memoryview) -> dict:
    """Decode one telemetry frame; raises :class:`WireFormatError`."""
    view = memoryview(blob).cast("B") if not isinstance(blob, (bytes, bytearray)) else blob
    data = bytes(view)
    if len(data) < _TELEMETRY_PREAMBLE.size:
        raise WireFormatError(f"telemetry frame of {len(data)} bytes is shorter than the preamble")
    if len(data) > _TELEMETRY_PREAMBLE.size + _MAX_TELEMETRY_BYTES:
        raise WireFormatError(f"telemetry frame of {len(data)} bytes exceeds the size limit")
    magic, version = _TELEMETRY_PREAMBLE.unpack_from(data, 0)
    if magic != TELEMETRY_MAGIC:
        raise WireFormatError(f"bad telemetry magic {bytes(magic)!r} (expected {TELEMETRY_MAGIC!r})")
    if version != TELEMETRY_VERSION:
        raise WireFormatError(f"unsupported telemetry version {version} (expected {TELEMETRY_VERSION})")
    try:
        payload = json.loads(data[_TELEMETRY_PREAMBLE.size:].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise WireFormatError(f"undecodable telemetry body: {error}") from None
    if not isinstance(payload, dict):
        raise WireFormatError(f"telemetry body must be a JSON object, got {type(payload).__name__}")
    return payload


def _read(blob: memoryview, offset: int, n: int, what: str) -> tuple[memoryview, int]:
    if offset + n > len(blob):
        raise WireFormatError(f"truncated payload: {what} needs {n} bytes at offset {offset}")
    return blob[offset : offset + n], offset + n


def decode_arrays(blob: bytes | bytearray | memoryview) -> dict[str, np.ndarray]:
    """Decode one reassembled v2 payload into ``{name: array}``.

    Every array is a **read-only zero-copy view** into ``blob`` (via
    ``np.frombuffer``); callers that need to mutate copy explicitly.
    Raises :class:`WireFormatError` on any structural defect.
    """
    view = memoryview(blob).cast("B")
    if len(view) < _PREAMBLE.size:
        raise WireFormatError(f"payload of {len(view)} bytes is shorter than the preamble")
    magic, version, n_entries = _PREAMBLE.unpack_from(view, 0)
    if magic != WIRE_MAGIC:
        raise WireFormatError(f"bad magic {bytes(magic)!r} (expected {WIRE_MAGIC!r})")
    if version != WIRE_VERSION:
        raise WireFormatError(f"unsupported wire version {version} (expected {WIRE_VERSION})")
    if n_entries > _MAX_ENTRIES:
        raise WireFormatError(f"header declares {n_entries} entries (limit {_MAX_ENTRIES})")
    offset = _PREAMBLE.size
    entries: list[tuple[str, np.dtype, tuple[int, ...], int]] = []
    for _ in range(n_entries):
        raw, offset = _read(view, offset, _U16.size, "name length")
        (name_len,) = _U16.unpack(raw)
        raw, offset = _read(view, offset, name_len, "entry name")
        try:
            name = str(raw, "utf-8")
        except UnicodeDecodeError as error:
            raise WireFormatError(f"undecodable entry name: {error}") from None
        raw, offset = _read(view, offset, _U16.size, "descr length")
        (descr_len,) = _U16.unpack(raw)
        raw, offset = _read(view, offset, descr_len, "dtype descr")
        try:
            dtype = np.lib.format.descr_to_dtype(str(raw, "ascii"))
        except (ValueError, TypeError, UnicodeDecodeError) as error:
            raise WireFormatError(f"bad dtype descr for {name!r}: {error}") from None
        raw, offset = _read(view, offset, _U8.size, "ndim")
        (ndim,) = _U8.unpack(raw)
        if ndim > _MAX_NDIM:
            raise WireFormatError(f"entry {name!r} declares {ndim} dimensions (limit {_MAX_NDIM})")
        shape = []
        for axis in range(ndim):
            raw, offset = _read(view, offset, _U64.size, f"shape[{axis}]")
            shape.append(_U64.unpack(raw)[0])
        raw, offset = _read(view, offset, _U64.size, "data length")
        (data_len,) = _U64.unpack(raw)
        expected = int(np.prod(shape, dtype=np.uint64)) * dtype.itemsize if shape else dtype.itemsize
        if expected != data_len:
            raise WireFormatError(
                f"entry {name!r}: shape {tuple(shape)} x {dtype} implies {expected} bytes, "
                f"header declares {data_len}"
            )
        entries.append((name, dtype, tuple(int(dim) for dim in shape), int(data_len)))
    arrays: dict[str, np.ndarray] = {}
    for name, dtype, shape, data_len in entries:
        raw, offset = _read(view, offset, data_len, f"data of {name!r}")
        arrays[name] = np.frombuffer(raw, dtype=dtype).reshape(shape)
    if offset != len(view):
        raise WireFormatError(f"{len(view) - offset} trailing bytes after the last entry")
    return arrays
