"""Helpers shared by the workloads: loading the program from the
checkout, a DNS codec of the benchmark's own, and statistics."""

from __future__ import annotations

import hashlib
import resource
import statistics
import struct
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


class ProgramMissing(RuntimeError):
    """The checkout holds no program source to benchmark."""


def load_program() -> None:
    """Import `lluad` from this checkout's `src`, never from elsewhere."""
    if not (SRC / "lluad" / "client.py").is_file():
        raise ProgramMissing(f"no program source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import lluad.client

    where = Path(lluad.client.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ProgramMissing(f"lluad imported from {where}, not from {SRC}")


# -- results ------------------------------------------------------------------


@dataclass
class Result:
    """What one run measured.

    `e2e` holds the gated end-to-end metrics, `named` the workload's own
    figures under their descriptive names, `layers` the per-layer
    metrics of a traced run.  Values are (number, unit)."""

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    e2e: dict = field(default_factory=dict)
    named: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def fail(self, note: str, count: int = 1) -> None:
        self.failed += count
        if len(self.notes) < 20:
            self.notes.append(note)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values) -> float:
    return float(statistics.median(values))


_CAL_TABLE = {i: i * 7 for i in range(2048)}
_CAL_BLOB = bytes(range(256)) * 128


def python_task() -> None:
    """Interpreter work: 40k lookups in a 2048-entry table, 256 KB of
    SHA-256 (about 6 ms)."""
    acc = 0
    for i in range(40000):
        acc = (acc + _CAL_TABLE[(i * 7919) & 2047]) & 0xFFFFFFFF
    digest = hashlib.sha256()
    for _ in range(8):
        digest.update(_CAL_BLOB)


def crypto_task() -> None:
    """Mostly OpenSSL X25519, as a mix round is: 40 exchanges and a
    tenth of `python_task` (about 2.3 ms)."""
    from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey

    priv = X25519PrivateKey.from_private_bytes(bytes(range(32)))
    peer = X25519PrivateKey.from_private_bytes(bytes(range(1, 33))).public_key()
    for _ in range(40):
        priv.exchange(peer)
    acc = 0
    for i in range(4000):
        acc = (acc + _CAL_TABLE[(i * 7919) & 2047]) & 0xFFFFFFFF


class HostSpeed:
    """How fast the host runs right now, from a fixed calibration task
    timed between the workload's operations.

    On a shared host the same work runs at speeds that drift by up to
    half over minutes (one `list-sync` seed: median tick 101-130 ms in
    consecutive runs), while the tick time divided by the calibration
    time stayed within 16.9-18.4.  `scale()` rescales a time measured
    in this run to a host on which the task takes `reference_s`.  The
    tasks' working sets are small (a 2048-entry table, a 32 KB
    buffer), so the program's own memory does not change their time."""

    def __init__(self, task=python_task, reference_s: float = 0.006):
        self.task = task
        self.reference_s = reference_s
        self.samples: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.task()
        self.samples.append(time.perf_counter() - t0)

    def scale(self) -> float:
        """Multiply a measured time by this (divide a rate by it)."""
        return self.reference_s / median(self.samples)


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile, q in [0, 1]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


# -- a DNS codec independent of the program's --------------------------------

_HEADER = struct.Struct("!HHHHHH")
CLASS_IN = 1
TYPE_CNAME = 5


def name_wire(dotted: str) -> bytes:
    out = bytearray()
    for label in dotted.split("."):
        raw = label.encode("ascii")
        out.append(len(raw))
        out += raw
    out.append(0)
    return bytes(out)


def question(dotted: str, qtype: int) -> bytes:
    return name_wire(dotted) + struct.pack("!HH", qtype, CLASS_IN)


def query(txid: int, question_bytes: bytes) -> bytes:
    return _HEADER.pack(txid, 0x0100, 1, 0, 0, 0) + question_bytes


class BadResponse(ValueError):
    pass


def _read_name(msg: bytes, pos: int) -> tuple[str, int]:
    labels = []
    end = -1
    for _ in range(128):
        if pos >= len(msg):
            raise BadResponse("truncated name")
        length = msg[pos]
        if length & 0xC0 == 0xC0:
            if end < 0:
                end = pos + 2
            pos = ((length & 0x3F) << 8) | msg[pos + 1]
            continue
        if length == 0:
            return ".".join(labels).lower(), (end if end >= 0 else pos + 1)
        labels.append(msg[pos + 1 : pos + 1 + length].decode("ascii"))
        pos += 1 + length
    raise BadResponse("name loop")


@dataclass(frozen=True)
class Answer:
    owner: str
    rtype: int
    ttl: int
    data: bytes  # a CNAME's data is its target, dotted, as ascii


@dataclass(frozen=True)
class Response:
    txid: int
    flags: int
    qname: str
    qtype: int
    answers: tuple[Answer, ...]


def parse_response(msg: bytes) -> Response:
    try:
        txid, flags, qd, an, _ns, _ar = _HEADER.unpack_from(msg, 0)
        if qd != 1:
            raise BadResponse(f"{qd} questions")
        qname, pos = _read_name(msg, _HEADER.size)
        qtype, qclass = struct.unpack_from("!HH", msg, pos)
        pos += 4
        answers = []
        for _ in range(an):
            owner, pos = _read_name(msg, pos)
            rtype, rclass, ttl, rdlen = struct.unpack_from("!HHIH", msg, pos)
            pos += 10
            rdata = msg[pos : pos + rdlen]
            if len(rdata) != rdlen or rclass != CLASS_IN:
                raise BadResponse("bad answer record")
            if rtype == TYPE_CNAME:
                target, _ = _read_name(msg, pos)
                rdata = target.encode("ascii")
            answers.append(Answer(owner, rtype, ttl, rdata))
            pos += rdlen
    except (struct.error, IndexError, UnicodeDecodeError) as exc:
        raise BadResponse(str(exc)) from exc
    if pos != len(msg):
        raise BadResponse("trailing bytes")
    return Response(txid, flags, qname, qtype, tuple(answers))
