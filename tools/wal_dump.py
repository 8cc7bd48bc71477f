#!/usr/bin/env python3
"""Pretty-print and verify a moments-sketch WAL file (src/persist/wal.h).

Walks the file exactly like the C++ reader (ReadWalRecords): verifies the
header CRC, then each record's masked CRC32C through the framing loop
(walk_records) that also audits replication captures, decoding epoch
records (type 1) into epochs / dictionary deltas / cell sketches. A torn tail —
a record cut short with no checksum lie — is the expected post-crash
state and is reported but not an error; a checksum mismatch, an absurd
length prefix, or a damaged header is corruption and exits non-zero.

Usage: wal_dump.py WAL-file [--cells] [--strict]
       wal_dump.py --frames CAPTURE-file [--cells]

  --cells   print every cell's coordinates and sketch summary (default
            prints a one-line summary per epoch record)
  --strict  treat a torn tail as an error too (for verifying a log that
            should be clean, e.g. after a graceful shutdown)
  --frames  audit a replication frame capture (src/replica/frame.h wire
            frames, e.g. REPLICA_frames.bin from bench_replica_soak)
            instead of a WAL: verifies every frame CRC and type, the
            snapshot chunk sequence and whole-image CRC against
            kSnapEnd, and that delta epochs chain consecutively onto
            the shipped snapshot. A capture is written whole, so a torn
            tail is always corruption here.
"""

import struct
import sys

WAL_MAGIC = b"MSKWAL01"
# Version 1: per-cell coords + moments sketch. Version 2 inserts a tag
# byte between them (bit 0 = a KLL rank-sketch blob follows the moments
# sketch; all other bits must be zero). Both decode here.
WAL_VERSIONS = (1, 2)
CELL_HAS_KLL = 0x01
RECORD_EPOCH = 1
MAX_RECORD_LEN = 1 << 30
MASK_DELTA = 0xA282EAD8

# CRC32C (Castagnoli): reflected, poly 0x1EDC6F41, init/xorout 0xFFFFFFFF.
_POLY = 0x82F63B78  # reflected 0x1EDC6F41
_TABLE = []
for _i in range(256):
    _c = _i
    for _ in range(8):
        _c = (_c >> 1) ^ _POLY if _c & 1 else _c >> 1
    _TABLE.append(_c)


def crc32c(data, crc=0):
    crc ^= 0xFFFFFFFF
    for b in data:
        crc = _TABLE[(crc ^ b) & 0xFF] ^ (crc >> 8)
    return crc ^ 0xFFFFFFFF


def mask(crc):
    return (((crc >> 15) | (crc << 17)) + MASK_DELTA) & 0xFFFFFFFF


def unmask(masked):
    rot = (masked - MASK_DELTA) & 0xFFFFFFFF
    return ((rot >> 17) | (rot << 15)) & 0xFFFFFFFF


class Reader:
    """Little-endian cursor matching common/bytes.h BytesReader."""

    def __init__(self, buf):
        self.buf = buf
        self.pos = 0

    def _take(self, n, what):
        if len(self.buf) - self.pos < n:
            raise ValueError(f"payload underflow reading {what}")
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self, what="u8"):
        return self._take(1, what)[0]

    def u32(self, what="u32"):
        return struct.unpack("<I", self._take(4, what))[0]

    def u64(self, what="u64"):
        return struct.unpack("<Q", self._take(8, what))[0]

    def f64(self, what="f64"):
        return struct.unpack("<d", self._take(8, what))[0]

    def string(self, what="string"):
        n = self.u32(what + " length")
        return self._take(n, what).decode("utf-8", errors="replace")

    def remaining(self):
        return len(self.buf) - self.pos


def decode_kll(r):
    """KLL blob (sketches/kll_sketch.h Serialize): header + per-level
    double vectors, each length-prefixed."""
    k = r.u32("kll k")
    n = r.u64("kll n")
    err = r.u64("kll rank error bound")
    coin = r.u64("kll coin state")
    mn = r.f64("kll min")
    mx = r.f64("kll max")
    num_levels = r.u32("kll level count")
    if k > (1 << 24) or num_levels > 64:
        raise ValueError(f"implausible KLL header (k={k}, "
                         f"levels={num_levels})")
    retained = 0
    for _ in range(num_levels):
        count = r.u32("kll level length")
        if count > r.remaining() // 8:
            raise ValueError("KLL level exceeds payload")
        for _ in range(count):
            r.f64("kll item")
        retained += count
    if retained > n:
        raise ValueError(f"KLL retains {retained} items of count {n}")
    return {
        "k": k,
        "count": n,
        "rank_error_bound": err,
        "coin_state": coin,
        "min": mn,
        "max": mx,
        "levels": num_levels,
        "retained": retained,
    }


def decode_epoch_record(r, num_dims, version):
    epoch = r.u64("epoch")
    rec_dims = r.u32("dimension count")
    if num_dims is not None and rec_dims != num_dims:
        raise ValueError(f"record dims {rec_dims} != header dims {num_dims}")
    dicts = []
    for d in range(rec_dims):
        start = r.u32("dict start id")
        count = r.u32("dict value count")
        if count > r.remaining():
            raise ValueError("dict delta exceeds payload")
        dicts.append((start, [r.string("dict value") for _ in range(count)]))
    num_cells = r.u32("cell count")
    if num_cells > r.remaining():
        raise ValueError("cell count exceeds payload")
    cells = []
    for _ in range(num_cells):
        arity = r.u32("cell arity")
        if arity != rec_dims:
            raise ValueError(f"cell arity {arity} != dims {rec_dims}")
        coords = [r.u32("coord") for _ in range(arity)]
        has_kll = False
        if version >= 2:
            tag = r.u8("cell tag")
            if tag & ~CELL_HAS_KLL:
                raise ValueError(f"unknown cell tag bits {tag:#04x}")
            has_kll = bool(tag & CELL_HAS_KLL)
        k = r.u32("sketch k")
        if not 1 <= k <= 64:
            raise ValueError(f"sketch k={k} out of range")
        sketch = {
            "k": k,
            "count": r.u64("count"),
            "log_count": r.u64("log_count"),
            "min": r.f64("min"),
            "max": r.f64("max"),
            "power_sums": [r.f64("power sum") for _ in range(k)],
            "log_sums": [r.f64("log sum") for _ in range(k)],
        }
        kll = decode_kll(r) if has_kll else None
        cells.append((coords, sketch, kll))
    if r.remaining():
        raise ValueError(f"{r.remaining()} trailing bytes in payload")
    return epoch, dicts, cells


def print_epoch(rec_index, offset, epoch, dicts, cells, show_cells):
    new_values = sum(len(vals) for _, vals in dicts)
    rows = sum(s["count"] for _, s, _ in cells)
    with_kll = sum(1 for _, _, kll in cells if kll is not None)
    print(
        f"  record {rec_index} @ {offset:<8} epoch {epoch:<6} "
        f"cells={len(cells)} rows={rows} new_dict_values={new_values}"
        + (f" kll_cells={with_kll}" if with_kll else "")
    )
    for d, (start, vals) in enumerate(dicts):
        if vals:
            shown = ", ".join(repr(v) for v in vals[:6])
            more = f", … +{len(vals) - 6}" if len(vals) > 6 else ""
            print(f"    dim {d}: ids {start}..{start + len(vals) - 1}: "
                  f"{shown}{more}")
    if show_cells:
        for coords, s, kll in cells:
            line = (
                f"    cell {coords}: count={s['count']} "
                f"log_count={s['log_count']} min={s['min']:.6g} "
                f"max={s['max']:.6g} m1={s['power_sums'][0]:.6g}"
            )
            if kll is not None:
                line += (
                    f" | kll k={kll['k']} retained={kll['retained']} "
                    f"levels={kll['levels']} "
                    f"rank_err={kll['rank_error_bound']}"
                )
            print(line)


def walk_records(data, pos, on_record):
    """The one framing loop, for WAL records and wire frames alike.

    Both are sealed by src/common/sealed_record.h:
    u32 masked-CRC32C(type + payload) | u32 len | u8 type | payload.
    Calls on_record(index, offset, type, payload) for every intact
    record from `pos` on; a ValueError it raises marks that record
    invalid. Returns (records, end, outcome, message): outcome is
    "clean" (the data ends on a record boundary), "torn" (it ends
    inside a header or payload) or "corrupt" (CRC mismatch, a length
    prefix beyond the bound, or a record on_record rejected); `end` is
    the offset of the first byte not accepted.
    """
    records = 0
    while pos < len(data):
        left = len(data) - pos
        if left < 9:
            return records, pos, "torn", f"torn header @ {pos} ({left} bytes)"
        masked_crc, length, rtype = struct.unpack_from("<IIB", data, pos)
        if length > MAX_RECORD_LEN:
            return (records, pos, "corrupt",
                    f"@ {pos}: length prefix {length} exceeds max "
                    f"{MAX_RECORD_LEN}")
        if left - 9 < length:
            return (records, pos, "torn",
                    f"torn payload @ {pos} (type {rtype}, {left - 9} of "
                    f"{length} payload bytes)")
        payload = data[pos + 9 : pos + 9 + length]
        actual = crc32c(payload, crc32c(bytes([rtype])))
        if unmask(masked_crc) != actual:
            return (records, pos, "corrupt",
                    f"{records} @ {pos}: CRC mismatch (stored "
                    f"{unmask(masked_crc):#010x}, actual {actual:#010x})")
        try:
            on_record(records, pos, rtype, payload)
        except ValueError as e:
            return (records, pos, "corrupt",
                    f"{records} @ {pos}: checksum OK but invalid: {e}")
        pos += 9 + length
        records += 1
    return records, pos, "clean", None


# Replication frame types (src/replica/frame.h FrameType).
FRAME_NAMES = {
    1: "hello",
    2: "snap_begin",
    3: "snap_chunk",
    4: "snap_end",
    5: "delta",
    6: "caught_up",
    7: "heartbeat",
    8: "error",
}
CHECKPOINT_MAGIC = b"MSKCKPT1"


def dump_frames(path, show_cells):
    """Audits a replication frame capture (concatenated wire frames).

    Beyond per-frame CRCs, checks the protocol invariants the shipped
    stream must satisfy: snapshot chunks arrive in order and reassemble
    to exactly the advertised image (whose masked CRC must match the
    kSnapEnd trailer and whose bytes must be a checkpoint image), and
    delta epochs chain consecutively onto the snapshot cut.
    """
    with open(path, "rb") as f:
        data = f.read()
    print(f"{path}: {len(data)} bytes (replication frame capture)")

    snap = None          # in-flight chunk assembly
    snap_epoch = None    # epoch of the last completed snapshot
    delta_epochs = []
    caught_up = None

    def on_frame(index, pos, ftype, payload):
        nonlocal snap, snap_epoch, caught_up
        name = FRAME_NAMES.get(ftype)
        if name is None:
            raise ValueError(f"unknown frame type {ftype}")
        r = Reader(payload)
        if name == "snap_begin":
            epoch = r.u64("snapshot epoch")
            total = r.u64("total bytes")
            num_chunks = r.u32("chunk count")
            chunk_bytes = r.u32("chunk size")
            first_chunk = r.u32("first chunk")
            print(f"  frame {index} snap_begin: epoch {epoch}, "
                  f"{total} bytes in {num_chunks} x {chunk_bytes}B "
                  f"chunks from #{first_chunk}")
            if chunk_bytes == 0 or num_chunks == 0 or \
                    first_chunk >= num_chunks:
                raise ValueError("implausible snapshot geometry")
            if first_chunk != 0:
                print(f"    (resumed transfer; capture lacks chunks "
                      f"0..{first_chunk - 1}, image CRC not checkable)")
            snap = {
                "epoch": epoch,
                "total": total,
                "num_chunks": num_chunks,
                "chunk_bytes": chunk_bytes,
                "next": first_chunk,
                "resumed": first_chunk != 0,
                "buf": bytearray(),
            }
        elif name == "snap_chunk":
            chunk_index = r.u32("chunk index")
            chunk = payload[4:]
            if snap is None:
                raise ValueError("snap_chunk outside a transfer")
            if chunk_index != snap["next"]:
                raise ValueError(f"chunk #{chunk_index} out of order "
                                 f"(expected #{snap['next']})")
            last = chunk_index == snap["num_chunks"] - 1
            if not last and len(chunk) != snap["chunk_bytes"]:
                raise ValueError(f"chunk #{chunk_index} is {len(chunk)}B, "
                                 f"expected {snap['chunk_bytes']}B")
            snap["next"] += 1
            snap["buf"].extend(chunk)
        elif name == "snap_end":
            epoch = r.u64("snapshot epoch")
            image_crc = r.u32("image crc")
            if snap is None:
                raise ValueError("snap_end outside a transfer")
            if epoch != snap["epoch"]:
                raise ValueError(f"snap_end epoch {epoch} != "
                                 f"begin epoch {snap['epoch']}")
            if snap["next"] != snap["num_chunks"]:
                raise ValueError(f"snap_end after {snap['next']} of "
                                 f"{snap['num_chunks']} chunks")
            if not snap["resumed"]:
                image = bytes(snap["buf"])
                if len(image) != snap["total"]:
                    raise ValueError(f"assembled {len(image)}B, "
                                     f"advertised {snap['total']}B")
                if unmask(image_crc) != crc32c(image):
                    raise ValueError(
                        f"image CRC mismatch (trailer "
                        f"{unmask(image_crc):#010x}, assembled "
                        f"{crc32c(image):#010x})")
                if image[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
                    raise ValueError(
                        f"image magic {image[:8]!r} is not a "
                        f"checkpoint image")
            print(f"  frame {index} snap_end: epoch {epoch}, "
                  f"{snap['num_chunks']} chunks verified")
            snap_epoch = epoch
            snap = None
        elif name == "delta":
            epoch, dicts, cells = decode_epoch_record(r, None, 2)
            expected = None
            if delta_epochs:
                expected = delta_epochs[-1] + 1
            elif snap_epoch is not None:
                expected = snap_epoch + 1
            if expected is not None and epoch != expected:
                raise ValueError(f"delta epoch {epoch} breaks the "
                                 f"chain (expected {expected})")
            print_epoch(index, pos, epoch, dicts, cells, show_cells)
            delta_epochs.append(epoch)
        elif name == "caught_up":
            caught_up = r.u64("through epoch")
            served = r.u64("round")
            shipped = delta_epochs[-1] if delta_epochs else snap_epoch
            if shipped is not None and caught_up < shipped:
                raise ValueError(f"caught_up through {caught_up} < "
                                 f"last shipped epoch {shipped}")
            print(f"  frame {index} caught_up: round {served}, "
                  f"through {caught_up}")
        elif name == "heartbeat":
            epoch = r.u64("current epoch")
            served = r.u64("round")
            print(f"  frame {index} heartbeat: last served round "
                  f"{served}, epoch {epoch}")
        elif name == "hello":
            have = r.u64("have epoch")
            r.u32("k")
            r.u32("dims")
            r.u32("kll k")
            resume = r.u8("resume flag")
            resume_epoch = r.u64("resume epoch")
            resume_chunk = r.u32("resume chunk")
            hello_round = r.u64("round")
            print(f"  frame {index} hello: round {hello_round}, have epoch "
                  f"{have}"
                  + (f", resume snapshot {resume_epoch} at chunk "
                     f"#{resume_chunk}" if resume else ""))
        elif name == "error":
            code = r.u32("status code")
            print(f"  frame {index} error: code {code}")

    frames, _, outcome, message = walk_records(data, 0, on_frame)
    corrupt = outcome != "clean"
    if outcome == "torn":
        # A capture is written whole: a torn tail is corruption here.
        print(f"CORRUPT: {message}; captures are written whole")
    elif corrupt:
        print(f"CORRUPT: frame {message}")
    if snap is not None and not corrupt:
        print(f"CORRUPT: capture ends mid-snapshot ({snap['next']} of "
              f"{snap['num_chunks']} chunks)")
        corrupt = True
    print(f"{frames} intact frame(s), "
          f"{len(delta_epochs)} delta epoch(s)"
          + (f", snapshot cut @ epoch {snap_epoch}"
             if snap_epoch is not None else "")
          + (f", caught up through {caught_up}"
             if caught_up is not None else ""))
    return 1 if corrupt else 0


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    flags = {a for a in argv[1:] if a.startswith("--")}
    if len(args) != 1 or flags - {"--cells", "--strict", "--frames"}:
        print(__doc__)
        return 2
    path = args[0]
    if "--frames" in flags:
        return dump_frames(path, "--cells" in flags)
    with open(path, "rb") as f:
        data = f.read()

    header_len = len(WAL_MAGIC) + 1 + 4 + 4 + 4
    if len(data) < header_len:
        print(f"CORRUPT: {path}: {len(data)} bytes, shorter than the "
              f"{header_len}-byte header")
        return 1
    if data[: len(WAL_MAGIC)] != WAL_MAGIC:
        print(f"CORRUPT: {path}: bad magic {data[:8]!r}")
        return 1
    version, k, num_dims, header_crc = struct.unpack_from(
        "<BIII", data, len(WAL_MAGIC)
    )
    actual = crc32c(data[len(WAL_MAGIC) : len(WAL_MAGIC) + 9])
    if version not in WAL_VERSIONS:
        print(f"CORRUPT: {path}: version {version} "
              f"(expected one of {WAL_VERSIONS})")
        return 1
    if unmask(header_crc) != actual:
        print(f"CORRUPT: {path}: header CRC mismatch "
              f"(stored {unmask(header_crc):#010x}, actual {actual:#010x})")
        return 1
    print(f"{path}: {len(data)} bytes, version={version}, k={k}, "
          f"num_dims={num_dims}")

    epochs = []

    def on_record(index, pos, rtype, payload):
        if rtype != RECORD_EPOCH:
            print(f"  record {index} @ {pos}: unknown type {rtype}, "
                  f"{len(payload)} bytes (skipped)")
            return
        epoch, dicts, cells = decode_epoch_record(
            Reader(payload), num_dims, version
        )
        print_epoch(index, pos, epoch, dicts, cells, "--cells" in flags)
        epochs.append(epoch)

    records, pos, outcome, message = walk_records(data, header_len,
                                                  on_record)
    # A torn tail is the expected post-crash state, not corruption.
    corrupt = outcome == "corrupt"
    if outcome == "torn":
        print(f"  {message}")
    elif corrupt:
        print(f"CORRUPT: record {message}")
    truncated = len(data) - pos
    # The writer guarantees consecutive epochs within one WAL file; a gap
    # in a CRC-clean log means records were lost, not torn.
    for prev, cur in zip(epochs, epochs[1:]):
        if cur != prev + 1:
            print(f"CORRUPT: epoch chain break: {prev} -> {cur}")
            corrupt = True
    print(f"{records} intact record(s), {truncated} byte(s) truncated")
    if corrupt:
        return 1
    if truncated and "--strict" in flags:
        print("STRICT: torn tail present")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
