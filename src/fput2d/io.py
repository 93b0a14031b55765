"""Snapshot and diagnostic file formats.

Binary snapshot, format version 3: little-endian header, 32 bytes

    magic    7 bytes  b"FPUT2D\\0"
    version  u32      format version (3)
    form     u8       0 = displacement, 1 = strain, 2 = envelope
    N        u32      grid side
    time     f64      simulation time (slow time for envelopes)
    box      f64      envelope box length L (0 for lattice states)

followed by row-major f64 payload arrays: a lattice state's arrays(),
(q, w) or (u, v, ut, vt), or re/im interleaved samples for an envelope.
An envelope is always the displacement envelope Q, in both lattice forms,
so it reads back whole.  read_snapshot rejects other versions (a version 2
strain-form envelope held the strain envelope (e^{ik0} - 1) Q instead), and
a file that ends before its header or payload does raises SnapshotTruncated.

Diagnostics are plain CSV streams: lattice (t, energy, compat_defect,
max_amp) and envelope (T, mass, h4proxy, max_amp, spectral_tail).
"""

from __future__ import annotations

import csv
import json
import os
import platform
import struct
from pathlib import Path

import numpy as np

from . import __version__
from .lattice import _ARRAY_NAMES, LatticeState
from .nls import EnvelopeField

MAGIC = b"FPUT2D\x00"
VERSION = 3
_HEADER = struct.Struct("<IBIdd")  # version, form, N, time, box
_FORM_CODE = {"displacement": 0, "strain": 1, "envelope": 2}
_FORM_NAME = {v: k for k, v in _FORM_CODE.items()}


class SnapshotTruncated(ValueError):
    """A snapshot file ends before its header or payload does."""


def write_snapshot(path, obj) -> None:
    """Write a LatticeState or EnvelopeField snapshot."""
    if isinstance(obj, LatticeState):
        form = obj.form
        n = obj.n_side
        t = obj.time
        box = 0.0
        payload = [np.ascontiguousarray(a, dtype="<f8") for a in obj.arrays()]
    elif isinstance(obj, EnvelopeField):
        form = "envelope"
        n = obj.grid_side
        t = obj.slow_time
        box = obj.box_length
        payload = [np.ascontiguousarray(obj.a, dtype="<c16")]  # re/im interleaved
    else:
        raise TypeError(f"cannot snapshot {type(obj)!r}")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(_HEADER.pack(VERSION, _FORM_CODE[form], n, t, box))
        for a in payload:
            fh.write(a.tobytes())


def _read_exact(fh, size: int, path, what: str) -> bytes:
    # sized against the file first, so a corrupt N allocates nothing
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if left < size:
        raise SnapshotTruncated(f"{path}: file ends inside the {what} "
                                f"({left} of {size} bytes)")
    return fh.read(size)


def read_snapshot(path):
    """Read a snapshot back into a LatticeState or EnvelopeField."""
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if not MAGIC.startswith(magic):
            raise ValueError(f"{path}: not a FPUT2D snapshot")
        if len(magic) < len(MAGIC):
            raise SnapshotTruncated(f"{path}: file ends inside the magic")
        version, form_code, n, t, box = _HEADER.unpack(
            _read_exact(fh, _HEADER.size, path, "header"))
        if version != VERSION:
            raise ValueError(f"{path}: unsupported snapshot version {version}")
        if form_code not in _FORM_NAME:
            raise ValueError(f"{path}: unknown snapshot form code {form_code}")
        form = _FORM_NAME[form_code]
        count = 1 if form == "envelope" else len(_ARRAY_NAMES[form])
        per = n * n * (2 if form == "envelope" else 1)
        raw = np.frombuffer(_read_exact(fh, count * per * 8, path, "payload"), dtype="<f8")
    if form == "envelope":
        return EnvelopeField(box, raw.view("<c16").reshape(n, n).copy(), t)
    arrays = [raw[i * per:(i + 1) * per].reshape(n, n).copy() for i in range(count)]
    return LatticeState.from_arrays(form, t, arrays)


class DiagnosticsCsv:
    """Append-only CSV stream with a fixed header."""

    def __init__(self, path, columns):
        self.path = Path(path)
        self.columns = list(columns)
        self._fh = open(self.path, "w", newline="")
        self._writer = csv.writer(self._fh)
        self._writer.writerow(self.columns)

    def write(self, *values):
        if len(values) != len(self.columns):
            raise ValueError("column count mismatch")
        self._writer.writerow([repr(float(v)) if v is not None else "" for v in values])

    def close(self):
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def write_manifest(out_dir, command: str, config_hash: str, files, envelope_boxes) -> Path:
    """Write manifest.json: the command, the plan hash, the package, Python
    and numpy versions, the envelope box length and grid side of each
    (eps, box, grid side) in envelope_boxes, and the files of the output
    directory."""
    path = Path(out_dir) / "manifest.json"
    manifest = {
        "command": command,
        "config_hash": config_hash,
        "versions": {"fput2d": __version__, "python": platform.python_version(),
                     "numpy": np.__version__},
        "envelope_boxes": [{"eps": eps, "box_length": box, "grid_side": side}
                           for eps, box, side in envelope_boxes],
        "files": sorted(str(f) for f in files),
    }
    path.write_text(json.dumps(manifest, indent=2))
    return path
