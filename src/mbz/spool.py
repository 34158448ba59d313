"""Append-only run outputs, written to disk as the run goes.

A `Spool` gathers bytes in a buffer and writes it to an anonymous
temporary file whenever it passes 64 KiB, so at most that and one
record stay in memory; `copy_to` copies the file to wherever it is
wanted, and the file is closed when the spool is dropped. A replay
keeps two: `pcapio.PcapSpool`, its capture, and `EventSpool`, its event
log.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import weakref
from pathlib import Path

# one write per 64 KiB of records: a write per record (for a pcap, per
# record header and per packet, or per record of the two joined) costs
# more than the copy into the buffer
FLUSH_AT = 64 * 1024


def json_line(record: dict) -> bytes:
    """One event-log line: the record as JSON, keys sorted."""
    return json.dumps(record, sort_keys=True).encode() + b"\n"


class Spool:
    """Bytes bound for an anonymous temporary file, through a buffer of
    about 64 KiB; each kind of spool adds its own `append`."""

    def __init__(self, header: bytes = b""):
        self._file = tempfile.TemporaryFile()
        weakref.finalize(self, self._file.close)
        self._buf = bytearray(header)

    def _flush(self) -> None:
        self._file.write(self._buf)
        self._buf.clear()

    def copy_to(self, path: str | Path) -> None:
        """Copy what the spool holds so far to `path`. The spool keeps
        it, and later appends go on after it."""
        self._flush()
        self._file.seek(0)
        with open(path, "wb") as fh:
            shutil.copyfileobj(self._file, fh)


class EventSpool(Spool):
    """A JSON-lines event log, one line per `append`ed record."""

    def append(self, record: dict) -> None:
        buf = self._buf
        buf += json_line(record)
        if len(buf) > FLUSH_AT:
            self._flush()
