"""Exception types shared across the package, and the one way an input
file's lines are read.

The CLI maps these onto exit codes: UsageError -> 1, DataError -> 2,
anything else -> 3.
"""

import re
from collections.abc import Iterator
from pathlib import Path

# Input files are opened with errors="surrogateescape", which keeps each
# byte that is not UTF-8 as one of these lone surrogates.
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


class UsageError(Exception):
    """Invalid arguments or configuration supplied by the caller."""


class DataError(Exception):
    """Malformed or inconsistent input data (files, records, labels)."""


def utf8_fault(line: str) -> str | None:
    """Why ``line``, read with ``errors="surrogateescape"``, is not UTF-8;
    None when it is."""
    if line.isascii():
        return None
    escaped = _ESCAPED_BYTE.search(line)
    return None if escaped is None else f"not valid UTF-8 (byte 0x{ord(escaped.group()) - 0xDC00:02x})"


def input_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """Each (0-based line number, line) of the file at ``path``; a line not UTF-8 raises a DataError."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh):
            fault = utf8_fault(line)
            if fault is not None:
                raise DataError(f"line {lineno}: {fault}")
            yield lineno, line
