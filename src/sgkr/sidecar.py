"""Sidecar files that keep the structures derived from a graph document.

The CLI reads its graph document with `graph.load`. Beside the document,
in `__sgkrcache__/`, it keeps one file per structure derived from it, the
way `__pycache__` keeps compiled modules (PEP 3147): the parsed graph,
the traversal index, the block tree, the lexical ranker's state, and
the two structures derived from the document and one more input file,
the tag vocabulary (with the alias file) and the vector store (with the
vector file). A file is named after the document and its section, and
holds a key and a `marshal` payload. The key is the sha256 of the
document's bytes, of sgkr's module files, of the interpreter's cache tag
and of the marshal version; a changed document, a changed sgkr or
another interpreter finds no match, and its command builds the structure
from the document again. The key of a section that one more file feeds
is the sha256 of that key and of the file's digest, or of a marker no
digest equals when no such file is given (`joined`).

A file is trusted only when all of these hold: it is opened without
following a symlink; it is a regular file owned by the effective user
and writable by neither group nor others; its key matches; and its
payload thaws. Otherwise the structure is built from the document, with
no message. A structure built is written at once, best-effort, to a
temporary file that is then renamed over the section, so a reader sees
a whole file or none; a directory that cannot be written keeps nothing
and says nothing. Deleting `__sgkrcache__/` is always safe.
"""

from __future__ import annotations

import hashlib
import marshal
import os
import stat
import sys
from functools import cache
from pathlib import Path
from typing import Callable, TypeVar

DIRECTORY = "__sgkrcache__"

# The checks need both; without them (on Windows) no sidecar is kept.
SUPPORTED = hasattr(os, "O_NOFOLLOW") and hasattr(os, "geteuid")

T = TypeVar("T")


@cache
def _code() -> bytes:
    """The digest of sgkr's module files, names and bytes, with the
    interpreter's cache tag and the marshal version."""
    digest = hashlib.sha256(f"{sys.implementation.cache_tag}:{marshal.version}".encode())
    for module in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(module.name.encode() + b"\0" + hashlib.sha256(module.read_bytes()).digest())
    return digest.digest()


def _trusted(info: os.stat_result) -> bool:
    """A regular file of the effective user's that no one else may write."""
    return (stat.S_ISREG(info.st_mode) and info.st_uid == os.geteuid()
            and not info.st_mode & (stat.S_IWGRP | stat.S_IWOTH))


class Sidecar:
    """The sidecar files of the document at `path`, whose bytes are `data`."""

    __slots__ = ("directory", "stem", "key")

    def __init__(self, path: Path, data: bytes):
        self.directory = path.parent / DIRECTORY
        self.stem = path.name
        self.key = hashlib.sha256(_code() + hashlib.sha256(data).digest()).digest()

    def joined(self, data: bytes | None) -> Sidecar:
        """The sidecar of the structures derived from the document and one
        more input file, whose bytes are `data`, or None when no such file
        is given: the same files, under a key that covers both."""
        side = object.__new__(Sidecar)
        side.directory, side.stem = self.directory, self.stem
        digest = b"no file" if data is None else hashlib.sha256(data).digest()
        side.key = hashlib.sha256(self.key + digest).digest()
        return side

    def kept(self, section: str, build: Callable[[], T], freeze: Callable[[T], object],
             thaw: Callable[[object], T]) -> T:
        """`thaw` of the section's payload when it is trusted; else
        `build()`, kept as the section's `freeze` of it."""
        value = self.read(section, thaw)
        if value is None:
            value = build()
            self.write(section, freeze(value))
        return value

    def read(self, section: str, thaw: Callable[[object], T]) -> T | None:
        """`thaw` of the section's payload, or None when the section is
        missing or not trusted."""
        try:
            # Non-blocking, so that a FIFO in the section's place is refused
            # by the check, not waited on.
            fd = os.open(self.directory / f"{self.stem}.{section}",
                         os.O_RDONLY | os.O_NOFOLLOW | os.O_NONBLOCK)
        except OSError:
            return None
        try:
            if not _trusted(os.fstat(fd)):
                return None
            with open(fd, "rb", closefd=False) as file:
                data = file.read()
        except OSError:
            return None
        finally:
            os.close(fd)
        if not data.startswith(self.key):
            return None
        try:
            return thaw(marshal.loads(memoryview(data)[len(self.key):]))
        except (EOFError, ValueError, TypeError, LookupError):  # cut, or of the wrong shape
            return None

    def write(self, section: str, payload: object) -> None:
        """Keep `payload` as the section, if the directory can be written."""
        path = self.directory / f"{self.stem}.{section}"
        temporary = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            self.directory.mkdir(exist_ok=True)
            fd = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_NOFOLLOW, 0o644)
        except OSError:
            return
        try:
            with open(fd, "wb") as file:
                file.write(self.key)
                file.write(marshal.dumps(payload))
            os.replace(temporary, path)
        except OSError:
            try:
                os.unlink(temporary)
            except OSError:
                pass
