"""Identity corpus: entries loaded from the bundled file or a local file."""

from __future__ import annotations

import re
from functools import cache
from importlib import resources
from typing import NamedTuple

from .dsl import IdentityAst, parse

_HEADER = re.compile(r"#\s*\[(?P<id>[A-Za-z0-9_-]+)\]\s*(?P<description>.*)")


class CorpusEntry(NamedTuple):
    id: str
    description: str
    text: str

    def ast(self) -> IdentityAst:
        return parse(self.text)


@cache
def _bundled() -> tuple[CorpusEntry, ...]:
    """The bundled corpus, parsed once per process."""
    text = resources.files("tribkit.data").joinpath("corpus.txt").read_text(encoding="utf-8")
    return tuple(_parse_corpus(text))


def load_corpus(path: str | None = None) -> list[CorpusEntry]:
    """Load entries from the file at ``path``, or the bundled corpus if None.

    A file is read on every call; the bundled corpus is parsed once.  Each
    call returns a new list.
    """
    if path is None:
        return list(_bundled())
    with open(path, encoding="utf-8") as f:
        return _parse_corpus(f.read())


def _dangling(lineno: int, entry_id: str, _description: str) -> ValueError:
    return ValueError(f"corpus line {lineno}: header [{entry_id}] has no identity")


def _parse_corpus(text: str) -> list[CorpusEntry]:
    """Entries from corpus text: each ``# [id] description`` header is
    followed by exactly one identity line; other ``#`` lines are comments."""
    entries: list[CorpusEntry] = []
    pending: tuple[int, str, str] | None = None
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        header = _HEADER.match(line)
        if header:
            if pending is not None:
                raise _dangling(*pending)
            pending = (lineno, header.group("id"), header.group("description").strip())
            continue
        if line.startswith("#"):
            continue
        if pending is None:
            raise ValueError(f"corpus line {lineno}: identity without an [id] header")
        _, entry_id, description = pending
        if entry_id in seen:
            raise ValueError(f"corpus line {lineno}: duplicate id {entry_id!r}")
        seen.add(entry_id)
        entries.append(CorpusEntry(id=entry_id, description=description, text=line))
        pending = None
    if pending is not None:
        raise _dangling(*pending)
    return entries
