"""Bundled identity corpus: loading and bulk certification."""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from importlib import resources

from .dsl import IdentityAst, parse

ENV_CORPUS_PATH = "TRIBKIT_CORPUS"

_HEADER = re.compile(r"#\s*\[(?P<id>[A-Za-z0-9_-]+)\]\s*(?P<description>.*)")


@dataclass(frozen=True)
class CorpusEntry:
    id: str
    description: str
    text: str

    def ast(self) -> IdentityAst:
        return parse(self.text)


def _default_text() -> str:
    return resources.files("tribkit.data").joinpath("corpus.txt").read_text(encoding="utf-8")


def load_corpus(path: str | None = None) -> list[CorpusEntry]:
    """Load entries from a file, the env override, or the bundled default."""
    if path is None:
        path = os.environ.get(ENV_CORPUS_PATH)
    if path is None:
        text = _default_text()
    else:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    entries: list[CorpusEntry] = []
    pending: tuple[str, str] | None = None
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        header = _HEADER.match(line)
        if header:
            pending = (header.group("id"), header.group("description").strip())
            continue
        if line.startswith("#"):
            continue
        if pending is None:
            raise ValueError(f"corpus line {lineno}: identity without an [id] header")
        entry_id, description = pending
        if entry_id in seen:
            raise ValueError(f"corpus line {lineno}: duplicate id {entry_id!r}")
        seen.add(entry_id)
        entries.append(CorpusEntry(id=entry_id, description=description, text=line))
        pending = None
    return entries
