import re

import pytest

from tribkit import load_corpus, parse

REQUIRED_IDS = {
    "eq2",
    *{f"eq{i}" for i in range(5, 20)},
    "ktbridge",
    "c44", "c88", "c22", "c5060a", "c5060b",
    "s44", "s88", "s22", "s5060a", "s5060b",
    *{f"q{i:02d}" for i in range(1, 16)},
    "sq1", "sq2", "sq3",
    "thm3a", "thm3b",
    "k2", "w2a", "w2b", "w2c",
    "thm4", "cube1", "cube2", "thm6",
}


def test_corpus_loads_and_parses():
    entries = load_corpus()
    assert len(entries) >= 40
    for entry in entries:
        entry.ast()  # must not raise
        assert entry.description


def test_corpus_ids_unique_and_complete():
    ids = [e.id for e in load_corpus()]
    assert len(ids) == len(set(ids))
    assert REQUIRED_IDS <= set(ids)


def test_corpus_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("# [a] x\nW(r) = W(r)\n# [a] y\nW(r) = W(r)\n")
    with pytest.raises(ValueError, match="duplicate"):
        load_corpus(str(path))


def test_corpus_rejects_headerless_identity(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("W(r) = W(r)\n")
    with pytest.raises(ValueError, match="header"):
        load_corpus(str(path))


@pytest.mark.parametrize(
    "text, message",
    [
        # a header followed by another header
        ("# [a] x\n# [b] y\nW(r) = W(r)\n# [c] z\nW(r) = W(r)\n", "line 1: header [a] has"),
        # a header at the end of the file, comments and blank lines after it
        ("# [a] x\nW(r) = W(r)\n\n# [c] z\n# comment\n\n", "line 4: header [c] has"),
    ],
    ids=["mid-file", "end-of-file"],
)
def test_corpus_rejects_header_without_identity(tmp_path, text, message):
    path = tmp_path / "c.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(message) + " no identity"):
        load_corpus(str(path))


def test_returned_lists_are_independent():
    first = load_corpus()
    expected = list(first)
    first.clear()
    assert load_corpus() == expected
    assert load_corpus() is not load_corpus()


def test_path_is_read_on_every_call(tmp_path):
    bundled = load_corpus()
    path = tmp_path / "c.txt"
    path.write_text("# [local] one entry\nW(r) = W(r)\n")
    assert [e.id for e in load_corpus(str(path))] == ["local"]
    path.write_text("# [edited] the file is read again\nW(r) = W(r)\n")
    assert [e.id for e in load_corpus(str(path))] == ["edited"]
    assert load_corpus() == bundled
