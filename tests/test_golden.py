"""The CLI's printed bytes, pinned by the golden transcript of ``scripts/sweep.py``."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
import sweep  # noqa: E402


@pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300,
    reason="the transcript records int()'s default limit of 4 300 digits",
)
def test_the_cli_transcript_matches_the_golden_file():
    """On a difference, look at the change first; regenerate with ``python scripts/sweep.py --write``
    only when the printed bytes are meant to change."""
    difference = sweep.first_difference(sweep.GOLDEN.read_text(encoding="utf-8"), sweep.transcript())
    assert difference is None, difference


def test_the_first_difference_is_named_by_its_line():
    assert sweep.first_difference("a\nb\nc\n", "a\nb\nc\n") is None
    assert sweep.first_difference("a\nb\nc\n", "a\nx\nc\n") == "line 2: expected 'b', got 'x'"
    assert sweep.first_difference("a\nb\n", "a\n") == "line 2: expected 2 lines, got 1"
