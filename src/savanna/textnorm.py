"""Deterministic Unicode normalization and document cleaning.

Two fixed profiles are used throughout the toolkit:

* ``metric_profile()`` -- aggressive normalization applied before scoring
  (lowercase, punctuation stripped).
* ``corpus_profile()`` -- conservative cleanup for pretraining text
  (case and punctuation preserved).

Both apply NFC, remove control and format characters (categories Cc/Cf)
except whitespace controls, and collapse whitespace runs to single spaces.
``normalize`` does this in one pass; it is a total function and idempotent
under either profile.
"""

from __future__ import annotations

import difflib
import itertools
import re
import unicodedata
from dataclasses import dataclass

# Cc characters that act as whitespace.  They are kept through control
# removal so that ``str.split`` treats them as separators, which means
# control removal never glues words together.
_WHITESPACE_CONTROLS = frozenset("\t\n\r\x0b\x0c")

_CONTROL_CATEGORIES = frozenset({"Cc", "Cf"})
_CONTROL_OR_PUNCTUATION_CATEGORIES = _CONTROL_CATEGORIES | {"Pc", "Pd", "Ps", "Pe", "Pi", "Pf", "Po"}

_PAGE_NUMBER_RE = re.compile(r"^\s*(page\s+)?\d{1,4}\s*$", re.IGNORECASE)

# Recurring-line artifact detection (running titles, page headers).
_RECUR_MIN_COUNT = 3
_RECUR_SIMILARITY = 0.8
_RECUR_PREFIX_LEN = 10


@dataclass(frozen=True)
class NormProfile:
    lowercase: bool
    strip_punctuation: bool


@dataclass
class CleanReport:
    chars_in: int = 0
    chars_out: int = 0
    control_removed: int = 0
    artifacts_removed: int = 0


def metric_profile() -> NormProfile:
    """Normalization applied to hypotheses and references before scoring."""
    return NormProfile(lowercase=True, strip_punctuation=True)


def corpus_profile() -> NormProfile:
    """Conservative cleanup for corpus text; preserves case and punctuation."""
    return NormProfile(lowercase=False, strip_punctuation=False)


def normalize(text: str, profile: NormProfile) -> str:
    """Normalize ``text`` per ``profile``.

    NFC, then the characters to drop (controls other than whitespace
    controls and, if the profile says so, punctuation) are deleted in one
    ``str.translate``; then lowercase if the profile says so.  Removals and
    lowercasing can expose new canonical compositions (``e`` + ZWSP +
    U+0301), so NFC runs again before whitespace is collapsed; the result
    is its own fixed point.

    Whether a character is dropped depends on the character alone, so
    ``unicodedata.category`` is looked up once per distinct character, not
    once per character.  A printable string holds no Cc/Cf character, so
    under the corpus profile such a string is not classified at all.
    """
    s = unicodedata.normalize("NFC", text)
    if profile.strip_punctuation or not s.isprintable():
        dropped = _CONTROL_OR_PUNCTUATION_CATEGORIES if profile.strip_punctuation else _CONTROL_CATEGORIES
        s = s.translate({ord(ch): None for ch in set(s)
                         if unicodedata.category(ch) in dropped and ch not in _WHITESPACE_CONTROLS})
    if profile.lowercase:
        s = s.lower()
    return " ".join(unicodedata.normalize("NFC", s).split())


def _count_controls(line: str) -> int:
    """Number of Cc/Cf characters in ``line``, whitespace controls included.

    A printable line has none; otherwise each distinct character is
    classified once and the controls among them are counted in C.
    """
    if line.isprintable():
        return 0
    return sum(line.count(ch) for ch in set(line) if unicodedata.category(ch) in _CONTROL_CATEGORIES)


class _Family:
    """A family of similar lines: its representative (the first member's
    folded text) and the member indices.  The representative's per-character
    position masks and a ``SequenceMatcher`` holding it as ``b`` are built
    when a line is first compared with it."""

    __slots__ = ("rep", "members", "_masks", "_matcher")

    def __init__(self, rep: str) -> None:
        self.rep = rep
        self.members: list[int] = []
        self._masks: dict[str, int] | None = None
        self._matcher: difflib.SequenceMatcher | None = None

    def _lcs(self, folded: str) -> int:
        """Length of the longest common subsequence of ``folded`` and the
        representative, by the bit-vector recurrence of Allison & Dix 1986
        (Hyyrö 2004).  After each character of ``folded``, bit j of ``v``
        is 0 exactly where the LCS of the text read so far with
        ``rep[:j + 1]`` is one longer than with ``rep[:j]``, so the LCS is
        the number of 0 bits in the low ``len(rep)`` bits.  Carries out of
        the top bit only set bits above them, which are masked off."""
        masks = self._masks
        if masks is None:
            masks = self._masks = {}
            bit = 1
            for ch in self.rep:
                masks[ch] = masks.get(ch, 0) | bit
                bit <<= 1
        mask = (1 << len(self.rep)) - 1
        v = mask
        for ch in folded:
            u = v & masks.get(ch, 0)
            v = (v + u) | (v - u)
        return len(self.rep) - (v & mask).bit_count()

    def admits(self, folded: str) -> bool:
        """``SequenceMatcher(None, folded, rep).ratio() >= 0.8``.

        The argument order matters: autojunk applies to ``b`` and ties
        break asymmetrically.  ``ratio`` is ``2·M/(la+lb)``, where ``M`` is
        the size of the matching blocks.  Those blocks, autojunk or not,
        form a common subsequence of the two lines, so ``M <= LCS`` and
        ``2·LCS/(la+lb)``, computed by the same float expression, bounds
        ``ratio`` from above.  The LCS is at most the length of the
        shorter line, so the length bound, from the lengths alone, is tried
        first; then the LCS bound, O(len(folded)) big-int steps over
        ``len(rep)`` bits; and ``ratio`` only for the lines both bounds
        pass.  A line is rejected by a bound only if ``ratio`` would reject
        it too, so the answer is exactly ``ratio``'s.  The LCS is also at
        most the overlap of the two character multisets, so it implies
        ``quick_ratio``'s bound, which is not tried.
        """
        la, lb = len(folded), len(self.rep)
        if 2.0 * min(la, lb) / (la + lb) < _RECUR_SIMILARITY:
            return False
        if 2.0 * self._lcs(folded) / (la + lb) < _RECUR_SIMILARITY:
            return False
        matcher = self._matcher
        if matcher is None:
            matcher = self._matcher = difflib.SequenceMatcher(None, "", self.rep)
        matcher.set_seq1(folded)
        return matcher.ratio() >= _RECUR_SIMILARITY


def _recurring_line_indices(lines: list[str]) -> set[int]:
    """Indices of lines belonging to families recurring >= 3 times.

    Lines are grouped by a short casefolded prefix, then fuzzy-matched
    against one representative per family (``difflib`` ``ratio`` >= 0.8); a
    line joins the first family, in creation order, whose representative
    admits it, or founds a new one.

    Cost: each line is compared with the representatives of its bucket;
    those of incompatible length cost one division, the rest a bit-vector
    LCS bound before any ``ratio``, and ``ratio`` runs only where that
    bound passes.  The bound leaves the result exactly as ``ratio`` alone
    gives it, and cuts the per-comparison cost, but not the number of
    comparisons: the work still grows with the lines that share a prefix
    times the families in that bucket.
    """
    buckets: dict[str, list[_Family]] = {}
    for idx, line in enumerate(lines):
        collapsed = " ".join(line.split())
        if not collapsed:
            continue
        folded = collapsed.casefold()
        bucket = buckets.setdefault(folded[:_RECUR_PREFIX_LEN], [])
        family = next((f for f in bucket if f.admits(folded)), None)
        if family is None:
            family = _Family(folded)
            bucket.append(family)
        family.members.append(idx)
    return {idx for bucket in buckets.values() for family in bucket
            if len(family.members) >= _RECUR_MIN_COUNT for idx in family.members}


def clean_document(raw: str, profile: NormProfile) -> tuple[str, CleanReport]:
    """Drop digitization artifacts and normalize the remaining lines.

    Artifact heuristics: bare page numbers (``^\\s*(page\\s+)?\\d{1,4}\\s*$``,
    case-insensitive) and line families recurring at least three times with
    at least 80% character overlap.  Line/paragraph structure is preserved:
    each surviving line is normalized individually and blank-line runs are
    collapsed to single paragraph breaks.
    """
    report = CleanReport(chars_in=len(raw))
    if not raw:
        return "", report

    lines = raw.split("\n")
    recurring = _recurring_line_indices(lines)

    kept: list[str] = []
    for idx, line in enumerate(lines):
        if line.strip() and (_PAGE_NUMBER_RE.match(line) or idx in recurring):
            report.artifacts_removed += 1
            continue
        report.control_removed += _count_controls(line)
        kept.append(normalize(line, profile))

    # Blank-line runs become single paragraph breaks; leading and trailing
    # blanks go.
    text = "\n\n".join("\n".join(run) for nonblank, run in itertools.groupby(kept, bool) if nonblank)
    report.chars_out = len(text)
    return text, report
