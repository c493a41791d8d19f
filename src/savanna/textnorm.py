"""Deterministic Unicode normalization and document cleaning.

Two fixed profiles are used throughout the toolkit:

* ``metric_profile()`` -- aggressive normalization applied before scoring
  (lowercase, punctuation stripped).
* ``corpus_profile()`` -- conservative cleanup for pretraining text
  (case and punctuation preserved); ``clean_document`` always uses it.

Both apply NFC, remove control and format characters (categories Cc/Cf)
except whitespace controls, and collapse whitespace runs to single spaces.
``normalize`` does this in one pass; it is a total function and idempotent
under either profile.
"""

from __future__ import annotations

import itertools
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass

# Cc characters that act as whitespace.  They are kept through control
# removal so that ``str.split`` treats them as separators, which means
# control removal never glues words together.
_WHITESPACE_CONTROLS = frozenset("\t\n\r\x0b\x0c")

_CONTROL_CATEGORIES = frozenset({"Cc", "Cf"})
_CONTROL_OR_PUNCTUATION_CATEGORIES = _CONTROL_CATEGORIES | {"Pc", "Pd", "Ps", "Pe", "Pi", "Pf", "Po"}

_PAGE_NUMBER_RE = re.compile(r"^\s*(page\s+)?\d{1,4}\s*$", re.IGNORECASE)
_DIGITS_RE = re.compile(r"\d+")
# The only keys of the lines that ``_PAGE_NUMBER_RE`` matches: each
# character its letters match casefolds to ``p``, ``a``, ``g`` or ``e``, and
# its ``\s`` is ``str.isspace``.
_PAGE_NUMBER_KEYS = frozenset({"0", "page 0"})

# Recurring-line artifact detection (running titles, page headers).
_RECUR_MIN_COUNT = 3
_RECUR_SIMILARITY = 0.8
_RECUR_LIVE_PAGES = 2


@dataclass(frozen=True)
class NormProfile:
    lowercase: bool
    strip_punctuation: bool


@dataclass
class CleanReport:
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
    """Number of characters of ``line`` that ``normalize`` deletes as
    controls: Cc/Cf, whitespace controls aside.  Each distinct character
    is classified once."""
    return sum(line.count(ch) for ch in set(line)
               if ch not in _WHITESPACE_CONTROLS and unicodedata.category(ch) in _CONTROL_CATEGORIES)


class _Family:
    """Similar page-edge lines: the representative (the first member's
    key), the member indices and the page of the latest member.  The
    representative's position masks are built at its first comparison."""

    __slots__ = ("rep", "members", "page", "_masks")

    def __init__(self, rep: str) -> None:
        self.rep = rep
        self.members: list[int] = []
        self.page = 0
        self._masks: dict[str, int] | None = None

    def _lcs(self, key: str) -> int:
        """Length of the longest common subsequence of ``key`` and the
        representative, by the bit-vector recurrence of Allison & Dix 1986
        (Hyyrö 2004).  After each character of ``key``, bit j of ``v`` is 0
        exactly where the LCS of the text read so far with ``rep[:j + 1]``
        is one longer than with ``rep[:j]``, so the LCS is the number of 0
        bits in the low ``len(rep)`` bits.  Carries out of the top bit only
        set bits above them, which are masked off."""
        masks = self._masks
        if masks is None:
            masks = self._masks = {}
            bit = 1
            for ch in self.rep:
                masks[ch] = masks.get(ch, 0) | bit
                bit <<= 1
        mask = (1 << len(self.rep)) - 1
        v = mask
        for ch in key:
            u = v & masks.get(ch, 0)
            v = (v + u) | (v - u)
        return len(self.rep) - (v & mask).bit_count()

    def admits(self, key: str) -> bool:
        """``2·LCS(key, rep)/(la+lb) >= 0.8``, tried first on the shorter
        length, which bounds the LCS."""
        la, lb = len(key), len(self.rep)
        if 2.0 * min(la, lb) / (la + lb) < _RECUR_SIMILARITY:
            return False
        return 2.0 * self._lcs(key) / (la + lb) >= _RECUR_SIMILARITY


def _artifact_line_indices(lines: list[str], collapsed: list[str]) -> set[int]:
    """Indices of artifact lines: bare page numbers (``_PAGE_NUMBER_RE``)
    and recurring lines, which are running heads and footers.
    ``collapsed[i]`` is ``lines[i]`` with its whitespace runs collapsed to
    single spaces and its ends stripped.

    A line's key is its collapsed, casefolded text with each run of
    decimal digits replaced by ``0``; lines with blank keys are ignored.
    The keys are folded in one ``casefold`` and one substitution over the
    ``"\\n"``-join of the collapsed lines, which hold no newline, and each
    ``"\\n"``-split piece is one line's key: casefolding is per character
    and no digit run crosses a newline.  Only a line whose key is in
    ``_PAGE_NUMBER_KEYS`` is tried against the page-number pattern.

    * Exact: every line whose key occurs at least 3 times is recurring.
    * Fuzzy, at page edges: a line holding a form feed starts a new page,
      and a page-number line ends the current page and belongs to no page.
      A page's edges are its first and its last non-blank line.  In
      document order, each edge line joins the first family, in creation
      order, that is live and whose representative key ``r`` satisfies
      ``2·LCS(key, r)/(len key + len r) >= 0.8``; otherwise it founds a new
      family.  A family is live while its latest member is on the current
      page or one of the two pages before it, so that heads on every page
      or on every other page (recto and verso) stay in reach.  Every member
      of a family with at least 3 members is recurring.

    Cost: linear.  A live family's latest member is one of the edges of
    the last three pages, so an edge line meets at most five families.
    """
    keys = _DIGITS_RE.sub("0", "\n".join(collapsed).casefold()).split("\n")
    counts = Counter(keys)
    artifacts = {idx for idx, key in enumerate(keys) if key and counts[key] >= _RECUR_MIN_COUNT}
    pages: list[list[int]] = [[]]  # the non-blank lines of each page
    for idx, line in enumerate(lines):
        page_number = keys[idx] in _PAGE_NUMBER_KEYS and _PAGE_NUMBER_RE.match(line)
        if page_number or "\x0c" in line:
            pages.append([])
        if page_number:
            artifacts.add(idx)
        elif keys[idx]:
            pages[-1].append(idx)
    pages = [page for page in pages if page]
    if len(pages) < 2:  # one page has at most two edges, too few for a family
        return artifacts
    families: list[_Family] = []
    live: list[_Family] = []
    for number, page in enumerate(pages):
        live = [family for family in live if family.page >= number - _RECUR_LIVE_PAGES]
        for idx in page if len(page) < 3 else (page[0], page[-1]):
            family = next((f for f in live if f.admits(keys[idx])), None)
            if family is None:
                family = _Family(keys[idx])
                families.append(family)
                live.append(family)
            family.members.append(idx)
            family.page = number
    artifacts.update(idx for family in families
                     if len(family.members) >= _RECUR_MIN_COUNT for idx in family.members)
    return artifacts


def clean_document(raw: str) -> tuple[str, CleanReport]:
    """Drop the artifact lines that ``_artifact_line_indices`` finds and
    normalize the rest with the corpus profile.  Line/paragraph structure
    is preserved: each surviving line is normalized individually and
    blank-line runs are collapsed to single paragraph breaks.

    Each line's whitespace is collapsed once, for its key and for its
    output.  A kept printable line becomes the NFC of its collapsed text,
    which is exactly what ``normalize`` returns: it holds no Cc/Cf
    character and no whitespace but U+0020, which no canonical
    composition involves.  Every other kept line goes through
    ``normalize`` and ``_count_controls``.
    """
    report = CleanReport()
    if not raw:
        return "", report

    lines = raw.split("\n")
    collapsed = [" ".join(line.split()) for line in lines]
    artifacts = _artifact_line_indices(lines, collapsed)
    profile = corpus_profile()

    kept: list[str] = []
    for idx, line in enumerate(lines):
        if idx in artifacts:
            report.artifacts_removed += 1
        elif line.isprintable():
            kept.append(unicodedata.normalize("NFC", collapsed[idx]))
        else:
            report.control_removed += _count_controls(line)
            kept.append(normalize(line, profile))

    # Blank-line runs become single paragraph breaks; leading and trailing
    # blanks go.
    text = "\n\n".join("\n".join(run) for nonblank, run in itertools.groupby(kept, bool) if nonblank)
    return text, report
