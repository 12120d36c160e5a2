"""Syntactic diversity: shallow chunk trees, shape entropy, and tree edit distance.

The tokens of each sentence ``text.sentences_of`` reads are parsed by a
deterministic rule-based chunker: tagged by lexicon and suffix (memoised per
token), then bracketed into noun/verb/prepositional groups under a sentence
root, which keeps the metrics hermetic. The chunker yields a sentence's
chunks, each its label and leaf tags, as one tuple. The chunks determine the
chunk tree and equal trees have equal chunks, so the tuple is the sentence's
shape: parse-tree entropy counts it, with no tree built, and tree edit
distance puts each distinct shape's tree in postorder once and interns it.
Tree edit distance is the exact ordered-tree algorithm with unit
insert/delete/relabel costs.

The edit distance of two sentences depends only on their shapes, so the
corpus average weights each distinct pair of shapes by both their counts.
The distances of all of a corpus's distinct trees come from one batched pass
of Zhang & Shasha's keyroot program over every pair of their distinct keyroot
subtrees. Subtrees are grouped by height: a row group of one height and size
is filled against all column subtrees of one height at a time, each column
subtree a segment of one long numpy row in which the in-row recurrence is a
running minimum, and the lower heights come first, so every distance a cell
reads is already known. Row groups are cut into tiles that bound the forest
tables' memory. Nothing here memoises a text or a table for a program path: a
report's ``battery.Corpus`` keeps each sentence's shape id and the distance
table of its shapes, so its bootstrap resamples chunk nothing and read that
table without a kernel call.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from typing import Iterable, Sequence

import numpy as np

from divgen.metrics.cluster_entropy import entropy_of_sizes
from divgen.metrics.text import sentences_of


# ---------------------------------------------------------------------------
# Token tagging

_DET = {"a", "an", "the", "this", "that", "these", "those", "my", "your", "his",
        "her", "its", "our", "their", "some", "any", "no", "each", "every",
        "all", "both", "another"}
_PRON = {"i", "you", "he", "she", "it", "we", "they", "me", "him", "them", "us",
         "who", "whom", "someone", "something", "anyone", "anything",
         "everyone", "everything"}
_AUX = {"is", "are", "was", "were", "be", "been", "being", "am", "do", "does",
        "did", "have", "has", "had", "will", "would", "can", "could", "shall",
        "should", "may", "might", "must"}
_PREP = {"in", "on", "at", "by", "for", "with", "from", "to", "of", "about",
         "into", "over", "under", "between", "through", "during", "before",
         "after", "near", "across", "against", "along", "around", "without",
         "within", "toward", "towards", "upon", "as", "per"}
_CONJ = {"and", "or", "but", "nor", "so", "yet", "because", "although",
         "while", "if", "since", "when", "whereas", "unless"}
_WH = {"what", "which", "where", "why", "how", "whether"}
_NUM_WORDS = {"zero", "one", "two", "three", "four", "five", "six", "seven",
              "eight", "nine", "ten", "hundred", "thousand", "million"}
_VERBS = {"get", "find", "show", "tell", "give", "make", "book", "search",
          "plan", "check", "list", "compare", "estimate", "calculate",
          "provide", "need", "want", "help", "look", "call", "run", "fetch",
          "send", "create", "update", "remove", "convert", "translate",
          "recommend", "suggest", "analyze", "summarize", "explain", "handle",
          "note", "reference", "go", "come", "take", "see", "know", "think",
          "say", "use", "work", "ask", "try", "keep", "let", "start", "stop",
          "bring", "write", "read", "set", "learn", "change", "watch",
          "follow", "speak", "grow", "open", "offer", "remember", "consider",
          "buy", "wait", "expect", "build", "stay", "share", "pull", "push"}
_ADJ_SUFFIXES = ("ful", "ous", "ive", "able", "ible", "ical", "ish", "less", "ary")
_VERB_SUFFIXES = ("ed", "ing", "ize", "ise", "ify")


@functools.lru_cache(maxsize=1 << 16)
def tag_token(token: str) -> str:
    if token in _DET:
        return "DET"
    if token in _PRON:
        return "PRON"
    if token in _AUX:
        return "AUX"
    if token in _PREP:
        return "PREP"
    if token in _CONJ:
        return "CONJ"
    if token in _WH:
        return "WH"
    if token.isdigit() or token in _NUM_WORDS:
        return "NUM"
    if token in _VERBS:
        return "VERB"
    if token.endswith("ly") and len(token) > 3:
        return "ADV"
    if token.endswith(_VERB_SUFFIXES) and len(token) > 4:
        return "VERB"
    if token.endswith(_ADJ_SUFFIXES) and len(token) > 4:
        return "ADJ"
    return "NOUN"


_NOMINAL = {"DET", "ADJ", "NUM", "NOUN", "PRON"}
_VERBAL = {"AUX", "VERB", "ADV"}


#: The phrase each tag's run is bracketed into; PREP, CONJ and WH open none.
_PHRASE = {**dict.fromkeys(_NOMINAL, "NP"), **dict.fromkeys(_VERBAL, "VP")}


#: A sentence's shape: its chunks, each a label and the tags of its leaves.
Shape = tuple[tuple[str, tuple[str, ...]], ...]


def chunks(tokens: Sequence[str]) -> Shape:
    """The chunker: the chunks of one sentence's tokens, in order, each as
    its label and the tags of its leaves. A ``PP`` chunk is a PREP leaf and
    an NP of its leaves; a chunk without leaves (a PREP no nominal follows, a
    CONJ, a WH) is itself a leaf. The chunks determine the sentence's chunk
    tree, and equal trees have equal chunks, so they are its shape."""
    tags = [tag_token(t) for t in tokens]
    out: list[tuple[str, tuple[str, ...]]] = []
    i = 0
    n = len(tags)
    while i < n:
        tag = tags[i]
        j = i + 1
        if tag == "PREP":
            while j < n and tags[j] in _NOMINAL:
                j += 1
            out.append(("PP", tuple(tags[i + 1:j])) if j > i + 1 else (tag, ()))
        elif tag in _PHRASE:
            while j < n and _PHRASE.get(tags[j]) == _PHRASE[tag]:
                j += 1
            out.append((_PHRASE[tag], tuple(tags[i:j])))
        else:
            out.append((tag, ()))
        i = j
    return tuple(out)


def parse_tree_entropy(corpus: Sequence[str]) -> float:
    """Base-2 entropy over the frequency distribution of sentence tree shapes."""
    shapes = Counter(chunks(s) for text in corpus for s in sentences_of(text))
    return entropy_of_sizes(shapes.values())


# ---------------------------------------------------------------------------
# Ordered tree edit distance (Zhang & Shasha's keyroot dynamic program, batched)


class _Postorder:
    """One distinct tree in postorder, interned: equal trees share one
    instance, so it hashes and compares by identity, and a memo keyed by
    them never walks or hashes a tree.

    ``labels[x]`` is the label of postorder node x and ``before[x]`` the
    index just before x's leftmost leaf, which is the empty-forest row of
    x's subtree (1-based; index 0 pads both). ``parts[x - 1]`` is the
    interned subtree rooted at x, the last one the tree itself; ``keyroots``
    holds those rooted at the tree's keyroots (the root and every node with a
    left sibling), and ``height`` is the number of edges on the longest
    root-to-leaf path.
    """

    __slots__ = ("labels", "before", "parts", "keyroots", "height")

    def __init__(self, labels: tuple[str, ...], before: tuple[int, ...]):
        self.labels = labels
        self.before = before
        n = len(labels) - 1
        self.parts = tuple(
            _interned(("",) + labels[b + 1:x + 1], (0,) + tuple(y - b for y in before[b + 1:x + 1]))
            for x, b in zip(range(1, n), before[1:n])) + (self,)
        # a keyroot is the highest node over its leftmost leaf
        highest = {b: x for x, b in enumerate(before) if x}
        self.keyroots = tuple(self.parts[x - 1] for x in sorted(highest.values()))
        self.height = 1 + max(part.height for part in self.parts[:-1]) if n > 1 else 0


@functools.lru_cache(maxsize=1 << 16)
def _interned(labels: tuple[str, ...], before: tuple[int, ...]) -> _Postorder:
    # postorder labels and subtree spans determine an ordered tree, whatever
    # characters its labels hold
    return _Postorder(labels, before)


def chunk_tree(shape: Shape) -> _Postorder:
    """The interned postorder of the chunk tree of one sentence's chunks
    ``shape``: per chunk, its leaf tags and then its label (a ``PP`` is a
    PREP leaf and an NP over its leaves), and the ``S`` root last."""
    labels, before = [""], [0]
    for label, leaves in shape:
        start = len(labels) - 1  # the index just before the chunk's leftmost leaf
        if label == "PP":
            labels += ("PREP", *leaves, "NP")
            before += (start, *range(start + 1, start + 1 + len(leaves)), start + 1)
        else:
            labels += leaves
            before += range(start, start + len(leaves))
        labels.append(label)
        before.append(start)
    labels.append("S")
    before.append(0)
    return _interned(tuple(labels), tuple(before))


@functools.lru_cache(maxsize=65536)  # kept for bench/, which reads it; no program path calls it
def chunk_sentence(tokens: tuple[str, ...]) -> _Postorder:
    """The interned postorder of the chunk tree of one sentence's tokens."""
    return chunk_tree(chunks(tokens))


#: Byte cap on one tile's forest tables; a row group is split into tiles of
#: subtrees to stay under it.
_TILE_BYTES = 8 << 20


class _Columns:
    """One height's keyroot subtrees laid out as the kernel's columns: subtree
    v, in kernel order, is a segment of |v| + 1 columns, its empty forest and
    then its nodes in postorder. Per column: the kernel index of the column
    node's subtree (``sub``), its label's id, the column of its empty forest
    (``before``), and ``spread`` times the segment's index (``shift``);
    ``left`` lists the columns on each segment's leftmost path."""

    def __init__(self, parts: list[_Postorder], order: dict[_Postorder, int],
                 label_ids: dict[str, int], spread: int):
        widths = [len(v.labels) for v in parts]
        self.starts = np.cumsum([0] + widths[:-1])
        self.sub = np.array([order[v.parts[y - 1]] if y else 0
                             for v in parts for y in range(len(v.labels))])
        self.labels = np.array([label_ids[label] for v in parts for label in v.labels])
        local = np.array([b for v in parts for b in v.before])
        offsets = np.repeat(self.starts, widths)
        self.before = local + offsets
        # nodes, not empty forests, whose leftmost leaf is their segment's
        self.left = np.flatnonzero((local == 0) & (np.arange(len(local)) > offsets))
        self.shift = np.repeat(spread * np.arange(len(parts)), widths)


class _Rows:
    """A tile of keyroot subtrees of one height and size, as the kernel's
    rows: per subtree and node, the node's empty-forest row (``before``), the
    kernel index of its subtree (``sub``) and its label's id."""

    def __init__(self, parts: list[_Postorder], order: dict[_Postorder, int],
                 label_ids: dict[str, int]):
        self.size = len(parts[0].labels) - 1
        self.before = np.array([u.before[1:] for u in parts])
        self.sub = np.array([[order[p] for p in u.parts] for u in parts])
        self.labels = np.array([[label_ids[label] for label in u.labels[1:]] for u in parts])
        # per row, the subtrees whose leftmost path holds that row's node
        self.paths = [np.flatnonzero(column == 0)[:, None] for column in self.before.T]


def _fill(td: np.ndarray, rows: _Rows, cols: _Columns, k: int) -> None:
    """Fill the forest table of each of ``rows`` against each column subtree
    from segment ``k`` on, and write the distance of every pair of their
    leftmost-path subtrees into ``td`` and its transpose. Each other cell
    reads a distance that must be in ``td`` already.

    Distances are held less the sizes of both sides: ``td[u][v]`` is
    TED(u, v) − |u| − |v|, and a forest table cell fd[x][y], for the first x
    nodes of u and the first y nodes of v, holds fd[x][y] − x − y − shift.
    Then a cell's terms are its upper and left neighbours, and either the
    cell at its two subtrees' empty forests plus their ``td`` or, on both
    leftmost paths, its diagonal neighbour plus the relabel cost less 2,
    with no other per-cell constant; the left term makes each row a running
    minimum, and ``shift`` keeps that minimum within its segment."""
    c0 = cols.starts[k]
    before = cols.before[c0:] - c0
    shift = cols.shift[c0:]
    firsts = cols.starts[k:] - c0
    empty = -shift[firsts]
    left = cols.left[np.searchsorted(cols.left, c0):] - c0
    left_sub = cols.sub[c0:][left]
    left_labels = cols.labels[c0:][left]
    # the td of every cell's two subtrees, read before any is written; the
    # cells on both leftmost paths do not use theirs
    sub = td.take(rows.sub, axis=0).take(cols.sub[c0:], axis=2)
    fd = np.empty((len(rows.sub), rows.size + 1, len(before)), td.dtype)
    fd[:, 0] = -shift
    g = np.arange(len(rows.sub))
    for t in range(1, rows.size + 1):
        prev = fd[:, t - 1]
        cell = fd[g, rows.before[:, t - 1]].take(before, axis=1)
        cell += sub[:, t - 1]
        np.minimum(cell, prev, out=cell)
        cell[:, firsts] = empty
        path = rows.paths[t - 1]
        if path.size:
            relabel = rows.labels[path, t - 1] != left_labels
            cell[path, left] = np.minimum(prev[path, left], prev[path, left - 1] + relabel - 2)
        np.minimum.accumulate(cell, axis=1, out=fd[:, t])
        if path.size:
            found = fd[path, t, left] + shift[left]
            td[rows.sub[path, t - 1], left_sub] = found
            td[left_sub[:, None], rows.sub[path, t - 1].T] = found.T


def _distances(trees: Sequence[_Postorder]) -> np.ndarray:
    """Edit distance of every pair of ``trees``, as a square integer matrix.

    Zhang & Shasha's keyroot recurrences, run for every pair of the trees'
    distinct keyroot subtrees at once. The pair (u, v) fills the forest
    table of u's nodes against v's, which yields the distance of every pair
    of subtrees on their two leftmost paths; each other cell reads the
    distance of a pair found at a lower height. Subtrees are ordered by
    (height, size, first appearance), and the keyroot subtrees are filled in
    that order, one row group of equal height and size at a time against
    the columns of each height from its own up. Every distance a cell reads
    is then known, from a lower row or column height or from its transpose,
    so one numpy step fills a row of the group's tables against a whole
    height of columns, and each unordered pair is filled about once.
    """
    first: dict[_Postorder, int] = {}
    keyroots: set[_Postorder] = set()
    for tree in trees:
        for part in tree.parts:
            first.setdefault(part, len(first))
        keyroots.update(tree.keyroots)
    subs = sorted(first, key=lambda u: (u.height, len(u.labels), first[u]))
    order = {u: k for k, u in enumerate(subs)}
    label_ids = {"": 0}  # the padding label of column 0, never compared
    for u in subs:
        label_ids.setdefault(u.labels[-1], len(label_ids))
    spread = 2 * max(len(u.labels) for u in subs)  # above any row index plus column position
    td = np.zeros((len(subs), len(subs)), np.int64)
    heights = [list(parts) for _, parts in itertools.groupby(
        (u for u in subs if u in keyroots), key=lambda u: u.height)]
    levels = [_Columns(parts, order, label_ids, spread) for parts in heights]
    for h, parts in enumerate(heights):
        width = max(len(cols.shift) for cols in levels[h:])
        for _, group in itertools.groupby(enumerate(parts), key=lambda iu: len(iu[1].labels)):
            group = list(group)
            tile = max(1, _TILE_BYTES // (td.itemsize * 2 * len(group[0][1].labels) * width))
            for i in range(0, len(group), tile):
                k, _ = group[i]
                rows = _Rows([u for _, u in group[i:i + tile]], order, label_ids)
                _fill(td, rows, levels[h], k)
                for cols in levels[h + 1:]:
                    _fill(td, rows, cols, 0)
    roots = np.array([order[t] for t in trees])
    sizes = np.array([len(t.labels) - 1 for t in trees])
    return td[roots[:, None], roots[None, :]] + sizes[:, None] + sizes[None, :]


#: A memo of ``_distances`` by tuple of trees, kept for bench/, which reads its
#: ``cache_info``; no program path calls it.
_ted_between_sentences = functools.lru_cache(maxsize=None)(_distances)


def distance_table(shapes: Iterable[Shape]) -> np.ndarray:
    """Edit distance of every pair of the chunk trees of ``shapes``, each a
    sentence's chunks, in one kernel call."""
    return _distances([chunk_tree(shape) for shape in shapes])


def mean_tree_distance(distances: np.ndarray, counts: np.ndarray) -> float:
    """Mean edit distance over unordered pairs of a multiset of trees, from
    the ``distances`` of its distinct trees and the integer ``counts`` of
    each; 0 when < 2 trees.

    Pairs of one tree add 0, and each pair of distinct trees adds its
    distance times both counts. The sum is an integer, so the mean equals the
    pair loop's exactly.
    """
    n = int(counts.sum())
    if n < 2:
        return 0.0
    total = int(counts @ distances @ counts) // 2
    return total / (n * (n - 1) // 2)


def avg_tree_edit_distance(corpus: Sequence[str]) -> float:
    """Mean edit distance over unordered sentence pairs of ``corpus``."""
    shapes = Counter(chunks(s) for text in corpus for s in sentences_of(text))
    if shapes.total() < 2:
        return 0.0
    return mean_tree_distance(distance_table(shapes), np.fromiter(shapes.values(), np.int64))
