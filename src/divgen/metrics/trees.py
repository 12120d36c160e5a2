"""Syntactic diversity: shallow chunk trees, shape entropy, and tree edit distance.

Sentences are parsed by a deterministic rule-based chunker: tokens are tagged
by lexicon and suffix, then bracketed into noun/verb/prepositional groups under
a sentence root, which keeps the metrics hermetic. Tree edit distance is the
exact ordered-tree algorithm with unit insert/delete/relabel costs.

The edit distance of two sentences depends only on their trees, so its memo is
keyed by tree, not by text: each distinct tree is put in postorder once and
interned, the memo is keyed by a pair of interned trees, and the corpus average
weights each distinct pair by the counts of its two trees. Each sentence's tree
shape and postorder are memoised.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from divgen.metrics.text import SENTENCE_SPLIT_RE, tokenize


@dataclass(frozen=True)
class TreeNode:
    label: str
    children: tuple["TreeNode", ...] = ()


def tree_shape(node: TreeNode) -> str:
    """Serialize category symbols only; lexical content never appears."""
    if not node.children:
        return node.label
    return "(" + node.label + " " + " ".join(tree_shape(c) for c in node.children) + ")"


def sentences_of(text: str) -> list[str]:
    """Split on terminal punctuation runs, keeping parts that carry tokens."""
    return [part.strip() for part in SENTENCE_SPLIT_RE.split(text)
            if tokenize(part)]


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


@functools.lru_cache(maxsize=65536)
def chunk_sentence(sentence: str) -> TreeNode:
    """Bracket one sentence into a rooted labeled chunk tree."""
    tags = [tag_token(t) for t in tokenize(sentence)]
    chunks: list[TreeNode] = []
    i = 0
    n = len(tags)
    while i < n:
        tag = tags[i]
        if tag == "PREP":
            j = i + 1
            leaves = []
            while j < n and tags[j] in _NOMINAL:
                leaves.append(TreeNode(tags[j]))
                j += 1
            if leaves:
                chunks.append(TreeNode("PP", (TreeNode("PREP"), TreeNode("NP", tuple(leaves)))))
                i = j
            else:
                chunks.append(TreeNode("PREP"))
                i += 1
        elif tag in _VERBAL:
            j = i
            leaves = []
            while j < n and tags[j] in _VERBAL:
                leaves.append(TreeNode(tags[j]))
                j += 1
            chunks.append(TreeNode("VP", tuple(leaves)))
            i = j
        elif tag in _NOMINAL:
            j = i
            leaves = []
            while j < n and tags[j] in _NOMINAL:
                leaves.append(TreeNode(tags[j]))
                j += 1
            chunks.append(TreeNode("NP", tuple(leaves)))
            i = j
        else:
            chunks.append(TreeNode(tag))
            i += 1
    return TreeNode("S", tuple(chunks))


@functools.lru_cache(maxsize=65536)
def _chunk_shape(sentence: str) -> str:
    return tree_shape(chunk_sentence(sentence))


def sentence_shapes(text: str) -> list[str]:
    """Tree shape of each sentence of one text."""
    return [_chunk_shape(s) for s in sentences_of(text)]


def parse_tree_entropy(corpus: Sequence[str]) -> float:
    """Base-2 entropy over the frequency distribution of sentence tree shapes."""
    return shape_entropy(Counter(shape for text in corpus for shape in sentence_shapes(text)))


def shape_entropy(shapes: Counter[str]) -> float:
    """Base-2 entropy of a shape frequency table."""
    total = sum(shapes.values())
    if not total:
        raise ValueError("parse_tree_entropy requires at least one sentence")
    counts = sorted(shapes.values())
    return -math.fsum((c / total) * math.log2(c / total) for c in counts) + 0.0


# ---------------------------------------------------------------------------
# Ordered tree edit distance (Zhang & Shasha's keyroot dynamic program)


class _Postorder:
    """One distinct tree in postorder, interned: equal trees share one
    instance, so it hashes and compares by identity, and a memo keyed by a
    pair of them never walks or hashes a tree.

    ``labels[x]`` is the label of postorder node x and ``before[x]`` the
    index just before x's leftmost leaf, which is the empty-forest row of
    x's subtree (1-based; index 0 pads both). ``keyroots`` ascend.
    """

    __slots__ = ("labels", "before", "keyroots")

    def __init__(self, labels: tuple[str, ...], before: tuple[int, ...]):
        self.labels = labels
        self.before = before
        seen: set[int] = set()
        keyroots: list[int] = []
        for x in range(len(labels) - 1, 0, -1):
            if before[x] not in seen:
                seen.add(before[x])
                keyroots.append(x)
        self.keyroots = tuple(reversed(keyroots))


@functools.lru_cache(maxsize=1 << 16)
def _interned(labels: tuple[str, ...], before: tuple[int, ...]) -> _Postorder:
    # postorder labels and subtree spans determine an ordered tree, whatever
    # characters its labels hold
    return _Postorder(labels, before)


def _postorder(root: TreeNode) -> _Postorder:
    labels = [""]
    before = [0]

    def walk(node: TreeNode) -> int:
        """Postorder-number ``node``'s subtree; returns its leftmost leaf."""
        first = 0
        for child in node.children:
            leaf = walk(child)
            first = first or leaf
        labels.append(node.label)
        first = first or len(labels) - 1
        before.append(first - 1)
        return first

    walk(root)
    return _interned(tuple(labels), tuple(before))


@functools.lru_cache(maxsize=65536)
def _chunk_postorder(sentence: str) -> _Postorder:
    return _postorder(chunk_sentence(sentence))


def _zhang_shasha(a: _Postorder, b: _Postorder) -> int:
    """Unit-cost edit distance; fd[x][y] is the forest distance between
    nodes before(i)+1..x of a and before(j)+1..y of b for the keyroot pair
    (i, j) being filled, td[x][y] the distance between the subtrees at x and
    y. One fd serves every keyroot pair: a pair writes rows before(i)..i and
    columns before(j)..j, and reads only cells it wrote."""
    la, ba = a.labels, a.before
    lb, bb = b.labels, b.before
    n, m = len(la) - 1, len(lb) - 1
    td = [[0] * (m + 1) for _ in range(n + 1)]
    fd = [[0] * (m + 1) for _ in range(n + 1)]
    b_keyroots = []  # per keyroot j of b: before(j), j, and (y, before(y), label) of its columns
    for j in b.keyroots:
        bj = bb[j]
        b_keyroots.append((bj, j, tuple(zip(range(bj + 1, j + 1), bb[bj + 1:j + 1],
                                            lb[bj + 1:j + 1]))))
    for i in a.keyroots:
        bi = ba[i]
        top = fd[bi]
        xs = range(bi + 1, i + 1)
        for bj, j, cols in b_keyroots:
            top[bj:j + 1] = range(j - bj + 1)
            prev = top
            for x in xs:
                row = fd[x]
                left = row[bj] = x - bi
                diag = prev[bj]
                tdx = td[x]
                bx = ba[x]
                if bx == bi:
                    # x shares i's leftmost leaf, so a cell whose y shares
                    # j's is the distance between two whole subtrees
                    lab = la[x]
                    for y, by, lby in cols:
                        up = prev[y]
                        gap = (up if up < left else left) + 1
                        if by == bj:
                            cell = diag + (lab != lby)
                            if gap < cell:
                                cell = gap
                            tdx[y] = cell
                        else:
                            cell = top[by] + tdx[y]
                            if gap < cell:
                                cell = gap
                        row[y] = left = cell
                        diag = up
                else:
                    base = fd[bx]
                    for y, by, _ in cols:
                        up = prev[y]
                        gap = (up if up < left else left) + 1
                        cell = base[by] + tdx[y]
                        if gap < cell:
                            cell = gap
                        row[y] = left = cell
                prev = row
    return td[n][m]


def tree_edit_distance(a: TreeNode, b: TreeNode) -> int:
    """Minimal number of relabel/insert/delete operations turning a into b."""
    return _zhang_shasha(_postorder(a), _postorder(b))


@functools.lru_cache(maxsize=1 << 17)
def _ted_between_sentences(a: _Postorder, b: _Postorder) -> int:
    """The pair memo of ``avg_tree_edit_distance``: keyed by interned trees,
    so every sentence pair with the same two trees is one entry."""
    return _zhang_shasha(a, b)


def avg_tree_edit_distance(corpus: Sequence[str]) -> float:
    """Mean edit distance over unordered sentence pairs; 0 when < 2 sentences.

    Computed from the count table of distinct trees: pairs of one tree add 0,
    and each pair of distinct trees adds its distance times both counts. The
    sum is an integer, so the mean equals the sentence-pair loop's exactly.
    """
    counts = Counter(_chunk_postorder(s) for text in corpus for s in sentences_of(text))
    n = sum(counts.values())
    if n < 2:
        return 0.0
    trees = sorted(counts, key=id)  # one memo entry per unordered pair
    total = 0
    for k, a in enumerate(trees):
        ca = counts[a]
        for b in trees[k + 1:]:
            total += ca * counts[b] * _ted_between_sentences(a, b)
    return total / (n * (n - 1) // 2)
