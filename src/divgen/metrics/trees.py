"""Syntactic diversity: shallow chunk trees, shape entropy, and tree edit distance.

The default analyzer is a deterministic rule-based chunker: tokens are tagged by
lexicon and suffix, then bracketed into noun/verb/prepositional groups under a
sentence root. It exists to keep the metrics hermetic; any callable mapping a
sentence to a TreeNode can be plugged in instead. Tree edit distance is the
exact ordered-tree algorithm with unit insert/delete/relabel costs.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Sequence

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


Analyzer = Callable[[str], TreeNode]


def sentence_shapes(text: str, analyzer: Analyzer = chunk_sentence) -> list[str]:
    """Tree shape of each sentence of one text."""
    return [tree_shape(analyzer(s)) for s in sentences_of(text)]


def parse_tree_entropy(corpus: Sequence[str], analyzer: Analyzer = chunk_sentence) -> float:
    """Base-2 entropy over the frequency distribution of sentence tree shapes."""
    return shape_entropy(Counter(shape for text in corpus
                                 for shape in sentence_shapes(text, analyzer)))


def shape_entropy(shapes: Counter[str]) -> float:
    """Base-2 entropy of a shape frequency table."""
    total = sum(shapes.values())
    if not total:
        raise ValueError("parse_tree_entropy requires at least one sentence")
    counts = sorted(shapes.values())
    return -math.fsum((c / total) * math.log2(c / total) for c in counts) + 0.0


# ---------------------------------------------------------------------------
# Ordered tree edit distance (keyroot dynamic program)


def _postorder(root: TreeNode) -> tuple[list[str], list[int], list[int]]:
    """Postorder labels, leftmost-leaf indices (1-based), and keyroots."""
    labels: list[str] = []
    lmd: list[int] = []

    def walk(node: TreeNode) -> int:
        first_leaf = None
        for child in node.children:
            leaf = walk(child)
            if first_leaf is None:
                first_leaf = leaf
        labels.append(node.label)
        idx = len(labels)  # 1-based postorder index
        lmd.append(first_leaf if first_leaf is not None else idx)
        return lmd[-1]

    walk(root)
    seen: set[int] = set()
    keyroots: list[int] = []
    for i in range(len(labels), 0, -1):
        if lmd[i - 1] not in seen:
            keyroots.append(i)
            seen.add(lmd[i - 1])
    keyroots.sort()
    return labels, lmd, keyroots


def tree_edit_distance(a: TreeNode, b: TreeNode) -> int:
    """Minimal number of relabel/insert/delete operations turning a into b."""
    la, lmda, kra = _postorder(a)
    lb, lmdb, krb = _postorder(b)
    n, m = len(la), len(lb)
    td = [[0] * (m + 1) for _ in range(n + 1)]

    for i in kra:
        for j in krb:
            ioff = lmda[i - 1] - 1
            joff = lmdb[j - 1] - 1
            rows = i - ioff
            cols = j - joff
            fd = [[0] * (cols + 1) for _ in range(rows + 1)]
            for di in range(1, rows + 1):
                fd[di][0] = fd[di - 1][0] + 1
            for dj in range(1, cols + 1):
                fd[0][dj] = fd[0][dj - 1] + 1
            for di in range(1, rows + 1):
                i1 = di + ioff
                for dj in range(1, cols + 1):
                    j1 = dj + joff
                    if lmda[i1 - 1] == lmda[i - 1] and lmdb[j1 - 1] == lmdb[j - 1]:
                        relabel = 0 if la[i1 - 1] == lb[j1 - 1] else 1
                        fd[di][dj] = min(
                            fd[di - 1][dj] + 1,
                            fd[di][dj - 1] + 1,
                            fd[di - 1][dj - 1] + relabel,
                        )
                        td[i1][j1] = fd[di][dj]
                    else:
                        fd[di][dj] = min(
                            fd[di - 1][dj] + 1,
                            fd[di][dj - 1] + 1,
                            fd[lmda[i1 - 1] - 1 - ioff][lmdb[j1 - 1] - 1 - joff] + td[i1][j1],
                        )
    return td[n][m]


@functools.lru_cache(maxsize=1 << 17)
def _ted_between_sentences(sa: str, sb: str, analyzer_id: int) -> int:
    analyzer = _ANALYZERS[analyzer_id]
    return tree_edit_distance(analyzer(sa), analyzer(sb))


_ANALYZERS: dict[int, Analyzer] = {0: chunk_sentence}


def _analyzer_id(analyzer: Analyzer) -> int:
    for key, fn in _ANALYZERS.items():
        if fn is analyzer:
            return key
    key = max(_ANALYZERS) + 1
    _ANALYZERS[key] = analyzer
    return key


def avg_tree_edit_distance(corpus: Sequence[str], analyzer: Analyzer = chunk_sentence) -> float:
    """Mean edit distance over unordered sentence pairs; 0 when < 2 sentences."""
    sents = [s for text in corpus for s in sentences_of(text)]
    if len(sents) < 2:
        return 0.0
    aid = _analyzer_id(analyzer)
    total = 0.0
    pairs = 0
    for i in range(len(sents)):
        for j in range(i + 1, len(sents)):
            sa, sb = sorted((sents[i], sents[j]))
            total += _ted_between_sentences(sa, sb, aid)
            pairs += 1
    return total / pairs
