import itertools
import math
import random
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from divgen.evaluate import analyze_corpus
from divgen.metrics import trees
from divgen.metrics.text import count_syllables, tokenize
from divgen.metrics.trees import (
    _distances,
    avg_tree_edit_distance,
    chunk_sentence,
    chunk_tree,
    chunks,
    parse_tree_entropy,
    sentences_of,
)
from divgen.providers.hash_embed import HashEmbedder


# --- reference trees: nodes, their shape, their postorder and the chunk tree --

@dataclass(frozen=True)
class TreeNode:
    label: str
    children: tuple["TreeNode", ...] = ()


def tree_shape(node):
    """Serialize category symbols only; lexical content never appears."""
    if not node.children:
        return node.label
    return "(" + node.label + " " + " ".join(tree_shape(c) for c in node.children) + ")"


def to_postorder(root):
    """The interned postorder of ``root``, numbered by a recursive walk."""
    labels = [""]
    before = [0]

    def walk(node):
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
    return trees._interned(tuple(labels), tuple(before))


def reference_chunk_tree(tokens):
    """The chunk tree of one sentence's ``tokens``, built node by node from
    the chunker."""
    def chunk_node(label, leaves):
        nodes = tuple(TreeNode(tag) for tag in leaves)
        if label == "PP":
            return TreeNode("PP", (TreeNode("PREP"), TreeNode("NP", nodes)))
        return TreeNode(label, nodes)

    return TreeNode("S", tuple(chunk_node(label, leaves)
                               for label, leaves in chunks(tokens)))


def tree_edit_distance(a, b):
    """Minimal number of relabel/insert/delete operations turning a into b."""
    return int(_distances([to_postorder(a), to_postorder(b)])[0, 1])


# --- brute-force oracle: minimum-cost valid mapping --------------------------

def _flatten(root):
    """Postorder labels plus each node's ancestor set (postorder indices)."""
    nodes = []

    def walk(node):
        child_idx = [walk(c) for c in node.children]
        idx = len(nodes)
        nodes.append({"label": node.label, "children": child_idx})
        return idx

    walk(root)
    ancestors = [set() for _ in nodes]

    def mark(idx, above):
        for c in nodes[idx]["children"]:
            mark(c, above | {idx})
        ancestors[idx] = above

    mark(len(nodes) - 1, set())
    return [n["label"] for n in nodes], ancestors


def brute_force_ted(a, b):
    """Exhaustive minimum over valid edit mappings (ancestor and order
    preserving partial bijections); exact for tiny trees."""
    labels_a, anc_a = _flatten(a)
    labels_b, anc_b = _flatten(b)
    n, m = len(labels_a), len(labels_b)
    best = n + m  # delete everything, insert everything
    idx_a = list(range(n))
    for size in range(1, min(n, m) + 1):
        for sub_a in itertools.combinations(idx_a, size):
            for sub_b in itertools.permutations(range(m), size):
                # order preservation: postorder increasing in both
                if list(sub_b) != sorted(sub_b):
                    continue
                ok = True
                for (i1, j1), (i2, j2) in itertools.combinations(
                        zip(sub_a, sub_b), 2):
                    if (i1 in anc_a[i2]) != (j1 in anc_b[j2]):
                        ok = False
                        break
                    if (i2 in anc_a[i1]) != (j2 in anc_b[j1]):
                        ok = False
                        break
                if not ok:
                    continue
                relabels = sum(1 for i, j in zip(sub_a, sub_b)
                               if labels_a[i] != labels_b[j])
                cost = (n - size) + (m - size) + relabels
                best = min(best, cost)
    return best


# --- reference: the textbook keyroot program and the sentence-pair loop -------

def reference_postorder(root):
    """Postorder labels, leftmost-leaf indices (1-based), and keyroots."""
    labels = []
    lmd = []

    def walk(node):
        first_leaf = None
        for child in node.children:
            leaf = walk(child)
            if first_leaf is None:
                first_leaf = leaf
        labels.append(node.label)
        idx = len(labels)
        lmd.append(first_leaf if first_leaf is not None else idx)
        return lmd[-1]

    walk(root)
    seen = set()
    keyroots = []
    for i in range(len(labels), 0, -1):
        if lmd[i - 1] not in seen:
            keyroots.append(i)
            seen.add(lmd[i - 1])
    keyroots.sort()
    return labels, lmd, keyroots


def reference_ted(a, b):
    """Zhang-Shasha with per-pair forest tables and offset indexing."""
    la, lmda, kra = reference_postorder(a)
    lb, lmdb, krb = reference_postorder(b)
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
                        fd[di][dj] = min(fd[di - 1][dj] + 1, fd[di][dj - 1] + 1,
                                         fd[di - 1][dj - 1] + relabel)
                        td[i1][j1] = fd[di][dj]
                    else:
                        fd[di][dj] = min(
                            fd[di - 1][dj] + 1, fd[di][dj - 1] + 1,
                            fd[lmda[i1 - 1] - 1 - ioff][lmdb[j1 - 1] - 1 - joff] + td[i1][j1])
    return td[n][m]


def reference_avg_ted(corpus):
    """Mean distance over every unordered sentence pair, summed in floats."""
    sents = [s for text in corpus for s in sentences_of(text)]
    if len(sents) < 2:
        return 0.0
    total = 0.0
    pairs = 0
    for i in range(len(sents)):
        for j in range(i + 1, len(sents)):
            total += reference_ted(reference_chunk_tree(sents[i]),
                                   reference_chunk_tree(sents[j]))
            pairs += 1
    return total / pairs


def leaf(label):
    return TreeNode(label)


def node(label, *children):
    return TreeNode(label, tuple(children))


def test_identical_trees_distance_zero():
    t = node("S", node("NP", leaf("DET"), leaf("NOUN")), node("VP", leaf("VERB")))
    assert tree_edit_distance(t, t) == 0


def test_single_relabel_costs_one():
    t1 = node("S", node("NP", leaf("DET"), leaf("NOUN")))
    t2 = node("S", node("NP", leaf("DET"), leaf("PRON")))
    assert tree_edit_distance(t1, t2) == 1


def test_three_vs_four_node_matches_brute_force():
    t1 = node("S", node("NP", leaf("NOUN")))
    t2 = node("S", node("NP", leaf("DET"), leaf("NOUN")))
    assert tree_edit_distance(t1, t2) == brute_force_ted(t1, t2) == 1


# labels with spaces and parentheses: "(A B)" serializes like a subtree
_tiny_labels = st.sampled_from(["A", "B", "C", "A B", "(A B)"])


@st.composite
def tiny_tree(draw, max_nodes=5):
    budget = draw(st.integers(1, max_nodes))

    def build(remaining):
        label = draw(_tiny_labels)
        children = []
        used = 1
        while used < remaining and draw(st.booleans()):
            sub, cost = build(remaining - used)
            children.append(sub)
            used += cost
        return TreeNode(label, tuple(children)), used

    tree, _ = build(budget)
    return tree


@settings(max_examples=60, deadline=None)
@given(tiny_tree(), tiny_tree())
def test_matches_mapping_oracle_on_tiny_trees(t1, t2):
    assert tree_edit_distance(t1, t2) == brute_force_ted(t1, t2) == reference_ted(t1, t2)


def random_tree(rng, size, labels):
    if size == 1:
        return TreeNode(rng.choice(labels))
    children = []
    left = size - 1
    while left:
        k = rng.randint(1, left)
        children.append(random_tree(rng, k, labels))
        left -= k
    return TreeNode(rng.choice(labels), tuple(children))


def relabel(tree, rng, labels):
    """The same structure under freshly drawn labels."""
    return TreeNode(rng.choice(labels), tuple(relabel(c, rng, labels) for c in tree.children))


def test_kernel_matches_reference_on_random_trees():
    rng = random.Random(11)
    labels = ["S", "NP", "VP", "x y", "(", ")", "(NP VP)", ""]
    for _ in range(400):
        a = random_tree(rng, rng.randint(1, 24), labels)
        b = random_tree(rng, rng.randint(1, 24), labels)
        for other in (b, relabel(a, rng, labels), a):
            assert tree_edit_distance(a, other) == reference_ted(a, other)


def test_ted_symmetry_and_triangle():
    t1 = node("S", node("NP", leaf("DET"), leaf("NOUN")))
    t2 = node("S", node("VP", leaf("VERB")))
    t3 = node("S", node("NP", leaf("NOUN")), node("VP", leaf("VERB")))
    d12 = tree_edit_distance(t1, t2)
    assert d12 == tree_edit_distance(t2, t1)
    assert d12 <= tree_edit_distance(t1, t3) + tree_edit_distance(t3, t2)


# --- the default chunker ----------------------------------------------------

def test_chunker_shapes_are_lexenless():
    shape = tree_shape(reference_chunk_tree(("find", "the", "hotel")))
    assert shape == "(S (VP VERB) (NP DET NOUN))"
    assert "hotel" not in shape


def test_chunker_prepositional_groups():
    shape = tree_shape(reference_chunk_tree(tokenize("the cat is running in the garden")))
    assert shape == "(S (NP DET NOUN) (VP AUX VERB) (PP PREP (NP DET NOUN)))"


# one word of each tag class: DET, PRON, AUX, PREP, CONJ, WH, NUM (digits and
# a number word), VERB (lexicon and suffix), ADV, ADJ and NOUN
TAGGED_WORDS = ["the", "she", "is", "in", "to", "and", "why", "42", "two", "find",
                "organized", "quickly", "useful", "hotel"]


@pytest.mark.parametrize("sentence, shape", [
    ("find the hotel in", "(S (VP VERB) (NP DET NOUN) PREP)"),  # PREP at the end
    ("in to the garden", "(S PREP (PP PREP (NP DET NOUN)))"),  # PREP then PREP
    ("in is running", "(S PREP (VP AUX VERB))"),  # PREP then a non-nominal
    ("why and what", "(S WH CONJ WH)"),
    ("book 2 rooms for 30 nights", "(S (VP VERB) (NP NUM NOUN) (PP PREP (NP NUM NOUN)))"),
    ("", "S"),
    ("!!!", "S"),
])
def test_chunk_shape_cases(sentence, shape):
    tokens = tokenize(sentence)
    tree = reference_chunk_tree(tokens)
    assert tree_shape(tree) == shape
    assert chunk_tree(chunks(tokens)) is to_postorder(tree)


@given(st.lists(st.sampled_from(TAGGED_WORDS), max_size=16))
@settings(max_examples=300, deadline=None)
def test_chunk_shape_renders_the_chunk_tree(words):
    sentence = tuple(words)
    tree = reference_chunk_tree(sentence)
    assert chunk_tree(chunks(sentence)) is to_postorder(tree)
    assert chunk_sentence(sentence) is to_postorder(tree)


# words of one tag class, so a sentence and its swap chunk alike
SAME_TAG = {"in": "to", "to": "in", "42": "two", "two": "42", "find": "organized",
            "organized": "find"}


@given(st.lists(st.sampled_from(TAGGED_WORDS), max_size=8),
       st.lists(st.sampled_from(TAGGED_WORDS), max_size=8), st.booleans())
@settings(max_examples=300, deadline=None)
def test_equal_chunks_exactly_when_equal_tree_shapes(a, b, swapped):
    # the invariant that lets entropy count chunks: no two tree shapes share
    # them, so no entropy bit is lost
    if swapped:
        b = [SAME_TAG.get(word, word) for word in a]
    same_shape = tree_shape(reference_chunk_tree(a)) == tree_shape(reference_chunk_tree(b))
    assert (chunks(a) == chunks(b)) == same_shape


def test_token_memos_equal_their_functions():
    words = TAGGED_WORDS + ["rhythm", "make", "idea", "table", "free", "a", "x", "2024",
                            "everything", "beautiful", "recommend", "whether"]
    assert {trees.tag_token(w) for w in TAGGED_WORDS} == {
        "DET", "PRON", "AUX", "PREP", "CONJ", "WH", "NUM", "VERB", "ADV", "ADJ", "NOUN"}
    for word in words:
        assert trees.tag_token(word) == trees.tag_token.__wrapped__(word)
        assert count_syllables(word) == count_syllables.__wrapped__(word)


def test_sentence_parts_stay_out_of_the_tokenize_memo(monkeypatch):
    # each sentence is chunked once
    chunked = []
    chunker = trees.chunks
    monkeypatch.setattr(trees, "chunks",
                        lambda sentence: chunked.append(sentence) or chunker(sentence))
    tokenize.cache_clear()
    assert parse_tree_entropy(["Find a hotel in Rome. Book the flight?"]) == 1.0
    assert chunked == [("find", "a", "hotel", "in", "rome"), ("book", "the", "flight")]
    assert [tree_shape(reference_chunk_tree(s)) for s in chunked] == [
        "(S (VP VERB) (NP DET NOUN) (PP PREP (NP NOUN)))", "(S (VP VERB) (NP DET NOUN))"]
    assert tokenize.cache_info().currsize == 0


def test_sentences_of_splits_and_filters():
    assert sentences_of("Find it. Then check! Really?") == [
        ("find", "it"), ("then", "check"), ("really",)]
    assert sentences_of("!!!") == []


def test_parse_tree_entropy_hand_computed():
    corpus = ["find the hotel", "find the hotel", "book a flight now"]
    # shapes: two identical, one distinct -> -(2/3 log2 2/3 + 1/3 log2 1/3)
    expected = -(2 / 3 * math.log2(2 / 3) + 1 / 3 * math.log2(1 / 3))
    assert parse_tree_entropy(corpus) == pytest.approx(expected, abs=1e-12)


def test_parse_tree_entropy_extremes():
    assert parse_tree_entropy(["find the hotel"] * 5) == 0.0
    distinct = ["find the hotel", "she is running", "in the garden",
                "check it now please"]
    shapes = {chunks(tokenize(s)) for s in distinct}
    assert len(shapes) == 4
    assert parse_tree_entropy(distinct) == pytest.approx(math.log2(4), abs=1e-12)


def test_avg_tree_edit_distance_examples():
    assert avg_tree_edit_distance(["find the hotel", "find the hotel"]) == 0.0
    one = "find the hotel"
    two = "find the flight"  # same shape -> 0 distance
    assert avg_tree_edit_distance([one, two]) == 0.0
    assert avg_tree_edit_distance(["find the hotel"]) == 0.0
    mixed = ["find the hotel", "she is running in the garden"]
    a, b = (reference_chunk_tree(tokenize(s)) for s in mixed)
    assert avg_tree_edit_distance(mixed) == tree_edit_distance(a, b)


def test_avg_tree_edit_distance_matches_the_sentence_pair_loop():
    rng = random.Random(5)
    words = ["find", "the", "hotel", "in", "rome", "she", "is", "running", "quickly",
             "book", "a", "flight", "to", "paris", "and", "two", "cheap", "rooms", "why"]
    corpora = [[], ["!!!"], ["find the hotel"], ["find the hotel. she is running"],
               ["find the hotel", "book a flight to paris"]]
    for size in (3, 8, 20):
        corpora.append([". ".join(" ".join(rng.choices(words, k=rng.randint(1, 9)))
                                  for _ in range(rng.randint(1, 3)))
                        for _ in range(size)])
    for corpus in corpora:
        assert avg_tree_edit_distance(corpus) == reference_avg_ted(corpus)
        # a resample with repeats, as the bootstrap draws
        repeated = corpus + corpus[: len(corpus) // 2]
        assert avg_tree_edit_distance(repeated) == reference_avg_ted(repeated)


def test_avg_tree_edit_distance_runs_the_kernel_once_over_distinct_shapes(monkeypatch):
    calls = []

    def counting(batch):
        calls.append(len(batch))
        return _distances(batch)

    monkeypatch.setattr(trees, "_distances", counting)
    for corpus in ([], ["!!!"], ["find the hotel"], ["find the hotel!!!"]):
        assert avg_tree_edit_distance(corpus) == 0.0
    assert calls == []  # fewer than two sentences build no table
    corpus = ["find the hotel", "find the flight", "she is running in the garden",
              "book a room. find the hotel", "check it now please", "why"]
    avg_tree_edit_distance(corpus)
    assert calls == [len({chunks(s) for text in corpus for s in sentences_of(text)})]


# --- the batched kernel -------------------------------------------------------

def test_batched_distances_match_reference_on_every_pair():
    rng = random.Random(23)
    labels = ["S", "NP", "VP", "x y", "(", ")", "(NP VP)", ""]
    sets = [[random_tree(rng, rng.randint(1, 24), labels)] for _ in range(3)]
    sets += [[random_tree(rng, rng.randint(1, 24), labels) for _ in range(2)] for _ in range(3)]
    for _ in range(12):
        batch = [random_tree(rng, rng.randint(1, 24), labels) for _ in range(rng.randint(3, 12))]
        # a repeated tree, and one of the same shape under other labels
        sets.append(batch + [batch[0], relabel(batch[-1], rng, labels)])
    big = random_tree(rng, 240, labels)
    sets.append([big, relabel(big, rng, labels), random_tree(rng, 30, labels), leaf("S")])
    # two wide, alike trees of one height, and a taller, smaller one
    chain = leaf("S")
    for _ in range(10):
        chain = node("S", chain)
    sets.append([node("S", *(leaf("NP" if i % 3 else "VP") for i in range(40))),
                 node("S", *(leaf("x y" if i % 3 else "VP") for i in range(50))), chain])
    for batch in sets:
        table = _distances([to_postorder(t) for t in batch])
        for (i, a), (j, b) in itertools.product(enumerate(batch), repeat=2):
            assert table[i, j] == reference_ted(a, b)


def corpus_of_distinct_trees(rng, size):
    """``size`` one- or two-sentence texts of random words from every tag class."""
    words = ["find", "the", "hotel", "in", "rome", "she", "is", "running", "quickly",
             "book", "a", "flight", "to", "paris", "and", "two", "cheap", "rooms", "why",
             "with", "beautiful", "each", "of", "visited", "3"]
    return [". ".join(" ".join(rng.choices(words, k=rng.randint(2, 12)))
                      for _ in range(1 + (rng.random() < 0.2)))
            for _ in range(size)]


def test_avg_tree_edit_distance_matches_the_sentence_pair_loop_on_a_larger_corpus():
    corpus = corpus_of_distinct_trees(random.Random(31), 62)
    assert len({chunks(s) for t in corpus for s in sentences_of(t)}) >= 60
    assert avg_tree_edit_distance(corpus) == reference_avg_ted(corpus)
    rng = random.Random(32)
    resample = rng.choices(corpus, k=30)  # with repeats, as a bootstrap draws
    assert len(set(resample)) < len(resample)
    assert avg_tree_edit_distance(resample) == reference_avg_ted(resample)


def test_a_report_runs_the_kernel_once(monkeypatch):
    corpus = corpus_of_distinct_trees(random.Random(31), 62)
    calls = []

    def counting(batch):
        calls.append(len(batch))
        return _distances(batch)

    monkeypatch.setattr(trees, "_distances", counting)
    analyze_corpus(corpus, HashEmbedder(), seed=3)
    # the corpus's distinct shapes; its 100 resamples read the corpus's table
    assert calls == [len({chunks(s) for t in corpus for s in sentences_of(t)})]
