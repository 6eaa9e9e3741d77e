"""`ingest.parse_newick` against a frozen reference, the character-at-a-time
parser it replaced: on any text both give the same tree (name, length and
children of every node), or both raise a ParseError with the same message."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from reconviz.errors import ParseError
from reconviz.ingest import TREE, TreeNode, parse_newick


def reference_parse_newick(text: str, path: str = "<newick>") -> TreeNode:
    """The character-at-a-time parser `parse_newick` replaced, kept as it
    was."""
    pos = 0
    n = len(text)

    def error(detail: str) -> ParseError:
        return ParseError(TREE, path, detail, line=None)

    def skip_ws() -> None:
        nonlocal pos
        while pos < n:
            ch = text[pos]
            if ch in " \t\r\n":
                pos += 1
            elif ch == "[":  # comment block
                end = text.find("]", pos)
                if end == -1:
                    raise error(f"unterminated comment at offset {pos}")
                pos = end + 1
            else:
                break

    def parse_label() -> str:
        nonlocal pos
        skip_ws()
        if pos < n and text[pos] in "'\"":
            quote = text[pos]
            end = text.find(quote, pos + 1)
            if end == -1:
                raise error(f"unterminated quoted label at offset {pos}")
            label = text[pos + 1 : end]
            pos = end + 1
            return label
        start = pos
        while pos < n and text[pos] not in "(),:;[":
            pos += 1
        return text[start:pos].strip()

    def parse_length() -> float | None:
        nonlocal pos
        skip_ws()
        if pos < n and text[pos] == ":":
            pos += 1
            skip_ws()
            start = pos
            while pos < n and text[pos] not in "(),;[":
                pos += 1
            token = text[start:pos].strip()
            try:
                length = float(token)
                if math.isfinite(length):
                    return length
            except ValueError:
                pass
            raise error(f"bad branch length {token!r} at offset {start}")
        return None

    def finish(node: TreeNode) -> None:
        label = parse_label()
        if label:
            node.name = label
        node.length = parse_length()

    def parse_node() -> TreeNode:
        """One node and its subtree; clades still waiting for their ')' are
        kept on an explicit stack, so nesting depth is not limited by
        Python's recursion limit."""
        nonlocal pos
        open_clades: list[TreeNode] = []
        while True:
            skip_ws()
            node = TreeNode()
            while pos < n and text[pos] == "(":
                pos += 1
                open_clades.append(node)
                skip_ws()
                node = TreeNode()
            finish(node)
            while open_clades:
                open_clades[-1].children.append(node)
                skip_ws()
                if pos >= n:
                    raise error("unterminated clade: missing ')'")
                if text[pos] == ",":
                    pos += 1
                    break  # parse the next sibling
                if text[pos] != ")":
                    raise error(f"unexpected {text[pos]!r} at offset {pos}")
                pos += 1
                node = open_clades.pop()
                finish(node)
            else:
                return node

    root = parse_node()
    skip_ws()
    if pos >= n or text[pos] != ";":
        raise error("missing terminating ';'")
    pos += 1
    skip_ws()
    if pos != n:
        raise error(f"trailing content after ';' at offset {pos}")
    leaves = root.leaf_order
    if not leaves:
        raise error("tree has no leaves")
    labels = [leaf.name for leaf in leaves]
    if any(not lbl for lbl in labels):
        raise error("tree has unnamed leaves")
    if len(set(labels)) != len(labels):
        raise error("tree has duplicate leaf labels")
    return root




def shape(node: TreeNode) -> tuple:
    return (node.name, node.length, [shape(child) for child in node.children])


def outcome(parse, text: str):
    """The parsed tree's shape, or the message of the ParseError raised."""
    try:
        return shape(parse(text))
    except ParseError as exc:
        return str(exc)


# Every character the grammar gives a meaning to, blanks the parser skips and
# blanks only `str.strip` removes, labels and numbers, valid or not.
_PIECES = st.sampled_from([
    *"(),:;[]'\"", " ", "\t", "\r\n", "\x0b", "\u3000",
    "a", "b", "leaf", "x y", "1", "0.5", "-2", "1e3", "nan", "inf", "1e999", "[c]",
])

# (shape, with None for a leaf and a list of children for a clade)
_SHAPES = st.recursive(st.none(), lambda kids: st.lists(kids, min_size=1, max_size=4),
                       max_leaves=200)
_BLANKS = st.sampled_from(["", "", " ", "\t", "\r\n", "[c]", " [&R] ", "[]"])
_LENGTHS = st.sampled_from(["", "", ":1", ":0.5", ": 2.0 ", ":-1e-3", ":1e300", ":[c]3"])


@st.composite
def valid_trees(draw) -> str:
    """Newick text of a tree with unique, plain or quoted leaf labels, named
    or unnamed clades, optional branch lengths, and blanks and comments
    between tokens."""
    numbers = iter(range(10**6))

    def write(node) -> str:
        if node is None:
            name = f"n{next(numbers)}"
            label = draw(st.sampled_from([name, f"'{name} x'", f'"{name},y"', f" {name} "]))
        else:
            label = "(" + ",".join(draw(_BLANKS) + write(kid) + draw(_BLANKS) for kid in node)
            label += ")" + draw(st.sampled_from(["", "inner", "'in ner'"]))
        return label + draw(_LENGTHS)

    return draw(_BLANKS) + write(draw(_SHAPES)) + draw(_BLANKS) + ";" + draw(_BLANKS)


# texts where a branch length needs more than one look: comments after its
# ':', an unclosed one there, a blank only `str.strip` removes, a ':' inside
EDGE_TEXTS = ["(a:[c]1,b);", "(a: [c] [d]1 ,b);", "(a: [x,b);", "(a:[x", "(a:\x1c[c]1,b);",
              "(a:\x1c1,b);", "(a:1[c]:2,b);", "(a:1:2,b);", "(a:'1',b);", "(a:,b);", "a:;"]


class TestNewickOracle:
    @pytest.mark.parametrize("text", EDGE_TEXTS)
    def test_edge_texts_parse_as_the_reference_does(self, text):
        assert outcome(parse_newick, text) == outcome(reference_parse_newick, text)

    @settings(max_examples=2000, deadline=None, derandomize=True)
    @given(st.lists(_PIECES, max_size=40).map("".join))
    def test_any_text_parses_as_the_reference_does(self, text):
        assert outcome(parse_newick, text) == outcome(reference_parse_newick, text)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(valid_trees())
    def test_valid_trees_parse_as_the_reference_does(self, text):
        expected = outcome(reference_parse_newick, text)
        assert not isinstance(expected, str), expected
        assert outcome(parse_newick, text) == expected


def yule_tree(leaves: int, seed: int, dressed: bool = False) -> str:
    """Newick text of a random binary tree shaped like the Ebola-scale fixture:
    two clades drawn at random are joined until one is left (the Yule shape),
    and every branch has a 4-decimal length. The dressed text of the same tree
    quotes its labels, which then hold `(),:;[` and blanks at both ends, and
    puts blanks and comments between tokens."""
    rng, dress = random.Random(seed), random.Random(-seed)
    gaps = ["", " ", "\n", "[c]", " [&R] ", "\t[c,d:(e)]"]
    gap = (lambda: dress.choice(gaps)) if dressed else str

    def length() -> str:
        return f"{gap()}:{gap()}{rng.uniform(0.001, 0.2):.4f}{gap()}"

    clades = [f"' E{i:04d} (x,y):z;[w '" if dressed else f"E{i:04d}" for i in range(1, leaves + 1)]
    clades = [f"{gap()}{label}{length()}" for label in clades]
    while len(clades) > 1:
        a = clades.pop(rng.randrange(len(clades)))
        b = clades.pop(rng.randrange(len(clades)))
        clades.append(f"{gap()}({a},{b}){length() if clades else gap()}")  # the root has none
    return clades[0] + ";" + gap()


EBOLA_SHAPED = yule_tree(1600, seed=1)
EBOLA_DRESSED = yule_tree(1600, seed=1, dressed=True)


def edit_sites(tree: str) -> list[int]:
    """Fixed offsets past 10,000: the first of each of `(),:'.]` at or after two
    fixed points. In a dressed tree `(),:` also stand in labels, `'` bounds a
    label, `]` ends a comment and `.` stands in a length."""
    return sorted({tree.find(char, start) for start in (10_007, 25_013) for char in "(),:'.]"} - {-1})


class TestLongTrees:
    @pytest.mark.parametrize("text", [EBOLA_SHAPED, EBOLA_DRESSED], ids=["plain", "dressed"])
    def test_an_ebola_sized_tree_parses_as_the_reference_does(self, text):
        expected = outcome(reference_parse_newick, text)
        assert not isinstance(expected, str), expected
        assert outcome(parse_newick, text) == expected

    def test_the_dressed_text_is_the_same_tree(self):
        def unnamed(shape: tuple) -> tuple:
            name, length, children = shape
            return (bool(name), length, [unnamed(child) for child in children])

        plain, dressed = (shape(reference_parse_newick(t)) for t in (EBOLA_SHAPED, EBOLA_DRESSED))
        assert unnamed(plain) == unnamed(dressed)

    @pytest.mark.parametrize("tree", [EBOLA_SHAPED, EBOLA_DRESSED], ids=["plain", "dressed"])
    def test_one_character_changed_deep_in_a_long_tree(self, tree):
        """Each change makes an error, or moves where tokens start, past
        offset 10,000: both parsers give the same outcome."""
        errors = set()
        for offset in edit_sites(tree):
            for char in "(),:;[]'\" x":
                text = tree[:offset] + char + tree[offset + 1:]
                expected = outcome(reference_parse_newick, text)
                if isinstance(expected, str):
                    errors.add(expected)
                assert outcome(parse_newick, text) == expected, (offset, char)
        assert len(errors) >= 20
