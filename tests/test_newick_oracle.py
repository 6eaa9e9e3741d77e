"""`ingest.parse_newick` against a frozen reference, the character-at-a-time
parser it replaced: on any text both give the same tree (name, length and
children of every node), or both raise a ParseError with the same message."""

from __future__ import annotations

import math

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
                       max_leaves=20)
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


class TestNewickOracle:
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
