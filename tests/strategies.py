"""Shared Hypothesis strategies that build valid Python by construction.

Every draw compiles, so a test asserts ``compile()`` instead of
filtering draws with ``assume`` (which can starve Hypothesis into a
``filter_too_much`` health-check failure).
"""

from __future__ import annotations

from hypothesis import strategies as st

#: Identifiers over a-g of at most two letters: none is a keyword.
_NAME = st.text(alphabet="abcdefg", min_size=1, max_size=2)

_EXPR = st.recursive(
    st.one_of(
        _NAME,
        st.integers(0, 9999).map(str),
        st.text(alphabet="abcdefg 0123456789", max_size=4).map(repr),
    ),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*%"), inner).map(" ".join),
        st.tuples(_NAME, inner).map("{0[0]}({0[1]})".format),
        st.tuples(_NAME, inner).map("{0[0]}[{0[1]}]".format),
        st.lists(inner, max_size=3).map(", ".join).map("[{}]".format),
    ),
    max_leaves=6,
)


@st.composite
def _block(draw, indent: str = "", depth: int = 0) -> list[str]:
    """1-4 statements at ``indent``: assignments, augmented
    assignments, calls and, up to two levels deep, nested blocks."""
    kinds = ["=", "+=", "%=", "call"]
    if depth < 2:
        kinds += ["if", "for", "while"]
    lines: list[str] = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(kinds))
        if kind == "call":
            lines.append(f"{indent}{draw(_NAME)}({draw(_EXPR)})")
        elif kind in ("if", "while"):
            lines.append(f"{indent}{kind} {draw(_EXPR)}:")
            lines += draw(_block(indent + "    ", depth + 1))
        elif kind == "for":
            lines.append(f"{indent}for {draw(_NAME)} in {draw(_EXPR)}:")
            lines += draw(_block(indent + "    ", depth + 1))
        else:
            lines.append(f"{indent}{draw(_NAME)} {kind} {draw(_EXPR)}")
    return lines


#: Statement soup over the same identifiers, digits and operators:
#: valid Python by construction, so no draw is filtered away.
parseable_soup = _block().map(lambda lines: "\n".join(lines) + "\n")


@st.composite
def soup_functions(draw) -> str:
    """A module of 1-3 functions whose bodies are statement soup."""
    lines: list[str] = []
    for index in range(draw(st.integers(1, 3))):
        lines.append(f"def fn_{index}(a, b):")
        lines += draw(_block("    "))
    return "\n".join(lines) + "\n"
