"""Hypothesis strategy shared by the fuzz tests of the "mesh v1", "field v1"
and "grid v1" readers: a valid text with a few lines or tokens replaced,
inserted, deleted or reversed."""

from hypothesis import strategies as st

TOKENS = st.one_of(
    st.sampled_from(
        ["", "0", "1", "2", "-1", "7", "0.5", "1e999", "nan", "a", "boundary",
         "vertices", "triangles", "mesh v1", "0 1 2", "3 0 1 2", "99999999999999999999",
         "values", "mask", "origin 0 0", "spacing 0.1", "size 2 2", "1.0", "1_0", "#"]
    ),
    st.text(max_size=8),
)


@st.composite
def mutated_texts(draw, base_texts):
    """One of base_texts with one to three lines or tokens edited."""
    lines = draw(st.sampled_from(base_texts)).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        # half of the edits land in the last lines: boundary loops, last value rows
        n = len(lines)
        i = draw(st.one_of(st.integers(0, n - 1), st.integers(max(0, n - 12), n - 1)))
        op = draw(st.sampled_from(["replace", "insert", "delete", "token", "swap"]))
        if op == "replace":
            lines[i] = draw(TOKENS)
        elif op == "insert":
            lines.insert(i, draw(TOKENS))
        elif op == "delete" and len(lines) > 1:
            del lines[i]
        elif op == "token":
            parts = lines[i].split() or [""]
            parts[draw(st.integers(0, len(parts) - 1))] = draw(TOKENS)
            lines[i] = " ".join(parts)
        elif op == "swap":
            lines[i] = " ".join(reversed(lines[i].split()))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))
