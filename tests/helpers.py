"""Test helpers shared by several test modules."""

from hypothesis import strategies as st

from kwise import SetFamily
from kwise.bitops import _min_relabeling, _swap_table


@st.composite
def families(draw, max_n=4):
    n = draw(st.integers(min_value=1, max_value=max_n))
    bm = draw(st.integers(min_value=0, max_value=(1 << (1 << n)) - 1))
    return SetFamily(n, bm)


def brute_force_max_cut(m, edges):
    """The largest cut of a graph on vertices 0..m-1, over every 2-coloring."""
    best = 0
    for asg in range(1 << max(m - 1, 0)):
        asg <<= 1  # vertex 0 pinned to the left side
        cut = sum(1 for u, v in edges if ((asg >> u) ^ (asg >> v)) & 1)
        best = max(best, cut)
    return best


def is_min_relabeling(bitmap, n):
    """Whether a family bitmap is the least of its relabelings.  An exchange
    of adjacent coordinates is itself one, and lowers the bitmap when the
    members it moves down outweigh those it moves up; a bitmap that none of
    the n - 1 exchanges lowers takes the branch and bound."""
    for row in _swap_table(n)[1:]:
        shift, pat = row[-1]  # row b ends with the exchange of b - 1 and b
        if (bitmap >> shift) & pat > bitmap & pat:
            return False
    return _min_relabeling(bitmap, n) == bitmap
