"""Irredundant sum-of-products from truth tables (Minato–Morreale).

Truth tables over ``k`` variables are Python ints with ``2**k`` bits;
bit ``m`` is the function value on the assignment whose binary digits
are ``m`` (variable 0 = least significant digit).  The ISOP procedure
takes an interval ``[lower, upper]`` (onset must be covered, don't
cares = ``upper & ~lower``) and returns an irredundant cover.

Cubes are tuples of ``(var, value)`` pairs sorted by variable.
"""

from __future__ import annotations

from functools import lru_cache

Cube = tuple[tuple[int, int], ...]


@lru_cache(maxsize=None)
def full_mask(k: int) -> int:
    """All-ones truth table over k variables."""
    return (1 << (1 << k)) - 1


@lru_cache(maxsize=None)
def var_mask(k: int, i: int) -> int:
    """Truth table of variable ``i`` over ``k`` variables."""
    s = 1 << i
    block = ((1 << s) - 1) << s  # s zeros then s ones
    period = 2 * s
    reps = (1 << k) // period
    m = 0
    for r in range(reps):
        m |= block << (r * period)
    return m


def cofactor0(table: int, k: int, i: int) -> int:
    """Cofactor with variable ``i`` = 0, expanded back over k vars."""
    s = 1 << i
    half = table & ~var_mask(k, i)
    return half | (half << s)


def cofactor1(table: int, k: int, i: int) -> int:
    """Cofactor with variable ``i`` = 1, expanded back over k vars."""
    s = 1 << i
    half = table & var_mask(k, i)
    return half | (half >> s)


def support(table: int, k: int) -> list[int]:
    """Variables the function actually depends on."""
    return [
        i for i in range(k) if cofactor0(table, k, i) != cofactor1(table, k, i)
    ]


def cube_table(cube: Cube, k: int) -> int:
    """Truth table of a cube over k variables."""
    table = full_mask(k)
    for var, value in cube:
        m = var_mask(k, var)
        table &= m if value else ~m & full_mask(k)
    return table


def cover_table(cover: list[Cube], k: int) -> int:
    """Truth table of a cover (OR of cubes)."""
    table = 0
    for cube in cover:
        table |= cube_table(cube, k)
    return table


def isop(lower: int, upper: int, k: int) -> tuple[list[Cube], int]:
    """Minato–Morreale irredundant SOP for the interval [lower, upper].

    Returns ``(cover, table)`` where ``lower <= table <= upper``
    (bitwise implication) and ``cover`` is an irredundant cube list
    realizing ``table``.
    """
    fm = full_mask(k)
    if lower & ~upper & fm:
        raise ValueError("infeasible interval: lower not contained in upper")
    return _isop(lower & fm, upper & fm, k)


_EMPTY: tuple[list[Cube], int] = ([], 0)


def _isop(lower: int, upper: int, n: int) -> tuple[list[Cube], int]:
    """ISOP of an interval over variables ``0 .. n-1``.

    Word-level: both bounds are ``2**n``-bit tables, and the recursion
    splits on the highest variable in the support of either bound
    after dropping the variables above it, so a cofactor is a mask and
    a shift of a table half as wide rather than a full-width expand.
    The split variable, the cube order and the table are those of the
    full-width recursion.  Returns the table over ``n`` variables.
    """
    if lower == 0:
        return [], 0
    fm = full_mask(n)
    if upper == fm:
        return [()], fm
    # Drop variables from the top while neither bound depends on them;
    # the first one either bound depends on is the split variable.
    var = n
    while var:
        var -= 1
        half = 1 << var
        low = (1 << half) - 1
        l0, l1 = lower & low, lower >> half
        u0, u1 = upper & low, upper >> half
        if l0 != l1 or u0 != u1:
            break
        lower, upper = l0, u0
    else:
        # No support and lower != 0: the interval is the constant 1.
        return [()], fm
    # Sub-intervals with an empty lower bound are answered inline: a
    # third of all calls would otherwise return ``[], 0`` at once.
    lower = l0 & ~u1
    c0, f0 = _isop(lower, u0, var) if lower else _EMPTY
    lower = l1 & ~u0
    c1, f1 = _isop(lower, u1, var) if lower else _EMPTY
    lower = (l0 & ~f0) | (l1 & ~f1)
    cr, fr = _isop(lower, u0 & u1, var) if lower else _EMPTY
    table = (f0 | fr) | ((f1 | fr) << half)
    # Widen back over the dropped variables the table does not use.
    width = half << 1
    while width < (1 << n):
        table |= table << width
        width <<= 1
    # Every cube of a sub-cover ranges over variables below ``var``,
    # so appending the split literal keeps it sorted.
    cover = (
        [c + ((var, 0),) for c in c0]
        + [c + ((var, 1),) for c in c1]
        + cr
    )
    return cover, table
