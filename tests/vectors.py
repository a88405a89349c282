"""Dense lists from sparse vectors and back, for the oracles of the tests.

The program's exact kernels (linalg.rank_matrix, solve and nullspace)
take sparse rows and return sparse vectors, dict column -> nonzero number.
Oracles that index or multiply dense lists of length n convert through
these two functions, and nowhere else.
"""


def dense(vec: dict, n: int) -> list:
    """The sparse vector as a list of length n, 0 off its support."""
    return [vec.get(j, 0) for j in range(n)]


def sparse(row) -> dict:
    """The dense row as a sparse vector: its nonzero entries, keys ascending."""
    return {j: x for j, x in enumerate(row) if x}
