"""Eigenvalues of small real symmetric matrices (dim <= 25).

A cyclic Jacobi rotation sweep is all that is needed at these sizes and
keeps the package free of numerical dependencies; the rotations update the
matrix only, since no eigenvectors are returned.  Convergence is declared
when the off-diagonal Frobenius norm drops below 1e-13 * max(1, largest
|entry|), which is 1e-13 for every matrix the package builds; a matrix
still above it after 50 sweeps raises ArithmeticError.

`symmetric_eigenvalues` is the checked entry point.  After its input checks
it splits the matrix into the connected components of its nonzero pattern,
over which the matrix is exactly block diagonal, and diagonalizes each
component alone; the pair reduction of a fixed-M state and its partial
transpose fall into blocks of at most d x d for d-level particles.
"""

from __future__ import annotations

from itertools import chain
from math import isfinite, sqrt

Matrix = list[list[float]]

OFF_DIAGONAL_TOLERANCE = 1e-13
MAX_SWEEPS = 50
SYMMETRY_TOLERANCE = 1e-12


def off_diagonal_norm(a: Matrix) -> float:
    return sqrt(
        sum(
            a[i][j] * a[i][j]
            for i in range(len(a))
            for j in range(len(a))
            if i != j
        )
    )


def jacobi_eigh(a: Matrix) -> list[float]:
    """Ascending eigenvalues of a real symmetric matrix, unchecked."""
    n = len(a)
    largest = max(map(abs, chain.from_iterable(a)), default=0.0)
    threshold = OFF_DIAGONAL_TOLERANCE * max(1.0, largest)
    a = [row[:] for row in a]
    sweeps = 0
    while not off_diagonal_norm(a) < threshold:
        if sweeps == MAX_SWEEPS:
            raise ArithmeticError(
                f"Jacobi iteration did not converge in {MAX_SWEEPS} sweeps"
            )
        sweeps += 1
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if apq == 0.0:
                    continue
                theta = (a[q][q] - a[p][p]) / (2.0 * apq)
                t = (1.0 if theta >= 0.0 else -1.0) / (
                    abs(theta) + sqrt(theta * theta + 1.0)
                )
                c = 1.0 / sqrt(t * t + 1.0)
                s = t * c
                for k in range(n):
                    akp, akq = a[k][p], a[k][q]
                    a[k][p] = c * akp - s * akq
                    a[k][q] = s * akp + c * akq
                for k in range(n):
                    apk, aqk = a[p][k], a[q][k]
                    a[p][k] = c * apk - s * aqk
                    a[q][k] = s * apk + c * aqk
    return sorted(a[i][i] for i in range(n))


def symmetric_eigenvalues(a: Matrix) -> list[float]:
    """All eigenvalues of a real symmetric matrix, ascending.

    Raises ValueError unless `a` is square, finite and symmetric.  The
    matrix is block diagonal over the connected components of the nonzero
    pattern of its upper triangle, so each component is solved on its own:
    a 1x1 component is its diagonal entry, any larger one goes to
    `jacobi_eigh` with its indices in their original order.  A matrix whose
    two triangles differ within `SYMMETRY_TOLERANCE` is solved as the
    mirror image of its upper triangle.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix is not square")
    if not all(map(isfinite, chain.from_iterable(a))):
        raise ValueError("matrix has a non-finite entry")
    label = list(range(n))  # component of each index
    mirror = False
    for i, row in enumerate(a):
        for j in range(i + 1, n):
            aij = row[j]
            if aij != a[j][i]:
                if abs(aij - a[j][i]) > SYMMETRY_TOLERANCE:
                    raise ValueError(
                        f"matrix is not symmetric: |a[{i}][{j}] - a[{j}][{i}]| = "
                        f"{abs(aij - a[j][i]):.3e}"
                    )
                mirror = True
            if aij != 0.0 and label[j] != label[i]:
                merged, kept = label[j], label[i]
                label = [kept if x == merged else x for x in label]
    if mirror:  # solve the upper triangle that the split read
        a = [[a[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    components: dict[int, list[int]] = {}
    for i, component in enumerate(label):
        components.setdefault(component, []).append(i)
    eigenvalues = []
    for idxs in components.values():
        if len(idxs) == 1:
            eigenvalues.append(a[idxs[0]][idxs[0]])
        else:
            eigenvalues += jacobi_eigh([[a[i][j] for j in idxs] for i in idxs])
    return sorted(eigenvalues)
