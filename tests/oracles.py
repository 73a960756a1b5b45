"""Reference implementations that the suites compare the package against.

None of these has a caller in the package: `fd_jacobian` checks the exact
Jacobians, `ch_compose` and `fischer_gram` check the combined-exponent
operator C_k and the adjoint identity of the bracket operator, and
`is_identity` checks compositions with inverses.
"""
import math

import numpy as np

from eqnf.polymap import (TruncatedMap, adk_operator, ck_operator, ck_solve,
                          monomials)


def fd_jacobian(f, x) -> np.ndarray:
    """Central-difference Jacobian of f at x with step 1e-6 * max(1, |x|)."""
    x = np.asarray(x, dtype=float)
    h = 1e-6 * max(1.0, float(np.linalg.norm(x)))
    cols = []
    for i in range(x.size):
        e = np.zeros(x.size)
        e[i] = h
        cols.append((f(x + e) - f(x - e)) / (2 * h))
    return np.column_stack(cols) if cols else np.zeros((0, 0))


def is_identity(F: TruncatedMap, tol: float) -> bool:
    """Whether F is the identity map up to tol in every coefficient."""
    return F.allclose(TruncatedMap.identity(F.n, F.order), tol)


def ch_compose(X: TruncatedMap, Yk, k: int, side: str) -> TruncatedMap:
    """Exponent of exp(X) o exp(Y_k) (side "right") or exp(Y_k) o exp(X)
    (side "left"), for a single degree-k layer Y_k; exact modulo degrees > k.
    """
    Yk = np.asarray(Yk, dtype=float)
    X1 = X.linear()
    z = ck_solve(ck_operator(-X1 if side == "left" else X1, k), Yk.reshape(-1))
    return X.with_layer(k, X.layer(k) + z.reshape(Yk.shape))


def fischer_gram(n: int, k: int, gram) -> np.ndarray:
    """Gram matrix of the Fischer product on degree-k layers, adapted to the
    inner product with matrix `gram` on R^n.

    Under this product the adjoint of adk_field(N, k) is adk_field(N*, k)
    where N* is the gram-adjoint of N.
    """
    w, V = np.linalg.eigh(np.asarray(gram, dtype=float))
    Q = V @ np.diag(np.sqrt(w)) @ V.T
    fact = np.array([math.prod(math.factorial(e) for e in al)
                     for al in monomials(n, k)], dtype=float)
    Ad = adk_operator(Q, k)
    return Ad.T @ np.kron(np.eye(n), np.diag(fact)) @ Ad
