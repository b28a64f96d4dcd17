"""Cyclic weighted shift matrices.

S(a_1, ..., a_n) carries a_j on the superdiagonal at (j, j+1) and a_n in
the corner at (n, 1); all other entries vanish.  Conjugating by a diagonal
unitary moves phase between the weights while preserving every |a_j| and
the total product, which is the gauge freedom used for dephasing.

On the unit circle u = e^(i theta) the pencil tI + (u/2) A* + (v/2) A is
tI + H(theta) with H(theta) = cos(theta) Re(A) + sin(theta) Im(A), so

    det(tI + H(theta)) = p(t) + c0 cos(n theta) + ct0 sin(n theta),

and the top eigenvalue of H(theta) is the support function of the
numerical range of A.  H(theta + pi) = -H(theta), so the support function
at theta + pi is minus the bottom eigenvalue of H(theta).  Both the
numerical range and the eigenvalue forward oracle are built on
hermitian_slices.
"""

import dataclasses

import numpy as np


@dataclasses.dataclass(frozen=True)
class ShiftMatrix:
    weights: tuple

    def __init__(self, weights):
        ws = tuple(complex(w) for w in weights)
        if len(ws) < 3:
            raise ValueError("need at least 3 weights")
        object.__setattr__(self, "weights", ws)

    @property
    def n(self) -> int:
        return len(self.weights)

    def matrix(self) -> np.ndarray:
        n = self.n
        A = np.zeros((n, n), dtype=complex)
        for j in range(n - 1):
            A[j, j + 1] = self.weights[j]
        A[n - 1, 0] = self.weights[n - 1]
        return A

    def moduli(self) -> tuple:
        return tuple(abs(w) for w in self.weights)

    def product(self) -> complex:
        out = 1.0 + 0.0j
        for w in self.weights:
            out *= w
        return out

    def is_real(self, tol: float = 0.0) -> bool:
        scale = max(1.0, max(abs(w) for w in self.weights))
        return all(abs(w.imag) <= tol * scale for w in self.weights)

    def to_json(self) -> dict:
        return {"n": self.n,
                "weights": [[w.real, w.imag] for w in self.weights]}

    @classmethod
    def from_json(cls, data: dict) -> "ShiftMatrix":
        ws = [complex(re, im) for re, im in data["weights"]]
        if "n" in data and int(data["n"]) != len(ws):
            raise ValueError("weight count does not match n")
        return cls(ws)


def hermitian_slices(A: np.ndarray, thetas) -> np.ndarray:
    """The stack H(theta_k) = cos(theta_k) Re(A) + sin(theta_k) Im(A)."""
    ReA = (A + A.conj().T) / 2
    ImA = (A - A.conj().T) / 2j
    thetas = np.asarray(thetas, dtype=float)[:, None, None]
    return np.cos(thetas) * ReA + np.sin(thetas) * ImA
