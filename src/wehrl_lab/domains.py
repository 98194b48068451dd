"""Catalog of irreducible bounded symmetric domains by structure constants.

Each domain is determined by its rank r and the root multiplicities (a, b).
The genus p, complex dimension N and the dimension n1 of the subspace spanned
by the diagonal part are always derived, never stored:

    p  = (r-1)a + b + 2
    n1 = r + a r(r-1)/2
    N  = n1 + r b
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactnum import check_counts, check_weight


class NotAdmissible(ValueError):
    """Weight parameter outside the discrete-series range lambda > p - 1."""


@dataclass(frozen=True)
class DomainParams:
    family_label: str
    r: int
    a: int
    b: int

    def __post_init__(self):
        check_counts(("r", self.r, 1), ("a", self.a, 0), ("b", self.b, 0))

    @property
    def p(self) -> int:
        return (self.r - 1) * self.a + self.b + 2

    @property
    def n1(self) -> int:
        return self.r + self.a * self.r * (self.r - 1) // 2

    @property
    def N(self) -> int:
        return self.n1 + self.r * self.b


def hc_admissible(d: DomainParams, lam) -> bool:
    """Discrete-series condition lambda > p - 1 for the scalar weight."""
    return check_weight("lam", lam) > d.p - 1


def su_pq(p: int, q: int) -> DomainParams:
    check_counts(("p", p, 1), ("q", q, 1))
    if p < q:
        p, q = q, p
    return DomainParams(f"SU({p},{q})", r=q, a=2, b=p - q)


def sp_r(r: int) -> DomainParams:
    return DomainParams(f"Sp({r},R)", r=r, a=1, b=0)


def so_2n(n: int) -> DomainParams:
    """Tube-type SO(2,n), n >= 3: rank two, a = n - 2."""
    check_counts(("n", n, 3))
    return DomainParams(f"SO(2,{n})", r=2, a=n - 2, b=0)


def so_star(n: int) -> DomainParams:
    """SO*(2n), n >= 2."""
    check_counts(("n", n, 2))
    return DomainParams(f"SO*({2 * n})", r=n // 2, a=4, b=0 if n % 2 == 0 else 2)


# Preset names and their (r, a, b) triples.
PRESETS: dict[str, DomainParams] = {
    "disc": DomainParams("SU(1,1)", r=1, a=0, b=0),
    "SU(1,1)": DomainParams("SU(1,1)", r=1, a=0, b=0),
    "SU(2,1)": su_pq(2, 1),
    "SU(2,2)": su_pq(2, 2),
    "SU(3,1)": su_pq(3, 1),
    "Sp(2,R)": sp_r(2),
    "Sp(3,R)": sp_r(3),
    "SO(2,3)": so_2n(3),
    "SO(2,4)": so_2n(4),
    "SO(2,5)": so_2n(5),
    "SO*(8)": so_star(4),
    "E6": DomainParams("E6", r=2, a=6, b=4),
    "E7": DomainParams("E7", r=3, a=8, b=0),
}


def get_domain(name: str) -> DomainParams:
    """A preset by name or an "r,a,b" triple of ints; else KeyError."""
    if name in PRESETS:
        return PRESETS[name]
    try:
        r, a, b = map(int, name.split(","))
    except ValueError:
        raise KeyError(f"unknown domain {name!r}; presets: {sorted(PRESETS)}"
                       ) from None
    return DomainParams("custom", r=r, a=a, b=b)


def preset_table() -> list[dict]:
    """One row per distinct domain, in the order of PRESETS."""
    return list({d: {"family": d.family_label, "r": d.r, "a": d.a, "b": d.b,
                     "p": d.p, "N": d.N, "n1": d.n1}
                 for d in PRESETS.values()}.values())
