"""Pinned, named example varieties.

Every instance is an integer-model blueprint, so the same example can be
instantiated over any analysis or enumeration prime and always means the same
variety.  The three cone instances share one shape: a genus-one plane curve,
re-embedded by a pinned tuple of forms into a coordinate block, coned over a
disjoint vertex block, then cut by a pinned cubic.  The vertex makes tangent
hyperplanes degenerate along rulings without making any secant deficient,
which is the whole point of the family.

Pinned coefficients are drawn once from tagged deterministic streams and are
part of the instance identity; changing a tag changes the instance.
"""

from __future__ import annotations

import random

from .algebra import FieldSpec
from .errors import ConfigError
from .seeding import derive_rng
from .varieties import VarietyHandle, _monomial_exponents, _unit, build

__all__ = [
    "ANALYSIS_PRIME",
    "ANALYSIS_PRIME_ALT",
    "ENUM_PRIMES",
    "SUITE_MEMBERS",
    "builtin_blueprint",
    "builtin",
    "analysis_field",
]

# ~2^31 twin workhorses; both comfortably above every construction draw range
ANALYSIS_PRIME = 2147483647
ANALYSIS_PRIME_ALT = 2147483629

# small enough for exhaustive fiber enumeration, prime to 3 so the genus-one
# base curve stays smooth
ENUM_PRIMES = (1009, 2003, 3001)

SUITE_MEMBERS = (
    "veronese-2-2",
    "veronese-2-3",
    "veronese-2-4",
    "rnc-4",
    "rnc-5",
    "counter1",
    "counter2",
    "counter3-n3",
)


def analysis_field(alt: bool = False) -> FieldSpec:
    return FieldSpec.prime(ANALYSIS_PRIME_ALT if alt else ANALYSIS_PRIME)


def _degree_monomials(nvars: int, d: int) -> list[tuple[int, ...]]:
    """Exponent tuples of total degree d, in ascending lexicographic order:
    the top degree of the graded-lex list."""
    return [e for e in _monomial_exponents(nvars, d) if sum(e) == d]


def _pinned_stream(tag: str) -> random.Random:
    return derive_rng(0, "pinned-instance", tag)


def _pinned_form(tag: str, nvars: int, d: int) -> list:
    rng = _pinned_stream(tag)
    return [[rng.randrange(1, 2**30), list(e)] for e in _degree_monomials(nvars, d)]


def _fermat_cubic_bp() -> dict:
    return {
        "constructor": "implicit_plane_curve",
        "terms": [[1, [3, 0, 0]], [1, [0, 3, 0]], [1, [0, 0, 3]]],
        "genus_hint": 1,
    }


def _cone_instance_bp(
    tag: str, curve_form_degree: int, n_forms: int, vertex_cols: int
) -> dict:
    """Cone over a pinned re-embedding of the genus-one curve, cut by a cubic."""
    width = n_forms + vertex_cols
    monos = _degree_monomials(3, curve_form_degree)
    if tag == "counter1":
        # the full degree-2 monomial basis, one monomial per coordinate
        comps = [[[1, list(e)]] for e in monos]
    else:
        comps = [_pinned_form(f"{tag}-comp-{j}", 3, curve_form_degree) for j in range(n_forms)]
    comps += [[] for _ in range(vertex_cols)]  # coordinates the vertex will own
    embedded = {
        "constructor": "map_image",
        "base": _fermat_cubic_bp(),
        "components": comps,
        "arity": 3,
    }
    coned = {
        "constructor": "cone",
        "base": embedded,
        "vertex": [list(_unit(width, n_forms + j)) for j in range(vertex_cols)],
    }
    return {
        "constructor": "hypersurface_section",
        "base": coned,
        "h": _pinned_form(f"{tag}-cut", width, 3),
    }


def counter1_blueprint() -> dict:
    """Surface in P^7: sextic genus-one curve block, line vertex, cubic cut."""
    return _cone_instance_bp("counter1", curve_form_degree=2, n_forms=6, vertex_cols=2)


def counter2_blueprint() -> dict:
    """Surface in P^8 at the r = 3n + 2 boundary: seven pinned cubics, line
    vertex, cubic cut."""
    return _cone_instance_bp("counter2", curve_form_degree=3, n_forms=7, vertex_cols=2)


def counter3_blueprint() -> dict:
    """Threefold in P^7 with a plane vertex: five pinned conics, cubic cut."""
    return _cone_instance_bp("counter3-n3", curve_form_degree=2, n_forms=5, vertex_cols=3)


def builtin_blueprint(name: str) -> dict:
    if name == "counter1":
        return counter1_blueprint()
    if name == "counter2":
        return counter2_blueprint()
    if name == "counter3-n3":
        return counter3_blueprint()
    parts = name.split("-")
    try:
        if parts[0] == "veronese" and len(parts) == 3:
            return {"constructor": "veronese", "n": int(parts[1]), "d": int(parts[2])}
        if parts[0] == "rnc" and len(parts) == 2:
            return {"constructor": "rnc", "d": int(parts[1])}
    except ValueError:
        pass
    raise ConfigError(f"unknown built-in variety {name!r}")


def builtin(name: str, field: FieldSpec, rng: random.Random) -> VarietyHandle:
    return build(builtin_blueprint(name), field, rng, label=name)
