"""Nut-property certification by two independent exact methods.

Direct method: compute the exact nullspace of the adjacency matrix.  A graph
of at least two vertices is a nut graph iff the nullity is one and the
kernel vector has no zero coordinate.

Spectral method (circulant and bicirculant graphs): the adjacency matrix is
similar to a direct sum of small blocks, one per m-th root of unity zeta,
where m is the order of the cyclic group acting.  A circulant on Z_n has the
1x1 blocks [p_S(zeta)] with p_S summing x^c over the connection set S u -S;
an order-2m bicirculant has the 2x2 blocks

    [[p0(zeta), p1(1/zeta)], [p1(zeta), p2(zeta)]],

where p_i sums x^j over connection set i.  The blocks are Hermitian, so the
zero-eigenvalue multiplicity of a block is the number of its invariants (the
entry of a 1x1 block; the determinant and trace of a 2x2 block) that vanish,
taken from the determinant down; aggregating phi(b) times that multiplicity
over the divisors b of m gives the total nullity without ever touching
algebraic numbers.  ``divisor_walk`` computes the divisors' verdicts one at
a time, ascending, so a screen can stop once the running total passes a
bound; ``nut_check_spectral`` walks every divisor.

The invariants are read off the cyclic runs of the connection sets
(``block_invariants``): (1 - x) p_S telescopes to the sum of x^a - x^(b+1)
over the maximal cyclic runs [a, b] of S, so the entry and the trace times
1 - x and the determinant times (1 - x)^2, as exponent -> coefficient maps
folded modulo x^m - 1, have O(runs^2) terms where the plain products have
O(|S|^2).  1 - x vanishes at no root of unity but 1, so at each divisor
b >= 2 a telescoped invariant vanishes at the primitive b-th roots, as the
plain one does, iff the b-th cyclotomic polynomial divides it
(``divides_cyclotomic``).  At b = 1 the set sizes give the plain values
(``_values_at_one``).

At b >= 2 the walk asks ``divides_cyclotomic`` only at the divisors a
cyclotomic factor can reach.  A nonzero invariant folded modulo x^m - 1 has
a cyclic span s, m minus the largest cyclic gap between its exponents: some
x^r times it, reduced modulo x^m - 1, has degree s and takes the same
values, up to a unit, at every m-th root of unity.  A telescoped invariant
vanishes at x = 1, so that polynomial has the factor x - 1 besides any
Phi_b with b >= 2, and phi(b) + 1 <= s: every divisor with phi(b) >= s is
decided without a call.  An empty invariant vanishes at every root other
than 1 and skips nothing.

A diagonal shift of one, the ``shift`` argument of both methods, checks
eigenvalue -1, which is what complement constructions need: for a non-complete
regular graph the complement's nullity is the multiplicity of -1 in the base.

For vertex-transitive inputs (circulants and dihedral Cayley graphs) nullity
one already implies the nut property: every automorphism maps the kernel
vector to plus or minus itself, so a zero entry would make it vanish.  The
constructions certify their witnesses this way, with the kernel vector
itself a +-1 character of the group whose sum over the connection set
vanishes (``constructions._certify`` gives the argument), so no witness
runs the direct kernel.  For general bicirculants the spectral method
reports the nullity only; the kernel-entry condition always defers to the
direct method, which stays the certificate for an arbitrary graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .cyclotomic import divides_cyclotomic, fold
from .exact import BitMatrix, matrix_kernel
from .graphs import BicirculantSpec, CirculantSpec, Graph
from .numtheory import divisors, euler_phi


@dataclass(frozen=True)
class NutCertificate:
    """Outcome of the direct check of A + shift * I (a nut verdict at shift 0).

    ``kernel_vector`` is present exactly when the nullity is one; it is the
    primitive integer kernel vector with a positive first nonzero entry.
    """

    nullity: int
    kernel_vector: tuple[int, ...] | None

    @property
    def is_nut(self) -> bool:
        """Nullity one, a kernel vector free of zeros, and (a nut graph being
        nontrivial) at least two vertices."""
        v = self.kernel_vector
        return self.nullity == 1 and len(v) > 1 and all(v)


@dataclass(frozen=True)
class DivisorVerdict:
    """Zero-eigenvalue multiplicity of each block at the primitive b-th roots
    of unity: 0 when those blocks are nonsingular, at most the block size."""

    b: int
    multiplicity: int

    @property
    def nullity(self) -> int:
        """The divisor's share of the total nullity: phi(b) blocks of that
        multiplicity, 0 without a totient when the blocks are nonsingular,
        as at every divisor past an invariant's reach (``divisor_walk``)."""
        return euler_phi(self.b) * self.multiplicity if self.multiplicity else 0


@dataclass(frozen=True)
class SpectralReport:
    """Nullity of a (possibly shifted) circulant or bicirculant adjacency
    matrix, resolved per divisor of the cyclic order m (the order of a
    circulant, half the order of a bicirculant)."""

    m: int
    shift: int
    divisor_verdicts: tuple[DivisorVerdict, ...]
    total_nullity: int

    @property
    def singular_divisors(self) -> tuple[int, ...]:
        return tuple(v.b for v in self.divisor_verdicts if v.multiplicity)


def nut_check_direct(g: Graph, shift: int = 0) -> NutCertificate:
    """Certify the nut property by exact kernel computation of A(g) + shift * I.

    For shift one on a regular non-complete graph the nullity equals that of
    the complement, since complementing a d-regular graph of order n maps the
    non-principal eigenvalues lambda to -1 - lambda.
    """
    basis = matrix_kernel(BitMatrix(g.adjacency_rows(), shift))
    return NutCertificate(len(basis), basis[0] if len(basis) == 1 else None)


def _telescoped(s: frozenset, m: int, shift: int = 0) -> list[tuple[int, int]]:
    """(1 - x)(shift + p_s) as (exponent, coefficient) pairs, p_s summing
    x^e over the residues e modulo m in s: shift - shift x, then +1 at the
    first element of each maximal cyclic run of s and -1 one past its last,
    as (1 - x)(x^a + ... + x^b) = x^a - x^(b+1).  All of Z_m has no run
    ends: 1 - x^m folds to zero."""
    return (([(0, shift), (1, -shift)] if shift else [])
            + [(e, 1) for e in s if (e - 1) % m not in s]
            + [(e + 1, -1) for e in s if (e + 1) % m not in s])


def block_invariants(spec: CirculantSpec | BicirculantSpec,
                     shift: int) -> tuple[int, tuple[dict[int, int], ...]]:
    """Cyclic order m and the telescoped block invariants of the shifted
    spec, from the determinant down, each folded modulo x^m - 1: (entry,)
    for a circulant, (det, trace) otherwise, each times a power of 1 - x.

    The entry shift + p_S becomes A = (1 - x)(shift + p_S), read off the
    cyclic runs of S (``_telescoped``).  For a bicirculant the determinant
    (shift + p0)(shift + p2) - p1 p1~, where p1~ is p1 at 1/x, becomes
    (1 - x)^2 det = A0 A2 + x R1(x) R1(1/x) with R1 = (1 - x) p1, since
    (1 - x)(1 - 1/x) = -(1 - x)^2 / x, and the trace p0 + p2 + 2 shift
    becomes (1 - x) trace = A0 + A2, sharing A0 and A2.  So each invariant
    has O(runs^2) terms, not O(|S|^2).  1 - x vanishes at no primitive
    b-th root of unity with b >= 2, so there each invariant vanishes
    exactly when the untelescoped one does; at b = 1 every telescoped
    invariant vanishes, and ``divisor_walk`` reads the set sizes instead.
    """
    if isinstance(spec, CirculantSpec):
        n = spec.n
        return n, (fold(_telescoped(spec.connection, n, shift), n),)
    m = spec.m
    a0, a2 = _telescoped(spec.s0, m, shift), _telescoped(spec.s2, m, shift)
    r1 = _telescoped(spec.s1, m)
    det = [(e + k, c * v) for e, c in a0 for k, v in a2]
    det += [(1 + j - k, c * v) for j, c in r1 for k, v in r1]
    return m, (fold(det, m), fold(a0 + a2, m))


def _values_at_one(spec: CirculantSpec | BicirculantSpec, shift: int) -> tuple[int, ...]:
    """The untelescoped block invariants at x = 1, from the determinant
    down, from the set sizes: |S| + shift for a circulant; (shift + |s0|)
    (shift + |s2|) - |s1|^2 and |s0| + |s2| + 2 shift otherwise."""
    if isinstance(spec, CirculantSpec):
        return (spec.degree + shift,)
    a0, a2 = shift + len(spec.s0), shift + len(spec.s2)
    return (a0 * a2 - len(spec.s1) ** 2, a0 + a2)


@lru_cache(maxsize=64)
def _divisor_plan(m: int) -> tuple[tuple[int, int], ...]:
    """The (b, phi(b)) pairs of the divisors b >= 2 of m, ascending;
    memoized, since a census or search walks the same order for every
    candidate.  The plan of an order up to 10^12 (at most 6720 divisors)
    takes under 1 MB."""
    return tuple((b, euler_phi(b)) for b in divisors(m)[1:])


def _cyclic_span(terms: dict[int, int], m: int) -> int:
    """m minus the largest cyclic gap between the exponents of the nonempty
    ``terms`` (each in [0, m)): the least degree of x^r times it, reduced
    modulo x^m - 1."""
    exps = sorted(terms)
    return m - max(y - x for x, y in zip(exps, exps[1:] + [exps[0] + m]))


def divisor_walk(spec: CirculantSpec | BicirculantSpec, shift: int = 0):
    """The ``DivisorVerdict`` of each divisor b of the cyclic order m,
    ascending from b = 1 to b = m, each computed only when the walk reaches
    it.

    The primitive b-th roots of unity contribute phi(b) blocks; their
    zero-eigenvalue multiplicity is the number of block invariants, taken
    from the determinant down, that vanish there.  At b = 1 the values at
    x = 1 decide, from the set sizes (``_values_at_one``).  At b >= 2 the
    b-th cyclotomic polynomial must divide the telescoped invariant, and
    one of cyclic span s is not divided by Phi_b when phi(b) >= s, because
    its rotation of degree s also has the factor x - 1 (module docstring).
    The running sum of ``nullity`` never falls, so a consumer may stop as
    soon as it passes a bound.
    """
    if shift not in (0, 1):
        raise ValueError("shift must be 0 or 1")
    m, invariants = block_invariants(spec, shift)
    at_one = _values_at_one(spec, shift)
    # The number of leading zeros, from the determinant down.
    yield DivisorVerdict(1, next((k for k, v in enumerate(at_one) if v), len(at_one)))
    # The largest phi(b) at which each invariant can vanish; m skips nothing.
    reach = [_cyclic_span(terms, m) - 1 if terms else m for terms in invariants]
    for b, phi in _divisor_plan(m):
        mult = 0
        while (mult < len(invariants) and phi <= reach[mult]
               and divides_cyclotomic(invariants[mult], b)):
            mult += 1
        yield DivisorVerdict(b, mult)


def nut_check_spectral(spec: CirculantSpec | BicirculantSpec,
                       shift: int = 0) -> SpectralReport:
    """Resolve the nullity of the (shifted) circulant or bicirculant through
    its blocks: the whole ``divisor_walk``, each divisor weighted by phi(b).
    """
    verdicts = tuple(divisor_walk(spec, shift))
    # The walk ends at b = m.
    return SpectralReport(verdicts[-1].b, shift, verdicts, sum(v.nullity for v in verdicts))
