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

where p_i sums x^j over connection set i.  The block invariants (the entry
of a 1x1 block; the determinant and trace of a 2x2 block) are built from the
connection sets as exponent -> coefficient maps folded modulo x^m - 1
(``block_invariants``), and decide singularity at every root of unity at
once: an invariant vanishes at the primitive b-th roots (b dividing m) iff
the b-th cyclotomic polynomial divides it.  The blocks are Hermitian, so the
zero-eigenvalue multiplicity of a block is the number of its invariants that
vanish, taken from the determinant down; aggregating phi(b) times that
multiplicity over the divisors gives the total nullity without ever touching
algebraic numbers.  ``divisor_walk`` computes the divisors' verdicts one at a
time, ascending, so a screen can stop once the running total passes a bound;
``nut_check_spectral`` walks every divisor.

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
        multiplicity."""
        return euler_phi(self.b) * self.multiplicity


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


def block_invariants(spec: CirculantSpec | BicirculantSpec,
                     shift: int) -> tuple[int, tuple[dict[int, int], ...]]:
    """Cyclic order m and the block invariants of the shifted spec, from the
    determinant down, each folded modulo x^m - 1: (entry,) for a circulant,
    (det, trace) otherwise.

    The entry is p_S + shift.  For a bicirculant, det = (shift + p0) *
    (shift + p2) - p1 * p1~, where p1~ negates the exponents of p1 (the
    evaluation of p1 at 1/zeta), and trace = p0 + p2 + 2 * shift.
    """
    if isinstance(spec, CirculantSpec):
        n = spec.n
        return n, (fold([(c, 1) for c in spec.connection] + [(0, shift)], n),)
    m = spec.m
    diag0 = [(j, 1) for j in spec.s0] + [(0, shift)]
    diag2 = [(j, 1) for j in spec.s2] + [(0, shift)]
    det = [(e + k, c * v) for e, c in diag0 for k, v in diag2]
    det += [(j - k, -1) for j in spec.s1 for k in spec.s1]
    return m, (fold(det, m), fold(diag0 + diag2, m))


def divisor_walk(spec: CirculantSpec | BicirculantSpec, shift: int = 0):
    """The ``DivisorVerdict`` of each divisor b of the cyclic order m,
    ascending from b = 1 to b = m, each computed only when the walk reaches
    it.

    The primitive b-th roots of unity contribute phi(b) blocks; their
    zero-eigenvalue multiplicity is the number of block invariants, taken
    from the determinant down, that the b-th cyclotomic polynomial divides.
    The running sum of ``nullity`` never falls, so a consumer may stop as
    soon as it passes a bound.
    """
    if shift not in (0, 1):
        raise ValueError("shift must be 0 or 1")
    m, invariants = block_invariants(spec, shift)
    for b in divisors(m):
        mult = 0
        while mult < len(invariants) and divides_cyclotomic(invariants[mult], b):
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
