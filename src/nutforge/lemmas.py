"""Verification suites for the four auxiliary polynomial families Q, R, S, T.

Each family member is a sparse integer polynomial whose exponents are affine
in a parameter t >= 0.  The facts re-verified here, each over an explicit
finite range, are:

* bounded non-divisibility: for t up to a bound, no cyclotomic polynomial of
  index b >= min_b divides the family member (the candidate indices b are
  complete because a divisor of a degree-D polynomial has phi(b) <= D);
* unique remainders: for every modulus beta at or above the family threshold
  and every parameter residue, some exponent of the family has a residue
  modulo beta that no other exponent shares.  Two exponents a t + c share a
  residue exactly on the solutions of one linear congruence in t, so the
  parameters where every exponent is shared follow from the pairwise
  solution sets, computed once per modulus;
* the finite case analysis: the constraint set (sum of (p - 2) over the
  distinct primes of b at most the term count minus two, bound on b/rad(b),
  optional exclusion of multiples of four) leaves finitely many feasible
  cyclotomic indices b; for each of them and every parameter residue t
  modulo b, the b-th cyclotomic polynomial does not divide the cyclically
  reduced family member.  Together with the two reduction facts above, this
  closes the divisibility question for all parameters at once, because the
  reduced polynomial depends on t only through t modulo b.

Every non-divisibility verdict is exact.  The screen looks for a modular
witness, a nonzero evaluation at the order-b element of the index's one
evaluation prime, which proves non-divisibility outright;
``divides_cyclotomic`` decides every parameter where no witness appears, and
is the sole authority for reporting a violation.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from ._modeval import evaluation_prime, root_of_order, slope_sums, sweep_zero_parameters
from .cyclotomic import divides_cyclotomic
from .numtheory import euler_phi, is_prime


@dataclass(frozen=True)
class CaseConstraints:
    """Family-specific feasible-index constraints of the finite case
    analysis (the prime ones are ``PolynomialFamily.case_bounds``)."""

    rad_ratio_bound: int
    forbid_four: bool


@dataclass(frozen=True)
class PolynomialFamily:
    """One auxiliary family: term list with exponents slope * t + offset."""

    tag: str
    min_b: int
    unique_remainder_threshold: int
    terms: tuple[tuple[int, int, int], ...]  # (coefficient, slope, offset)
    case: CaseConstraints

    def member(self, t: int) -> dict[int, int]:
        """The member at t as an exponent -> coefficient map, equal exponents
        merged and zero coefficients dropped."""
        if t < 0:
            raise ValueError("family parameter t must be >= 0")
        out: dict[int, int] = {}
        for coeff, a, c in self.terms:
            out[a * t + c] = out.get(a * t + c, 0) + coeff
        return {e: c for e, c in out.items() if c}

    def case_bounds(self) -> tuple[tuple[int, ...], int]:
        """Allowed primes and the bound on sum(p - 2) over the distinct
        primes of a feasible index.

        A member has at most N = len(terms) nonzero terms.  By the lacunary
        reduction, if such a polynomial is divisible by the n-th cyclotomic
        polynomial and distinct primes p_1..p_k of n have sum(p_j - 2) >
        N - 2, it is also divisible by the (n / p_j^e_j)-th one for some j,
        where p_j^e_j is the full power of p_j in n.  So a prime power can
        be cancelled from any index whose sum exceeds N - 2, and a prime
        p > N exceeds it alone.
        """
        sum_bound = len(self.terms) - 2
        return tuple(p for p in range(2, sum_bound + 3) if is_prime(p)), sum_bound


#: Q, R and S bound b/rad(b) in their case analyses at their unique-remainder
#: threshold.  T's bound, 13, lies below its threshold, 20, and unique
#: remainders fail for T at moduli 13, 15, 17 and 19: the 244 indices with
#: b/rad(b) in {13, 15, 17, 19} lie in neither suite, and
#: ``tests/test_lemmas.py::TestRatioBoundGap`` refutes them.  The bound stays
#: 13 because the golden ``lemmas`` output and the benchmark's T case
#: analysis (770 indices) are pinned to it.
FAMILIES: dict[str, PolynomialFamily] = {
    "Q": PolynomialFamily(
        tag="Q", min_b=2, unique_remainder_threshold=6,
        terms=((1, 4, 7), (-1, 4, 5), (-1, 4, 4), (2, 2, 4), (1, 2, 3),
               (1, 2, 2), (1, 2, 0), (-2, 1, 3), (-1, 0, 2), (-1, 0, 0)),
        case=CaseConstraints(6, False)),
    "R": PolynomialFamily(
        tag="R", min_b=3, unique_remainder_threshold=11,
        terms=((1, 8, 15), (1, 8, 14), (1, 8, 11), (-1, 8, 10), (-1, 8, 8),
               (2, 6, 9), (-1, 4, 15), (-1, 4, 11), (-1, 4, 9), (2, 4, 8),
               (-2, 4, 7), (1, 4, 6), (1, 4, 4), (1, 4, 0), (-2, 2, 6),
               (1, 0, 7), (1, 0, 5), (-1, 0, 4), (-1, 0, 1), (-1, 0, 0)),
        case=CaseConstraints(11, True)),
    "S": PolynomialFamily(
        tag="S", min_b=2, unique_remainder_threshold=8,
        terms=((1, 4, 13), (1, 4, 11), (1, 4, 10), (1, 4, 9), (-1, 4, 8),
               (-1, 2, 13), (-1, 2, 10), (-1, 2, 9), (3, 2, 7), (1, 2, 5),
               (-1, 2, 4), (1, 2, 3), (-1, 2, 2), (1, 2, 1), (-2, 1, 6),
               (1, 0, 6), (-1, 0, 5), (-1, 0, 1), (-1, 0, 0)),
        case=CaseConstraints(8, False)),
    "T": PolynomialFamily(
        tag="T", min_b=3, unique_remainder_threshold=20,
        terms=((1, 8, 27), (1, 8, 26), (1, 8, 25), (1, 8, 22), (1, 8, 20),
               (1, 8, 18), (1, 8, 17), (-1, 8, 16), (-1, 8, 15), (2, 6, 15),
               (-1, 4, 26), (-1, 4, 25), (1, 4, 23), (-1, 4, 21), (-1, 4, 20),
               (1, 4, 19), (-1, 4, 18), (-1, 4, 17), (3, 4, 14), (-3, 4, 13),
               (1, 4, 10), (1, 4, 9), (-1, 4, 8), (1, 4, 7), (1, 4, 6),
               (-1, 4, 4), (1, 4, 2), (1, 4, 1), (-2, 2, 12), (1, 0, 12),
               (1, 0, 11), (-1, 0, 10), (-1, 0, 9), (-1, 0, 7), (-1, 0, 5),
               (-1, 0, 2), (-1, 0, 1), (-1, 0, 0)),
        case=CaseConstraints(13, True)),
}

FAMILY_TAGS = tuple(FAMILIES)


def _family(tag: str) -> PolynomialFamily:
    try:
        return FAMILIES[tag]
    except KeyError:
        raise ValueError(f"unknown family tag {tag!r}; expected one of {FAMILY_TAGS}")


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one verification run.

    ``indices_checked`` holds one (index, detail) entry per checked index in
    ascending order; ``violations`` must be empty on success; ``notes``
    carries informational findings outside the claimed range (for instance a
    unique-remainder failure below the family threshold).
    """

    family: str
    operation: str
    parameter_range: str
    indices_checked: tuple = ()
    violations: tuple = ()
    notes: tuple = ()
    wall_time: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    def text_lines(self) -> list[str]:
        lines = [f"{self.family} {self.operation}: {self.parameter_range}"]
        for idx, detail in self.indices_checked:
            lines.append(f"  {idx}: {detail}")
        for v in self.violations:
            lines.append(f"  VIOLATION: {v}")
        for n in self.notes:
            lines.append(f"  note: {n}")
        lines.append(f"  result: {'ok' if self.ok else 'FAILED'} "
                     f"({len(self.indices_checked)} indices, "
                     f"{len(self.violations)} violations, {self.wall_time:.2f}s)")
        return lines

    def summary(self) -> dict:
        return {
            "family": self.family,
            "operation": self.operation,
            "parameter_range": self.parameter_range,
            "checked": len(self.indices_checked),
            "violations": list(self.violations),
            "notes": list(self.notes),
            "ok": self.ok,
            "wall_time": round(self.wall_time, 3),
        }


def _prime_power_products(primes, step, state) -> list[int]:
    """Ascending, every product of powers of distinct ``primes`` that a
    monotone bound admits, each found once.

    ``state`` describes the product 1.  ``step(state, p, e)`` takes the state
    of a product free of p and returns that of the product times p^e, or
    None when p^e breaks the bound, as p^(e+1) then must, and for e = 1 every
    larger prime too.  ``primes`` ascend."""
    found = []

    def walk(i: int, b: int, state) -> None:
        found.append(b)
        for j in range(i, len(primes)):
            p, e = primes[j], 1
            while (grown := step(state, p, e)) is not None:
                walk(j + 1, b * p ** e, grown)
                e += 1
            if e == 1:
                return

    walk(0, 1, state)
    return sorted(found)


def candidate_divisor_indices(max_degree: int, min_b: int) -> list[int]:
    """Every b >= min_b whose cyclotomic polynomial could divide a polynomial
    of the given degree, i.e. phi(b) <= max_degree, ascending.

    phi(b) is the product of p^(e-1) (p - 1) over the prime powers p^e of b,
    so every prime of such a b is at most max_degree + 1.  The indices are
    the products of prime powers whose totient factors keep that product
    within max_degree: complete by construction.
    """
    def step(phi: int, p: int, e: int) -> int | None:
        phi *= (p - 1) * p ** (e - 1)
        return phi if phi <= max_degree else None

    primes = [p for p in range(2, max_degree + 2) if is_prime(p)]
    found = _prime_power_products(primes, step, 1) if max_degree >= 1 else []
    return [b for b in found if b >= min_b]


def enumerate_feasible_indices(allowed_primes, sum_bound: int, rad_ratio_bound: int,
                               min_b: int, forbid_four: bool) -> list[int]:
    """All b >= min_b whose prime factors lie in allowed_primes, subject to
    sum(p - 2) over distinct primes <= sum_bound, b/rad(b) < rad_ratio_bound,
    and (optionally) 4 not dividing b.  Ascending, finite, deterministic.

    The indices are products of admissible prime powers: for each prime the
    exponent range is capped by the ratio bound (p^(e-1) alone must stay
    below it), so the search space is finite and every admissible index
    below the implied ceiling is visited exactly once.
    """
    if sum_bound < 0 or rad_ratio_bound < 0:
        raise ValueError("bounds must be non-negative")
    if rad_ratio_bound < 2:  # b/rad(b) >= 1 for every b
        return []

    def step(state: tuple[int, int], p: int, e: int) -> tuple[int, int] | None:
        psum, ratio = state[0] + p - 2, state[1] * p ** (e - 1)
        if (psum > sum_bound or ratio >= rad_ratio_bound
                or forbid_four and p == 2 and e > 1):
            return None
        return psum, ratio

    found = _prime_power_products(sorted(set(allowed_primes)), step, (0, 1))
    return [b for b in found if b >= min_b]


def verify_family_bounded(tag: str, t_max: int) -> VerificationReport:
    """Assert that no cyclotomic polynomial of index >= the family's min_b
    divides any family member with parameter t <= t_max.

    For each t the candidate indices are every b with phi(b) bounded by the
    member's degree, which is a complete divisor-candidate set.  A nonzero
    evaluation at the order-b root zeta of ``evaluation_prime(b)`` proves
    non-divisibility; ``divides_cyclotomic`` decides the rest.  The candidates,
    their (prime, root) pairs and their slope sums A_s (``slope_sums``) are
    found once per call; the member at t then evaluates to
    sum_s A_s zeta^(s*t mod b), one term per distinct slope.
    """
    if t_max < 0:
        raise ValueError("t_max must be >= 0")
    fam = _family(tag)
    start = time.perf_counter()
    checked = []
    violations = []
    coeffs, slopes, offsets = zip(*fam.terms)
    max_deg = max(a * t_max + c for _, a, c in fam.terms)
    candidates = []
    for b in candidate_divisor_indices(max_deg, fam.min_b):
        q = evaluation_prime(b)
        zeta = root_of_order(q, b)
        sums = slope_sums(coeffs, slopes, offsets, b, q, zeta).items()
        candidates.append((b, euler_phi(b), q, zeta, sums))
    for t in range(t_max + 1):
        member = fam.member(t)
        deg = max(member)
        count = 0
        for b, phi_b, q, zeta, sums in candidates:
            if phi_b > deg:
                continue
            count += 1
            if (not sum(a * pow(zeta, s * t % b, q) for s, a in sums) % q
                    and divides_cyclotomic(member, b)):
                violations.append((t, b))
        checked.append((t, f"{count} candidate indices, degree {deg}"))
    return VerificationReport(
        family=tag, operation="bounded-nondivisibility",
        parameter_range=f"t <= {t_max}, b >= {fam.min_b}",
        indices_checked=tuple(checked), violations=tuple(violations),
        wall_time=time.perf_counter() - start)


def _failing_parameters(fam: PolynomialFamily, beta: int) -> list[int]:
    """Ascending t in [0, beta) at which no exponent of the family has a
    unique remainder modulo beta.

    Terms i and j share a remainder at t exactly when
    (a_i - a_j) t = c_j - c_i (mod beta).  With g = gcd(a_i - a_j, beta),
    this congruence has no solution unless g divides c_j - c_i, and
    otherwise holds on one residue class modulo beta/g.  Each set of t is a
    beta-bit integer: term i is shared on the union of its collision sets,
    and t fails where every term is shared.
    """
    full = (1 << beta) - 1
    masks: dict[tuple[int, int], int] = {}
    failing = full
    for i, (_, ai, ci) in enumerate(fam.terms):
        shared = 0
        for j, (_, aj, cj) in enumerate(fam.terms):
            if j == i:
                continue
            key = ((ai - aj) % beta, (cj - ci) % beta)
            mask = masks.get(key)
            if mask is None:
                delta, r = key
                g = math.gcd(delta, beta)
                mask = 0
                if r % g == 0:
                    period = beta // g
                    t0 = r // g * pow(delta // g, -1, period) % period
                    mask = full // ((1 << period) - 1) << t0
                masks[key] = mask
            shared |= mask
        failing &= shared
        if not failing:
            return []
    return [t for t in range(beta) if failing >> t & 1]


def verify_unique_remainder(tag: str, beta_range: tuple[int, int]) -> VerificationReport:
    """For each modulus beta in the inclusive range and each parameter residue
    t in [0, beta), assert that some exponent of the family has a unique
    remainder modulo beta.

    Each modulus is decided by solving, for every pair of terms, the
    congruence on which their exponents collide (``_failing_parameters``).
    This is complete: a collision at t is equivalent to that congruence
    holding, its solution set is exactly the empty set, all of [0, beta) or
    one residue class, and the exponents modulo beta depend on t only
    through t modulo beta, so [0, beta) covers every parameter.

    Moduli below the family threshold are allowed but reported as
    out-of-claim notes instead of violations when they fail.
    """
    lo, hi = beta_range
    if lo < 1 or hi < lo:
        raise ValueError("beta range must satisfy 1 <= lo <= hi")
    fam = _family(tag)
    threshold = fam.unique_remainder_threshold
    start = time.perf_counter()
    checked = []
    violations = []
    notes = []
    for beta in range(lo, hi + 1):
        fails = _failing_parameters(fam, beta)
        if not fails:
            checked.append((beta, "unique remainder for every t"))
        elif beta >= threshold:
            checked.append((beta, f"FAILED for t in {fails}"))
            violations.append((beta, tuple(fails)))
        else:
            checked.append((beta, f"out of claim (threshold {threshold}); "
                                  f"fails for {len(fails)} parameter(s)"))
            notes.append(f"beta={beta} below threshold {threshold}: "
                         f"no unique remainder for t in {fails}")
    return VerificationReport(
        family=tag, operation="unique-remainder",
        parameter_range=f"beta in [{lo}, {hi}], threshold {threshold}",
        indices_checked=tuple(checked), violations=tuple(violations),
        notes=tuple(notes), wall_time=time.perf_counter() - start)


def verify_finite_case_analysis(tag: str) -> VerificationReport:
    """Enumerate the family's feasible cyclotomic indices and assert
    non-divisibility of the cyclically reduced member for every parameter
    residue.

    Because the reduction of the member modulo x^b - 1 depends on t only
    through t modulo b, checking t in [0, b) covers every parameter.  Root
    counting over a prime field (``sweep_zero_parameters``) certifies almost
    all (b, t) pairs; survivors are decided by ``divides_cyclotomic``, which
    alone can report a violation.
    """
    fam = _family(tag)
    cc = fam.case
    primes, sum_bound = fam.case_bounds()
    indices = enumerate_feasible_indices(primes, sum_bound, cc.rad_ratio_bound,
                                         fam.min_b, cc.forbid_four)
    coeffs, slopes, offsets = zip(*fam.terms)
    start = time.perf_counter()
    checked = []
    violations = []
    for b in indices:
        suspects = sweep_zero_parameters(coeffs, slopes, offsets, b)
        confirmed = [t for t in suspects
                     if divides_cyclotomic(fam.member(t), b)]
        detail = f"all {b} parameter residues non-divisible"
        if suspects:
            detail += f" ({len(suspects)} decided by the exact test)"
        if confirmed:
            detail = f"DIVISIBLE for t in {confirmed}"
            violations.extend((b, t) for t in confirmed)
        checked.append((b, detail))
    constraint_desc = (f"primes in {primes}, sum(p-2) <= {sum_bound}, "
                       f"b/rad(b) < {cc.rad_ratio_bound}, b >= {fam.min_b}"
                       + (", 4 does not divide b" if cc.forbid_four else ""))
    return VerificationReport(
        family=tag, operation="finite-case-analysis",
        parameter_range=f"{len(indices)} feasible indices ({constraint_desc})",
        indices_checked=tuple(checked), violations=tuple(violations),
        wall_time=time.perf_counter() - start)
