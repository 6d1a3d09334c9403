"""Verification of maximal intersecting families and the two transforms
that rewrite them: the point merge that eliminates one point of an
uncovered pair, and the collapse chain that repeats the merge toward a
fixed point and emits a set-pair certificate along the way.

Both transforms re-verify their own guaranteed postconditions, once per
family: each merge step proves its result maximal, and collapse, which
runs the step on a chain it has already checked, proves each chain
family maximal once.  A failed check raises VerificationError rather
than return a wrong object.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from math import comb
from operator import or_

from .errors import (CoveredPairError, EmptyBlockError, EmptyFamilyError,
                     NotIntersectingError, NotMifError, NotUniformError,
                     ParameterOutOfRangeError, SamePointError, VerificationError,
                     _check_int)
from .family import Family, bits_of
from .isp import SetPairSystem, bollobas_sum, validate_isp
from .transversal import transversal_family


@dataclass(frozen=True)
class MifCertificate:
    """Verdict of the maximality check.  ok=True certifies that the family
    is uniform of size k, its minimum blocking sets have size k, and they
    are exactly the blocks."""
    ok: bool
    k: int | None
    tau: int | float | None
    transversal_match: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def _negative(k, t, reason) -> MifCertificate:
    return MifCertificate(False, k, t, False, reason)


def is_mif(family: Family, cross_check: bool = True) -> MifCertificate:
    """Decide whether the family equals its own transversal family.

    On a positive verdict the independent characterization is also
    checked: the family must be intersecting and every k-subset of its
    point set that blocks it must already be a block.  (A blocking k-set
    using a point outside the point set would shrink to a blocking set of
    size below k, so it cannot occur once tau = k.)"""
    if not family.blocks:
        raise EmptyFamilyError("the empty family is not checked for maximality")
    if family.has_empty_block():
        raise EmptyBlockError("family contains the empty block")
    k = family.uniform_block_size()
    if k is None:
        return _negative(None, None, "blocks have mixed sizes")
    report = transversal_family(family)
    if report.tau != k:
        return _negative(k, report.tau, f"tau={report.tau} != k={k}")
    if report.transversals.masks != family.masks:
        return _negative(k, report.tau, "transversal family differs from the blocks")
    if cross_check:
        if not family.is_intersecting():
            raise VerificationError("self-transversal family failed the intersecting check")
        block_set = set(family.blocks)
        for cand in combinations(sorted(family.point_set()), k):
            if cand not in block_set and family.is_blocking_set(cand):
                raise VerificationError(
                    f"blocking {k}-subset {cand} missing from a family with tau=k")
    return MifCertificate(True, k, report.tau, True)


def is_one_critical(family: Family) -> bool:
    """True iff every point of every block is the exact intersection of
    that block with some other block."""
    for b, bm in zip(family.blocks, family.masks):
        for x in b:
            target = 1 << x
            if not any(bm & om == target for om in family.masks):
                return False
    return True


def chromatic_class(family: Family) -> int:
    """2 if the points admit a 2-coloring with no monochromatic block,
    else 3 (a uniform intersecting family never needs more)."""
    k = family.uniform_block_size()
    if k is None:
        raise NotUniformError("chromatic classification needs a uniform family")
    if k < 2:
        raise ParameterOutOfRangeError("chromatic classification needs block size >= 2")
    if not family.is_intersecting():
        raise NotIntersectingError("chromatic classification needs an intersecting family")
    points = sorted(family.point_set())
    index = {p: i for i, p in enumerate(points)}
    ending = [[] for _ in points]  # each block under its last point
    for b in family.blocks:
        ending[index[b[-1]]].append([index[p] for p in b])

    colors = [-1] * len(points)
    i = 0
    while 0 <= i < len(points):
        colors[i] += 1
        if colors[i] > min(i, 1):  # first point fixed at 0: halves the search
            colors[i] = -1
            i -= 1
        elif all(any(colors[j] != colors[i] for j in blk) for blk in ending[i]):
            i += 1  # no block completed at point i is monochromatic
    return 2 if i == len(points) else 3


def merge(family: Family, alpha: int, beta: int) -> Family:
    """Rewrite a maximal family by deleting point beta of an uncovered pair.

    With G the blocks avoiding both points, the result is G plus one block
    T | {alpha} per transversal T of G.  The construction guarantees the
    result is again maximal with the same block size on one fewer point;
    both facts are re-verified here, as are the intermediate facts that
    G's transversal size is k-1 and that every transversal of G misses
    some other transversal of G."""
    _check_int("alpha", alpha)
    _check_int("beta", beta)
    cert = is_mif(family, cross_check=False)
    if not cert:
        raise NotMifError(f"merge needs a maximal family: {cert.reason}")
    if alpha == beta:
        raise SamePointError("merge needs two distinct points")
    pts = family.point_set()
    if alpha not in pts or beta not in pts:
        raise ParameterOutOfRangeError(f"{alpha} and {beta} must be points of the family")
    pair = (1 << alpha) | (1 << beta)
    if any(m & pair == pair for m in family.masks):
        raise CoveredPairError(f"some block contains both {alpha} and {beta}")
    return _merge(family, cert.k, alpha, beta)


def _merge(family: Family, k: int, alpha: int, beta: int) -> Family:
    """The merge step after merge's argument checks: family is maximal
    with block size k, and alpha and beta are distinct points of it that
    share no block."""
    sub = family.blocks_avoiding((alpha, beta))
    report = transversal_family(sub)
    if report.tau != k - 1:
        raise VerificationError(
            f"blocks avoiding the pair have transversal size {report.tau}, want {k - 1}")
    tr_masks = report.transversals.masks
    for tm in tr_masks:
        if all(map(tm.__and__, tr_masks)):
            raise VerificationError(
                f"transversal {bits_of(tm)} of the reduced family meets all others")
    abit = 1 << alpha
    result = Family._from_masks(sub.masks + tuple([tm | abit for tm in tr_masks]),
                                family.universe_size, family.labels)
    if not is_mif(result, cross_check=False):
        raise VerificationError("merge result failed the maximality check")
    if result.point_mask != family.point_mask ^ (1 << beta):
        raise VerificationError("merge result has the wrong point set")
    return result


@dataclass(frozen=True)
class CollapseTrace:
    """Record of the merge chain toward alpha.

    betas[0] is alpha itself; betas[1:] are the points merged away, so the
    chain families satisfy chain[i+1] = merge(chain[i], alpha, betas[i+1]).
    pairs[n] is a pair of chain-family blocks meeting exactly in betas[n];
    stripping the meeting point from them yields the 2N-pair set-pair
    system with both sides of size k-1.  g_top_points counts the points of
    the transversal family of the final chain member's blocks avoiding
    alpha, so point_count = N + g_top_points."""
    alpha: int
    betas: tuple[int, ...]
    chain: tuple[Family, ...]
    pairs: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    isp: SetPairSystem
    g_top_points: int

    @property
    def n_steps(self) -> int:
        return len(self.betas)

    def to_json_obj(self) -> dict:
        return {
            "alpha": self.alpha,
            "betas": list(self.betas),
            "chain": [f.to_json_obj() for f in self.chain],
            "pairs": [[list(a), list(b)] for a, b in self.pairs],
            "isp": self.isp.to_json_obj(),
            "g_top_points": self.g_top_points,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), separators=(",", ":"))


def _witness_pair(fam: Family, point: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Lexicographically first pair of blocks meeting exactly in the point."""
    target = 1 << point
    n = len(fam.blocks)
    for i in range(n):
        for j in range(i + 1, n):
            if fam.masks[i] & fam.masks[j] == target:
                return fam.blocks[i], fam.blocks[j]
    raise VerificationError(f"no two blocks meet exactly in point {point}")


def collapse(family: Family, alpha: int) -> CollapseTrace:
    """Merge points into alpha until every remaining point shares a block
    with it, then certify the chain with a set-pair system.

    The chain is walked once: each step picks the smallest point that
    shares no block with alpha, takes its witness pair from the current
    family and merges it away, so each chain family is proven maximal
    once.  The emitted system has two pairs per step, is validated as a
    set-pair system with both sides of size k-1, and bounds the number of
    steps N by half of C(2k-2, k-1)."""
    _check_int("alpha", alpha)
    cert = is_mif(family, cross_check=False)
    if not cert:
        raise NotMifError(f"collapse needs a maximal family: {cert.reason}")
    if alpha not in family.point_set():
        raise ParameterOutOfRangeError(f"{alpha} is not a point of the family")
    k = cert.k
    abit = 1 << alpha
    current = family
    chain, betas, pairs = [family], [alpha], [_witness_pair(family, alpha)]
    while True:
        together = reduce(or_, filter(abit.__and__, current.masks), 0)
        apart = current.point_mask & ~together
        if not apart:
            break
        beta = (apart & -apart).bit_length() - 1
        betas.append(beta)
        pairs.append(_witness_pair(current, beta))
        current = _merge(current, k, alpha, beta)
        chain.append(current)
    n_steps = len(betas)

    left = [tuple(p for p in b if p != beta) for (b, _), beta in zip(pairs, betas)]
    right = [tuple(p for p in b if p != beta) for (_, b), beta in zip(pairs, betas)]
    system = SetPairSystem([(a, b) for a, b in zip(left, right)]
                           + [(b, a) for a, b in zip(left, right)],
                           k=k - 1, t=k - 1)
    verdict = validate_isp(system)
    if not verdict:
        raise VerificationError(f"collapse certificate invalid: {verdict.message}")
    bollobas_sum(system)  # raises if the sum exceeds 1
    if 2 * n_steps > comb(2 * k - 2, k - 1):
        raise VerificationError(
            f"2N = {2 * n_steps} exceeds C({2 * k - 2},{k - 1})")

    report = transversal_family(current.blocks_avoiding((alpha,)))
    if report.tau != k - 1:
        raise VerificationError(
            f"blocks avoiding alpha have transversal size {report.tau}, want {k - 1}")
    if set(report.transversals.masks) != {m ^ abit for m in current.masks if m & abit}:
        raise VerificationError(
            "transversals of the alpha-avoiding blocks are not the alpha-stripped blocks")
    g_top_points = report.transversals.point_count()
    if family.point_count() != n_steps + g_top_points:
        raise VerificationError(
            f"point count {family.point_count()} != N + transversal points "
            f"= {n_steps} + {g_top_points}")
    return CollapseTrace(alpha, tuple(betas), tuple(chain), tuple(pairs),
                         system, g_top_points)
