"""Acceptance-suite driver: one callable per criterion, shared by the
`verify-paper` CLI command and the test suite.

Every criterion is exact; there are no tolerances to calibrate.  Output,
text and JSON alike, is deterministic byte for byte: it holds no wall-clock
numbers.
"""

from __future__ import annotations

import random
import tempfile
from dataclasses import dataclass, field
from itertools import combinations
from math import comb
from pathlib import Path

from .bounds import (el_lower, eval_bounds, half_central_binomial, tuza_conjecture_value,
                     tuza_nkt_upper)
from .constructions import bg_family, complete_family, projective_plane
from .errors import BudgetExceededError
from .family import Family
from .isp import bollobas_sum, validate_isp
from .mif import chromatic_class, collapse, is_mif, merge
from .search import SearchResult, compute_n, compute_N, enumerate_mifs
from .transversal import brute_force_transversals, transversal_family

RANDOM_SEED = 20260810
ORACLE_FAMILIES = 500  # random families of criterion 1
BG_K_MAX = 6           # largest k of criterion 2
BOUNDS_K_MAX = 12      # largest k of criterion 8

FIXTURE_EXPECTATIONS = [
    # (name, builder, expected block size, expect maximal)
    ("triangle", lambda: complete_family(2), 2, True),
    ("complete_3", lambda: complete_family(3), 3, True),
    ("complete_4", lambda: complete_family(4), 4, True),
    ("fano", lambda: projective_plane(2), 3, True),
    ("pg23", lambda: projective_plane(3), 4, True),
    ("bg_3_2", lambda: bg_family(3, 2).family, 3, False),
]


@dataclass
class VerifyItem:
    index: int
    name: str
    status: str  # PASS / FAIL / SKIPPED
    detail: str


@dataclass
class VerifyReport:
    items: list[VerifyItem] = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return all(item.status != "FAIL" for item in self.items)

    def to_json_obj(self) -> dict:
        return {"items": [{"index": i.index, "name": i.name, "status": i.status,
                           "detail": i.detail} for i in self.items],
                "all_pass": self.all_pass}


def random_uniform_family(rng: random.Random, k: int, max_points: int = 12) -> Family:
    v = rng.randint(k, max_points)
    pool = list(combinations(range(v), k))
    n_blocks = rng.randint(1, min(18, len(pool)))
    return Family(rng.sample(pool, n_blocks), v)


def criterion_1_oracle_equivalence() -> str:
    rng = random.Random(RANDOM_SEED)
    worst_ratio = 0.0
    for i in range(ORACLE_FAMILIES):
        k = (2, 3, 4)[i % 3]
        fam = random_uniform_family(rng, k)
        fast = transversal_family(fam)
        slow = brute_force_transversals(fam)
        if fast.tau != slow.tau:
            raise AssertionError(f"tau mismatch on family {i}: {fast.tau} vs {slow.tau}")
        if fast.transversals.blocks != slow.transversals.blocks:
            raise AssertionError(f"transversal sets differ on family {i}")
        bound = k ** fast.tau
        if len(fast.transversals.blocks) > bound:
            raise AssertionError(f"count bound violated on family {i}")
        worst_ratio = max(worst_ratio, len(fast.transversals.blocks) / bound)
    return (f"{ORACLE_FAMILIES} random uniform families (k in 2..4, <=12 points): "
            f"solver == oracle; count <= k^tau throughout (worst fill {worst_ratio:.3f})")


def criterion_2_bg_identity() -> str:
    cases = 0
    for k in range(3, BG_K_MAX + 1):
        for t in range(2, k):
            bg = bg_family(k, t, max_universe=512)
            report = transversal_family(bg.family)
            if report.tau != t:
                raise AssertionError(f"bg({k},{t}): tau {report.tau} != {t}")
            if report.transversals.blocks != bg.expected_transversals.blocks:
                raise AssertionError(f"bg({k},{t}): enumerated transversals != closed form")
            expected_points = k + t - 2 + comb(k + t - 2, t - 1)
            if bg.expected_transversals.point_count() != expected_points:
                raise AssertionError(f"bg({k},{t}): transversal point count != formula")
            cases += 1
    return (f"{cases} parameter pairs (2 <= t <= k-1 <= {BG_K_MAX - 1}): tau = t and the "
            f"enumerated transversal family equals the closed form on "
            f"k+t-2+C(k+t-2,t-1) points")


def criterion_3_mif_fixtures() -> str:
    lines = []
    for name, build, k, expect_ok in FIXTURE_EXPECTATIONS:
        cert = is_mif(build())
        if cert.ok != expect_ok or cert.k != k:
            raise AssertionError(
                f"{name}: got ok={cert.ok} k={cert.k} ({cert.reason}), "
                f"want ok={expect_ok} k={k}")
        if name == "bg_3_2" and cert.tau != 2:
            raise AssertionError(f"bg_3_2: tau {cert.tau} != 2")
        lines.append(f"{name}:{'maximal' if cert.ok else cert.reason}")
    return "; ".join(lines)


def criterion_4_merge(search3: SearchResult) -> str:
    merges = 0
    touched = 0
    for fam in search3.families:
        pairs = fam.uncovered_pairs()
        if not pairs:
            continue
        touched += 1
        for a, b in pairs:
            for alpha, beta in ((a, b), (b, a)):
                result = merge(fam, alpha, beta)  # re-verifies maximality internally
                if result.point_count() != fam.point_count() - 1:
                    raise AssertionError("merge did not remove exactly one point")
                if result.point_set() != fam.point_set() - {beta}:
                    raise AssertionError("merge removed the wrong point")
                merges += 1
    return (f"{merges} merges over {touched} of {len(search3.families)} enumerated "
            f"classes with uncovered pairs; every result maximal on one fewer point, "
            f"no disjoint-transversal violation")


def criterion_5_collapse(search3: SearchResult) -> str:
    traces = 0
    max_steps = 0
    for fam in search3.families:
        for alpha in sorted(fam.point_set()):
            trace = collapse(fam, alpha)
            verdict = validate_isp(trace.isp)
            if not verdict:
                raise AssertionError(f"collapse certificate invalid: {verdict.message}")
            if trace.isp.k != 2 or trace.isp.t != 2:
                raise AssertionError("collapse certificate is not an ISP(2,2)")
            if bollobas_sum(trace.isp) > 1:
                raise AssertionError("set-pair sum above 1")
            if 2 * trace.n_steps > comb(4, 2):
                raise AssertionError("2N exceeds C(4,2)")
            if fam.point_count() != trace.n_steps + trace.g_top_points:
                raise AssertionError("point-count split violated")
            traces += 1
            max_steps = max(max_steps, trace.n_steps)
    return (f"{traces} collapse traces over all enumerated classes and base points: "
            f"certificates valid as ISP(2,2), sums <= 1, 2N <= 6 (max N {max_steps}), "
            f"points = N + transversal points")


def criterion_6_search_values(search3: SearchResult) -> str:
    n2 = compute_N(2)
    if n2 != 3 or n2 != el_lower(2):
        raise AssertionError(f"N(2) = {n2}, want 3")
    if search3.universe_bound != 9:
        raise AssertionError(f"k=3 search bound {search3.universe_bound} != 9")
    if search3.max_points != 7 or search3.max_points != el_lower(3):
        raise AssertionError(f"N(3) = {search3.max_points}, want 7")
    return (f"search reproduces N(2) = 3 and N(3) = {search3.max_points} "
            f"(= 2k-2+C(2k-2,k-1)/2) under the proven 9-point cap; "
            f"{len(search3.families)} classes total; N(4) = {el_lower(4)} is the "
            f"formula value only, not searched")


def criterion_7_isp_values() -> str:
    n31 = compute_n(3, 1)
    if n31 != 6 or n31 != tuza_conjecture_value(3, 1):
        raise AssertionError(f"n(3,1) = {n31}, want 6")
    n21 = compute_n(2, 1)
    if n21 != 4:
        raise AssertionError(f"n(2,1) = {n21}, want 4")
    formula = tuza_nkt_upper(2, 1)
    if formula != 3:
        raise AssertionError(f"simplified-sum value at (2,1) is {formula}, expected 3")
    return (f"n(3,1) = 6 matches the conjectured formula; n(2,1) = 4 by brute force; "
            f"flagged: the simplified point-count sum gives {formula} at (2,1), below "
            f"the searched maximum 4 (boundary case, reported, not a failure)")


def criterion_8_bounds_identities() -> str:
    for k in range(2, BOUNDS_K_MAX + 1):
        table = eval_bounds(k)
        if table.improved_upper != table.tuza_nk_upper - half_central_binomial(k):
            raise AssertionError(f"k={k}: improved bound identity broken")
        if table.el_lower != table.conjectured_N:
            raise AssertionError(f"k={k}: lower bound != conjectured value")
        if comb(2 * k - 2, k - 1) % 2:
            raise AssertionError(f"k={k}: central binomial odd")
    return (f"k = 2..{BOUNDS_K_MAX}: improved_upper = tuza_Nk_upper - C(2k-2,k-1)/2, "
            f"el_lower = conjectured_N, all halvings exact")


def criterion_9_chromatic() -> str:
    fano = chromatic_class(projective_plane(2))
    pg23 = chromatic_class(projective_plane(3))
    if fano != 3:
        raise AssertionError(f"Fano chromatic class {fano} != 3")
    if pg23 != 2:
        raise AssertionError(f"order-3 plane chromatic class {pg23} != 2")
    return "Fano plane -> 3; order-3 plane -> 2"


def criterion_10_determinism(search3: SearchResult) -> str:
    budget = 100  # about half of the 192-node tree
    with tempfile.TemporaryDirectory() as tmp:
        checkpoint = Path(tmp) / "search.ck"
        try:
            enumerate_mifs(3, 9, budget=budget, checkpoint_path=checkpoint)
            raise AssertionError(f"k=3 search finished within the {budget}-node budget")
        except BudgetExceededError:
            pass
        resumed = enumerate_mifs(3, 9, resume_path=checkpoint)
    if resumed.to_json() != search3.to_json():
        raise AssertionError("the resumed k=3 search differs from the uninterrupted one")
    return (f"k=3 search stopped at {budget} of {search3.nodes} nodes and resumed from "
            f"its checkpoint: serialized byte-identically to the uninterrupted search")


def build_report(skip_search: bool = False) -> VerifyReport:
    """Run the ten criteria in order, sharing one k=3 search.  With
    skip_search the search-backed criteria (4-7 and 10) are reported as
    SKIPPED and no search runs.  If the shared search fails, the criteria
    that read it (4-6 and 10) fail; criterion 7 runs set-pair searches of
    its own."""
    report = VerifyReport()
    search3: SearchResult | None = None
    search_error: Exception | None = None
    if not skip_search:
        try:
            search3 = enumerate_mifs(3, 9)
        except Exception as exc:
            search_error = exc

    # (index, name, check, search): search is None, "own" (runs a search of
    # its own) or "shared" (takes the shared k=3 search)
    plan = [
        (1, "oracle-equivalence", criterion_1_oracle_equivalence, None),
        (2, "bg-construction-identity", criterion_2_bg_identity, None),
        (3, "mif-fixtures", criterion_3_mif_fixtures, None),
        (4, "merge-rewrite", criterion_4_merge, "shared"),
        (5, "collapse-certificates", criterion_5_collapse, "shared"),
        (6, "search-max-points", criterion_6_search_values, "shared"),
        (7, "isp-brute-force", criterion_7_isp_values, "own"),
        (8, "bounds-identities", criterion_8_bounds_identities, None),
        (9, "chromatic-classes", criterion_9_chromatic, None),
        (10, "determinism", criterion_10_determinism, "shared"),
    ]
    for index, name, fn, search in plan:
        if search and skip_search:
            report.items.append(VerifyItem(index, name, "SKIPPED", "skipped: search"))
            continue
        if search == "shared" and search_error is not None:
            report.items.append(VerifyItem(
                index, name, "FAIL",
                f"shared search failed: {type(search_error).__name__}: {search_error}"))
            continue
        try:
            detail = fn(search3) if search == "shared" else fn()
            status = "PASS"
        except Exception as exc:  # a criterion failure, whatever raised it
            detail = f"{type(exc).__name__}: {exc}"
            status = "FAIL"
        report.items.append(VerifyItem(index, name, status, detail))
    return report


def render_text(report: VerifyReport) -> str:
    lines = [f"{item.status:<7} {item.index:>2} {item.name}: {item.detail}"
             for item in report.items]
    lines.append("RESULT  " + ("all criteria passed" if report.all_pass
                               else "FAILURES PRESENT"))
    return "\n".join(lines) + "\n"
