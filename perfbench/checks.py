"""Output checks: a wrong answer is a failed operation, never a fast one."""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass

# Bound here, outside the fanbranch modules the tracer rebinds, so that the
# checks of a traced run record no spans.
from fanbranch.cover_poset import cover_to_dict


@dataclass(frozen=True)
class SweepExpectation:
    """What a complete sweep cache must be, byte for byte."""

    total: int
    size: int
    sha256: str
    rungs: dict


# `fanbranch pl sweep eikelberg -d 3`: identical for any --jobs.
EIKELBERG3 = SweepExpectation(
    total=7776,
    size=1125158,
    sha256="536b3f7efd36972ef2b49d3f278a06b97fa13243777a84e8287e434ca25d7779",
    rungs={"pullbacks-only": 5936, "matched-pattern": 1143,
           "wedge-of-pullbacks": 49, "nontrivial": 648},
)

# sha256 of the sigma3-stride records (one JSON line each, in sample order,
# newline-terminated) for the default seed.
SIGMA3_DEFAULT_SEED = 1
SIGMA3_SEED1_SHA256 = "294d70a5d04833d7f4a8fbd4b4b4ccf535fd9ea2ca03225b241e72f18ddc74df"

# Known verdicts on the bundled bundles.  Their direct sums with a line
# bundle keep them: checked for every functional the library-mix generator
# can draw (each coordinate in -3..3).
BUNDLE_FACTS = {
    "eikelberg": {"verifies": True, "screen": "ok", "chern_trivial": False},
    "fulton_rank3": {"verifies": False, "screen": "violation", "chern_trivial": False},
    "p2_tangent": {"verifies": True, "screen": "ok", "chern_trivial": False},
}
# (maximal cells, minimal cell weight) of the p2_tangent associated cover.
P2_TANGENT_COVER = (6, 2)


def digest(lines) -> str:
    """sha256 of the lines as a newline-terminated cache file."""
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def sweep_cache_problems(data: bytes, expected: SweepExpectation) -> tuple[list[str], Counter]:
    """Problems found in a sweep cache, and its verdict counts by rung."""
    problems = []
    rungs: Counter = Counter()
    lines = data.decode(errors="replace").splitlines()
    for pos, line in enumerate(lines):
        try:
            rec = json.loads(line)
            index, cert = rec["index"], rec["cert"]
        except (json.JSONDecodeError, KeyError, TypeError):
            problems.append(f"line {pos + 1} is not a sweep record")
            continue
        if index != pos:
            problems.append(f"line {pos + 1} holds index {index}")
        rungs[cert] += 1
    if len(lines) != expected.total:
        problems.append(f"{len(lines)} records, want {expected.total}")
    if dict(rungs) != expected.rungs:
        problems.append(f"verdict counts {dict(rungs)}, want {expected.rungs}")
    if len(data) != expected.size:
        problems.append(f"{len(data)} bytes, want {expected.size}")
    if hashlib.sha256(data).hexdigest() != expected.sha256:
        problems.append("cache sha256 differs from the reference sweep")
    return problems, rungs


def sigma_record_problem(rec, index: int, branch: list[int], degree: int) -> str | None:
    """Why a sweep record cannot be right, or None.  These hold for every
    index: the paper's claim that no degree-3 cover of sigma_prime carries a
    nontrivial function, and agreement with the monodromy's branch set."""
    if rec.index != index:
        return f"record for index {rec.index}, asked for {index}"
    if rec.verdict != "AllTrivial" or rec.cert == "nontrivial":
        return f"index {index}: verdict {rec.verdict} contradicts the paper"
    if rec.branch_rays != branch:
        return f"index {index}: branch rays {rec.branch_rays}, monodromy says {branch}"
    if any(sum(weights) != degree for weights in rec.profile):
        return f"index {index}: a ray profile does not sum to {degree}"
    if rec.dim_pl < 3:
        return f"index {index}: dim PL {rec.dim_pl} below the 3 pullbacks"
    if (rec.cert == "pullbacks-only") != (rec.dim_pl == 3):
        return f"index {index}: certificate {rec.cert} with dim PL {rec.dim_pl}"
    return None


def same_cover(a, b) -> bool:
    """Whether two covers serialize to the same cells and face pairs."""
    return cover_to_dict(a) == cover_to_dict(b)
