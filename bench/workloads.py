"""The three workloads: how each sets up its inputs, runs one round of
operations, and checks every answer.

A round is the same list of operations every time, so a run that repeats
rounds attempts a whole multiple of them.  Each round fills the RoundLog it is
given: every library call is timed alone on the log's clock, and its answer
is checked right after, against `oracles`.
"""

from __future__ import annotations

import os
import random
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from dslforge import cache, lie, lyndon, spaces, verify
from dslforge.algebra import concat_exp, concat_product
from dslforge.series import XSeries
from dslforge.spaces import ADDMR, ADDMR_FAD, ADDMR_FAD_PARITY, DMR, VSTRPRTY

import oracles

EXPECTED = oracles.expected_rows(11)


class SetupError(RuntimeError):
    """The generated inputs are not what they were built to be."""


@dataclass
class RoundLog:
    clock: Callable[[], float]  # seconds, not counting the speed probe
    mark: Callable[[], int]  # position in the speed probe's samples
    outcomes: list = field(default_factory=list)  # "ok" / "wrong" / "error"
    samples: list = field(default_factory=list)  # (seconds, mark before, mark after)
    problems: list = field(default_factory=list)  # whole-round properties

    def call(self, fn, sample: bool = False):
        """Run one library call; return (True, output) or (False, None).

        With `sample`, its latency goes into op_p50_ms."""
        m0, t0 = self.mark(), self.clock()
        try:
            out = fn()
        except Exception:  # a raising operation is a failed one, not a crash
            traceback.print_exc(file=sys.stderr)
            return False, None
        if sample:
            self.samples.append((self.clock() - t0, m0, self.mark()))
        return True, out

    def check(self, ok: bool, what: str) -> None:
        self.outcomes.append("ok" if ok else "wrong")
        if not ok:
            print(f"wrong answer: {what}", file=sys.stderr)

    def error(self, count: int = 1) -> None:
        self.outcomes.extend(["error"] * count)


def clear_memos() -> None:
    """Empty every in-process memo of the library, as a new CLI process has it."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not name.startswith("dslforge"):
            continue
        for value in vars(mod).values():
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


def fresh_cache(path: Path) -> None:
    """Point the basis cache at a new empty directory; empty the memos."""
    path.mkdir(parents=True)
    os.environ[cache.ENV_VAR] = str(path)
    clear_memos()


def cache_snapshot(path: Path) -> dict:
    return {
        e.name: (e.inode(), e.stat().st_mtime_ns, e.stat().st_size)
        for e in os.scandir(path)
    }


def check_row(log: RoundLog, key: str, row, kmax: int) -> None:
    want = EXPECTED[key][:kmax]
    for k in range(kmax):
        got = row[k] if k < len(row) else None
        log.check(got == want[k], f"{key} at k={k + 1}: {got}, expected {want[k]}")


def random_primitive(rng: random.Random, weights) -> dict:
    """Seeded integer combination of the Lyndon bracketings of the weights."""
    terms: dict = {}
    for m in weights:
        for e in lyndon.lyndon_primitive_basis(m):
            c = rng.choice((-2, -1, 1, 2))  # no zeros: sizes vary little
            for w, cw in e.expansion.terms.items():
                acc = terms.get(w, 0) + c * cw
                if acc:
                    terms[w] = acc
                else:
                    terms.pop(w, None)
    return terms


# --- dims-cold --------------------------------------------------------------

DIMS_PLAN = [
    (DMR, 11), (ADDMR, 11), (ADDMR_FAD, 11), (ADDMR_FAD_PARITY, 11), (VSTRPRTY, 10)
]


class DimsCold:
    """`dims` tables into an empty cache; op_p50_ms is the median of the five
    per-space tables."""

    def setup(self, seed: int, workdir: Path, rep: int):
        return None  # the tables have no random inputs

    def round(self, state, workdir: Path, index: int, log: RoundLog) -> None:
        fresh_cache(workdir / f"round{index}")
        rows = {}
        for space, kmax in DIMS_PLAN:
            ok, table = log.call(
                lambda: spaces.dimension_table([space], kmax), sample=True
            )
            if not ok:
                log.error(kmax)
                continue
            rows[space.key] = table[space.key]
            check_row(log, space.key, rows[space.key], kmax)
        chain = [rows.get(key) for key in ("addmr-fad-parity", "addmr-fad", "addmr")]
        if all(chain) and not all(a <= b <= c for a, b, c in zip(*chain)):
            log.problems.append("addmr-fad-parity <= addmr-fad <= addmr fails")


# --- verify-warm ------------------------------------------------------------

WARM_SPACES = (DMR, ADDMR, ADDMR_FAD_PARITY)
WARM_KMAX = 9
CERT_WEIGHT = 8
# non-member kinds per space: "corner" adds c * ad(x0)^(k-1)(x1) to a member,
# "random" is a random primitive element (ad(x0)^(k-1)(x1) lies in addmr)
NON_MEMBERS = {
    "dmr": ["corner"] * 3 + ["random"] * 3,
    "addmr": ["random"] * 6,
    "addmr-fad-parity": ["corner"] * 3 + ["random"] * 3,
}
CHECKS = [
    ("verify_bracket_closure", (4, 4)),
    ("verify_bracket_closure", (4, 6)),
    ("verify_lemma_essential_all", (11,)),
] + [("verify_ad_embedding", (k,)) for k in range(3, 9)]


@dataclass
class WarmInputs:
    cache_dir: Path
    bases: dict  # space key -> weight-CERT_WEIGHT basis vectors, as computed
    certificates: list  # (space, series, expected verdict)


def _certificates(rng: random.Random, space, basis) -> list:
    k = CERT_WEIGHT
    vecs = [v.terms for v in basis.vectors]
    if len(vecs) != EXPECTED[space.key][k - 1] or oracles.rank(vecs) != len(vecs):
        raise SetupError(f"{space.key} basis at weight {k} does not match the oracle")

    def member() -> dict:
        terms: dict = {}
        for v in vecs:
            c = rng.choice((-3, -2, -1, 1, 2, 3))
            for w, cw in v.items():
                acc = terms.get(w, 0) + c * cw
                if acc:
                    terms[w] = acc
                else:
                    terms.pop(w, None)
        return terms

    out = []
    for kind in NON_MEMBERS[space.key]:
        out.append((space, XSeries(member(), k), True))
        if kind == "corner":
            base = member()
            terms = dict(base)
            scale = rng.choice((-2, -1, 1, 2))
            for w, c in oracles.ad_x0_power_x1(k - 1, scale).items():
                terms[w] = terms.get(w, 0) + c
            terms = {w: c for w, c in terms.items() if c}
            if "parity" in space.key and (
                oracles.corner00(base) or not oracles.corner00(terms)
            ):
                raise SetupError("corner non-member does not leave the 00-corner")
        else:
            terms = random_primitive(rng, [k])
        if oracles.rank(vecs + [terms]) != len(vecs) + 1:
            raise SetupError(f"{kind} non-member of {space.key} lies in the span")
        out.append((space, XSeries(terms, k), False))
    return out


class VerifyWarm:
    """Warm reads, membership certificates and the verify checks on a cache
    filled in set-up; op_p50_ms is the median certificate."""

    def setup(self, seed: int, workdir: Path, rep: int) -> WarmInputs:
        path = workdir / f"fill{rep}"
        fresh_cache(path)
        computed = {}
        for space in WARM_SPACES:
            for k in range(1, WARM_KMAX + 1):
                computed[space.key, k] = cache.get_basis(space, k)
        rng = random.Random(seed)
        bases, certs = {}, []
        for space in WARM_SPACES:
            basis = computed[space.key, CERT_WEIGHT]
            bases[space.key] = basis.vectors
            certs.extend(_certificates(rng, space, basis))
        return WarmInputs(cache_dir=path, bases=bases, certificates=certs)

    def round(
        self, state: WarmInputs, workdir: Path, index: int, log: RoundLog
    ) -> None:
        os.environ[cache.ENV_VAR] = str(state.cache_dir)
        clear_memos()
        before = cache_snapshot(state.cache_dir)
        for space in WARM_SPACES:  # `dims --kmax 9`
            ok, table = log.call(lambda: spaces.dimension_table([space], WARM_KMAX))
            if ok:
                check_row(log, space.key, table[space.key], WARM_KMAX)
            else:
                log.error(WARM_KMAX)
        for space in WARM_SPACES:  # `basis --k 8`
            ok, basis = log.call(lambda: cache.get_basis(space, CERT_WEIGHT))
            if ok:
                log.check(
                    basis.vectors == state.bases[space.key],
                    f"{space.key} basis read back differs from the computed one",
                )
            else:
                log.error()
        for space, series, expected in state.certificates:  # `member`
            ok, rep = log.call(
                lambda: spaces.membership_check(space, series), sample=True
            )
            if ok:
                log.check(
                    rep.passed == expected,
                    f"{space.key} certificate says {rep.passed}, built as {expected}",
                )
            else:
                log.error()
        for name, args in CHECKS:  # `verify --check ...`
            ok, rep = log.call(lambda: getattr(verify, name)(*args))
            if ok:
                good = rep.passed and rep.parameters.get("dims_equal", True)
                log.check(good, f"{name}{args} failed: {rep.witnesses[:2]}")
            else:
                log.error()
        if cache_snapshot(state.cache_dir) != before:
            log.problems.append("a warm get_basis call missed and rewrote the cache")


# --- decompose --------------------------------------------------------------

BOUND = 9
DEC_MEMBERS = 3
DEC_NON_MEMBERS = 2
DEC_ROUND_TRIPS = 2


@dataclass
class DecomposeInputs:
    members: list  # (psi terms, phi)
    non_members: list  # (psi terms, phi + perturbation, expected top residual)
    round_trips: list  # (psi terms at weight BOUND - 1, v = [x1, psi])


def _conjugate(psi: dict) -> XSeries:
    s = XSeries(psi, BOUND)
    x1 = XSeries.word("1", 1, BOUND)
    return concat_product(concat_product(concat_exp(-s), x1), concat_exp(s))


class Decompose:
    """Conjugation recovery on seeded conjugates exp(-psi) x1 exp(psi), and
    round trips through the inverse of bracketing with x1; op_p50_ms is the
    median decomposition."""

    def setup(self, seed: int, workdir: Path, rep: int) -> DecomposeInputs:
        fresh_cache(workdir / f"setup{rep}")
        rng = random.Random(seed)
        weights = range(2, BOUND)
        members = []
        for _ in range(DEC_MEMBERS):
            psi = random_primitive(rng, weights)
            members.append((psi, _conjugate(psi)))
        non_members = []
        for _ in range(DEC_NON_MEMBERS):
            psi = random_primitive(rng, weights)
            bump = oracles.ad_x0_power_x1(BOUND - 1, rng.choice((-2, -1, 1, 2)))
            phi = _conjugate(psi) + XSeries(bump, BOUND)
            non_members.append((psi, phi, oracles.corner00(bump)))
        round_trips = []
        for _ in range(DEC_ROUND_TRIPS):
            psi = random_primitive(rng, [BOUND - 1])
            round_trips.append((psi, XSeries(oracles.ad_x1(psi), BOUND)))
        return DecomposeInputs(members, non_members, round_trips)

    def round(
        self, state: DecomposeInputs, workdir: Path, index: int, log: RoundLog
    ) -> None:
        clear_memos()
        for psi, phi in state.members:
            ok, dec = log.call(lambda: lie.fad_decompose(phi), sample=True)
            if ok:
                log.check(
                    dec.is_member and dec.psi(BOUND - 1).terms == psi,
                    "recovered generator differs from the seeded one",
                )
            else:
                log.error()
        for psi, phi, corner in state.non_members:
            ok, dec = log.call(lambda: lie.fad_decompose(phi), sample=True)
            if ok:
                low = {w: c for w, c in psi.items() if len(w) <= BOUND - 2}
                top = dec.residuals.get(BOUND)
                log.check(
                    not dec.is_member
                    and top is not None
                    and top.terms == corner
                    and all(r.is_zero() for n, r in dec.residuals.items() if n < BOUND)
                    and dec.psi(BOUND - 1).terms == low,
                    "non-member not rejected at its perturbed weight",
                )
            else:
                log.error()
        for psi, v in state.round_trips:
            ok, out = log.call(lambda: lie.ad_x1_inverse(v))
            if ok:
                log.check(
                    out.terms == psi and oracles.ad_x1(out.terms) == v.terms,
                    "ad_x1_inverse round trip differs",
                )
            else:
                log.error()


WORKLOADS = {
    "dims-cold": DimsCold(),
    "verify-warm": VerifyWarm(),
    "decompose": Decompose(),
}
