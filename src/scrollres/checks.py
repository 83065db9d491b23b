"""Mechanical certification of the constructed complexes.

Exact checks: consecutive differentials compose to zero entrywise in the
ring, and no differential entry has a unit part (minimality).

Probabilistic checks: ranks are probed by evaluating matrices at random
points of the scroll torus -- x at position j of block b maps to
y_b * c**(j-1) -- which is a ring homomorphism to F_q, so the evaluated
rank never exceeds the rank over the ring's fraction field and equals it
with high probability.  Probes record modulus and seeds and are rerun
with fresh seeds before a failure is reported.

Exact minor certificates: for the staircase and the first three phi
matrices, fixed row/column recipes cut out submatrices that are
triangular up to permutation with determinant a signed pure power of one
variable.  For phi2 at the two middle variables the recipe's row
adjustment is off-by-one ambiguous, so every natural reading is tried
and the certificate records which ones succeed.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import linalg
from .primes import require_prime_modulus
from .resolution import Resolution, SparseMatrixR, _ProductRun, phi, staircase
from .ring import Element, ring_for
from .scrolls import FAULT_KINDS, ScrollSpec
from .series import hilbert_coefficients


@dataclass
class CheckReport:
    name: str
    target: str
    ok: bool
    details: dict = field(default_factory=dict)
    modulus: int | None = None
    seed: int | None = None

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            "target": self.target,
            "verdict": "pass" if self.ok else "fail",
            "details": _stringify(self.details),
            "seed": self.seed,
            "modulus": self.modulus,
        }


def _stringify(obj):
    if isinstance(obj, dict):
        return {k: _stringify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_stringify(v) for v in obj]
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, int):
        return str(obj)
    return obj if isinstance(obj, str) else str(obj)


@dataclass
class RankReport:
    matrix_id: str
    claimed: int | None
    probe: int
    trials: int
    probes_run: int
    modulus: int
    seed: int
    trial_seeds: list[int]

    @property
    def ok(self) -> bool:
        return self.claimed is None or self.probe == self.claimed

    def to_json_obj(self) -> dict:
        return {
            "matrix": self.matrix_id,
            "claimed": None if self.claimed is None else str(self.claimed),
            "probe": str(self.probe),
            "trials": self.trials,
            "probes_run": self.probes_run,
            "modulus": self.modulus,
            "seed": self.seed,
            "trial_seeds": sorted(self.trial_seeds),
            "verdict": "pass" if self.ok else "fail",
        }


def scroll_point(spec: ScrollSpec, rng: random.Random, q: int) -> list[int]:
    """Values for x_1..x_n at a random point of the scroll torus."""
    ys = [rng.randrange(q) for _ in range(spec.k)]
    c = rng.randrange(q)
    vals = []
    for b, size in enumerate(spec.blocks):
        for j in range(size):
            vals.append(ys[b] * pow(c, j, q) % q)
    return vals


def probe_rank(
    mat: SparseMatrixR,
    trials: int = 5,
    modulus: int = 32003,
    seed: int = 0,
    claimed: int | None = None,
    matrix_id: str = "",
) -> RankReport:
    """Max F_q-rank of the matrix over `trials` random scroll points.

    When `claimed` is a known upper bound for the true rank, probing
    stops as soon as it is attained; the max over trials is unchanged.
    """
    require_prime_modulus(modulus, 3)
    if trials < 1:
        raise ValueError("need at least one trial")
    spec = mat.ring.spec
    master = random.Random(seed)
    trial_seeds = []
    best = 0
    while len(trial_seeds) < trials:
        trial_seeds.append(master.randrange(2**32))
        vals = scroll_point(spec, random.Random(trial_seeds[-1]), modulus)
        best = max(best, linalg.rank_modp(mat.eval_modp(vals, modulus), modulus))
        if claimed is not None and best >= claimed:
            break
    return RankReport(matrix_id, claimed, best, trials, len(trial_seeds),
                      modulus, seed, trial_seeds)


def check_complex(res: Resolution) -> CheckReport:
    """Every consecutive product reduces to zero entrywise.

    One product memo serves the whole check, so block and value pairs
    that recur from step to step are multiplied once.
    """
    run = _ProductRun()
    for i, pair in enumerate(zip(res.steps, res.steps[1:])):
        prod = run.product((pair,))
        if prod.entries:
            (r, c), e = min(prod.entries.items())
            return CheckReport(
                "complex", str(res.spec), False,
                {"pair": (i, i + 1), "row": r, "col": c, "residual": str(e)},
            )
    return CheckReport("complex", str(res.spec), True,
                       {"pairs_checked": len(res.steps) - 1})


def check_minimality(res: Resolution) -> CheckReport:
    """No unit entries: every entry lies in the maximal ideal.

    Each code a step holds (`SparseMatrixR.codes`) is tested once, never
    the rest of its ring's palette.  Only a step that holds a unit code
    lists its entries, and the first unit entry in its iteration order is
    reported at its position in the step.
    """
    unit = (0,) * res.spec.n
    for idx, step in enumerate(res.steps):
        units = {c for c in step.codes() if unit in step.ring.palette[c].terms}
        if units:
            (r, c), e = next((pos, e) for pos, e in step.entries.items() if e.code in units)
            return CheckReport(
                "minimal", str(res.spec), False,
                {"step": idx, "row": r, "col": c, "entry": str(e)},
            )
    return CheckReport("minimal", str(res.spec), True,
                       {"steps_checked": len(res.steps)})


def claimed_ranks(res: Resolution) -> list[int]:
    """Expected differential ranks: first is 1, then cols minus previous."""
    out = [1]
    for step in res.steps[:-1]:
        out.append(step.cols - out[-1])
    return out


def check_exactness(
    res: Resolution,
    i: int,
    modulus: int = 32003,
    trials: int = 5,
    seed: int = 0,
) -> CheckReport:
    """Probe rank(step i) + rank(step i+1) == cols(step i), 1-based i.

    Up to three attempts, each with fresh seeds, before the check fails.
    """
    if not 1 <= i < len(res.steps):
        raise ValueError(f"step index {i} out of range")
    expect = claimed_ranks(res)
    a, b = res.steps[i - 1], res.steps[i]
    report: dict = {"cols": a.cols}
    for attempt in range(3):
        s = seed + 10007 * attempt
        ra = probe_rank(a, trials, modulus, s, claimed=expect[i - 1],
                        matrix_id=f"step{i}")
        rb = probe_rank(b, trials, modulus, s + 1, claimed=expect[i],
                        matrix_id=f"step{i + 1}")
        report.update(
            rank_lo=ra.probe, rank_hi=rb.probe,
            probes=[ra.to_json_obj(), rb.to_json_obj()], attempts=attempt + 1,
        )
        if ra.probe + rb.probe == a.cols:
            return CheckReport(f"exact@{i}", str(res.spec), True, report,
                               modulus, seed)
    return CheckReport(f"exact@{i}", str(res.spec), False, report, modulus, seed)


def check_phi_ranks(
    spec: ScrollSpec,
    imax: int = 3,
    modulus: int = 32003,
    trials: int = 5,
    seed: int = 0,
) -> list[CheckReport]:
    """Probe rank(phi_i) == (n-3)**i and rank(staircase_d) == d-1.

    Each matrix passes `require_evaluable` as soon as it is built, the
    phi_i first, so an oversized one is refused before the rest are
    built, and every one before the first probe.
    """
    n = spec.n
    plan = [(f"phi{i}", phi, i, (n - 3) ** i, seed + i) for i in range(imax + 1)]
    plan += [(f"staircase{d}", staircase, d, d - 1, seed + 100 + d) for d in range(2, n)]
    mats = []
    for name, build, index, claimed, probe_seed in plan:
        mat = build(spec, index)
        mat.require_evaluable()
        mats.append((name, mat, claimed, probe_seed))
    out = []
    for name, mat, claimed, probe_seed in mats:
        rep = probe_rank(mat, trials, modulus, probe_seed, claimed=claimed, matrix_id=name)
        out.append(CheckReport(f"rank:{name}", str(spec), rep.ok, rep.to_json_obj(),
                               modulus, seed))
    return out


# the most variables of the checks whose work grows with n alone:
# `groebner` enumerates standard monomials, and `minors` certifies every
# variable of phi0, phi1, phi2 and each staircase, work that grows about
# as n**4.7 (cold on a 2-core box, `verify --scroll 24,24 --steps 2
# --checks minors` takes 12 s)
MAX_N = {"groebner": 9, "minors": 48}


def require_size(spec: ScrollSpec, check: str) -> None:
    """Refuse a scroll with more variables than `check` accepts."""
    if spec.n > MAX_N[check]:
        raise ValueError(f"enumeration guard: --checks {check} needs n <= {MAX_N[check]}, "
                         f"got n = {spec.n}")


def groebner_consistency(spec: ScrollSpec, dmax: int) -> CheckReport:
    """Standard monomials: unique per multidegree, counted by the series."""
    if dmax < 1:
        raise ValueError("dmax must be at least 1")
    require_size(spec, "groebner")
    ring = ring_for(spec)
    coeffs = hilbert_coefficients(spec, dmax)
    counts = {}
    for d in range(1, dmax + 1):
        mons = ring.standard_monomials(d)
        seen: dict = {}
        for mo in mons:
            deg = ring.adegree(mo)
            if deg in seen:
                return CheckReport(
                    "groebner", str(spec), False,
                    {"degree": d, "multidegree": deg,
                     "monomials": [str(seen[deg]), str(mo)]},
                )
            seen[deg] = mo
        counts[d] = len(mons)
        if len(mons) != coeffs[d]:
            return CheckReport(
                "groebner", str(spec), False,
                {"degree": d, "count": len(mons), "series": coeffs[d]},
            )
    return CheckReport("groebner", str(spec), True, {"counts": counts})


# -- minor certificates ---------------------------------------------------

@dataclass
class MinorCertificate:
    target: str
    var_index: int
    rows: list[int]          # 1-based, in recipe order
    cols: list[int]          # 1-based
    minor: Element | None
    expected_power: int
    status: str              # "ok", "ambiguous" or "failed"
    readings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_json_obj(self) -> dict:
        return {
            "target": self.target,
            "variable": self.var_index,
            "rows": self.rows,
            "cols": self.cols,
            "minor": None if self.minor is None else str(self.minor),
            "expected_power": self.expected_power,
            "status": self.status,
            "readings": self.readings,
        }


def _triangular_determinant(mat: SparseMatrixR, rows: list[int], cols: list[int]):
    """Determinant of a permuted-triangular submatrix, or None.

    Repeatedly expands along a live row with exactly one live nonzero
    entry (an exact cofactor step), so whenever it completes the product
    is the true determinant.  Indices are 0-based positions in `mat`.
    """
    live_rows = list(rows)
    live_cols = list(cols)
    if len(live_rows) != len(live_cols):
        return None
    row_entries = {r: {} for r in live_rows}
    colset = set(live_cols)
    for (r, c), e in mat.entries.items():
        if r in row_entries and c in colset:
            row_entries[r][c] = e
    picked = []
    sign = 1
    while live_rows:
        pick = None
        for ri, r in enumerate(live_rows):
            nz = [c for c in row_entries[r] if c in colset]
            if len(nz) == 0:
                return None  # singular row: determinant would be zero
            if len(nz) == 1:
                pick = (ri, r, nz[0])
                break
        if pick is None:
            return None  # not triangular under any permutation
        ri, r, c = pick
        ci = live_cols.index(c)
        sign *= (-1) ** (ri + ci)
        picked.append(row_entries[r][c])
        live_rows.pop(ri)
        live_cols.pop(ci)
        colset.discard(c)
        del row_entries[r]
    return mat.ring.product(picked, sign)


def _phi1_recipe(spec: ScrollSpec, i: int) -> tuple[list[int], list[int]]:
    """1-based rows/cols of the pure-power minor of phi1 for variable i.

    Off x_m and x_{m+1} it is staircase(n-2)'s recipe: the two give the
    same rows and columns there.
    """
    m, n = spec.m, spec.n
    w = n - 2
    if i == m:
        rows = list(range(1, m - 1)) + list(range(m, n - 1))
        cols = [(m - 1) + j * w for j in range(m - 2)]
        cols += [l + (m - 2) * w for l in range(m, n - 1)]
    elif i == m + 1:
        rows = list(range(1, m)) + list(range(m + 1, n - 1))
        cols = [l + (m - 2) * w for l in range(1, m)]
        cols += [m + j * w for j in range(m - 1, n - 3)]
    else:
        return _staircase_recipe(spec, n - 2, i)
    return rows, cols


def _staircase_recipe(spec: ScrollSpec, d: int, i: int) -> tuple[list[int], list[int]]:
    m, n = spec.m, spec.n
    w = n - 2
    if 1 <= i <= m - 1:
        return list(range(2, d + 1)), [i + j * w for j in range(d - 1)]
    if i == m:
        return list(range(1, d)), [m - 1 + j * w for j in range(d - 1)]
    if i == m + 1:
        return list(range(2, d + 1)), [m + j * w for j in range(d - 1)]
    return list(range(1, d)), [i - 2 + j * w for j in range(d - 1)]


def _phi2_row_readings(spec: ScrollSpec, i: int, base: list[int]) -> list[tuple[str, list[int]]]:
    """Candidate row sets for the phi2 minor at i in {m, m+1}.

    The recipe removes one row index and adds another, but the adjusted
    indices admit several off-by-one readings; each plausible pair is
    generated and labelled.
    """
    m, n = spec.m, spec.n
    w = n - 2
    if i == m:
        removed = [(m - 1) * w]
        added = [(m - 2) * (n - 1) + 1, (m - 2) * w + 1, m + (m - 2) * w,
                 (m - 1) * w + 1]
    else:
        removed = [(m - 2) * w + 1]
        added = [m + (m - 2) * w, (m - 2) * (n - 1) + 1, (m - 1) + (m - 2) * w]
    out = []
    seen = set()
    nrows = w * (n - 3)
    for rm in removed:
        if rm not in base:
            continue
        for ad in added:
            if not 1 <= ad <= nrows or ad in base or ad == rm:
                continue
            rows = sorted([r for r in base if r != rm] + [ad])
            key = tuple(rows)
            if key in seen:
                continue
            seen.add(key)
            out.append((f"-{rm}+{ad}", rows))
    return out


def minor_certificate(
    spec: ScrollSpec,
    target: str,
    var_index: int,
    d: int | None = None,
) -> MinorCertificate:
    """Exact pure-power minor certificate for one matrix and variable.

    `target` is "phi0", "phi1", "phi2" or "staircase" (which needs `d`).
    The extracted submatrix must be triangular up to permutation with
    determinant +- x_i to the expected power.
    """
    if spec.k != 2:
        raise ValueError("certificates are defined for 2-block scrolls")
    m, n = spec.m, spec.n
    if not 1 <= var_index <= n:
        raise ValueError(f"variable index {var_index} out of range")
    i = var_index
    if target == "phi0":
        mat = phi(spec, 0)
        hits = [(r, c) for (r, c), e in mat.items_sorted()
                if len(e.terms) == 1 and _is_power_of(e, i, 1)]
        if not hits:
            return MinorCertificate("phi0", i, [], [], None, 1, "failed")
        r, c = hits[0]
        return MinorCertificate("phi0", i, [r + 1], [c + 1], mat.get(r, c), 1, "ok")
    if target == "staircase":
        if d is None or d < 2:
            raise ValueError("staircase certificate needs d >= 2")
        mat = staircase(spec, d)
        rows, cols = _staircase_recipe(spec, d, i)
        power = d - 1
        readings = [("recipe", rows)]
        label = f"staircase{d}"
    elif target == "phi1":
        mat = phi(spec, 1)
        rows, cols = _phi1_recipe(spec, i)
        power = n - 3
        readings = [("recipe", rows)]
        label = "phi1"
    elif target == "phi2":
        mat = phi(spec, 2)
        power = (n - 3) ** 2
        label = "phi2"
        w = n - 2
        r1, c1 = _phi1_recipe(spec, i)
        base = sorted(s + t * w for s in r1 for t in range(n - 3))
        if i <= m - 1 or i >= m + 2:
            a = i if i <= m - 1 else i - 2
            cols = [a + j * w for j in range((n - 4) * w + 1)]
            readings = [("recipe", base)]
        else:
            cols = [a + j * w * (n - 3) for a in c1
                    for j in range(n - 3) if j != m - 2]
            off = m - 1 if i == m else m
            cols += [off + l * w + (m - 2) * w * (n - 3) for l in range(n - 3)]
            cols = sorted(set(cols))
            readings = _phi2_row_readings(spec, i, base)
    else:
        raise ValueError(f"unknown certificate target {target!r}")

    successes = []
    tried = []
    for name, rows in readings:
        if len(rows) != len(cols):
            tried.append(f"{name}:size-mismatch")
            continue
        det = _triangular_determinant(
            mat, [r - 1 for r in rows], [c - 1 for c in cols]
        )
        if det is not None and _is_power_of(det, i, power):
            successes.append((name, rows, det))
            tried.append(f"{name}:ok")
        else:
            tried.append(f"{name}:no")
    if not successes:
        return MinorCertificate(label, i, [], [c for c in cols], None, power,
                                "failed", tried)
    status = "ok" if len(successes) == 1 else "ambiguous"
    name, rows, det = successes[0]
    return MinorCertificate(label, i, rows, list(cols), det, power, status, tried)


def minor_reports(spec: ScrollSpec, seed: int) -> list[dict]:
    """The JSON reports of `verify --checks minors`, one per certificate.

    Every variable is certified for phi0, phi1, phi2 and each staircase(d),
    2 <= d < n; an ambiguous certificate passes, a failed one fails.
    """
    require_size(spec, "minors")
    targets = [("phi0", None), ("phi1", None), ("phi2", None)]
    targets += [("staircase", d) for d in range(2, spec.n)]
    certs = [minor_certificate(spec, target, var, d=d)
             for target, d in targets for var in range(1, spec.n + 1)]
    return [{"name": f"minor:{cert.target}:x{cert.var_index}", "target": str(spec),
             "verdict": "pass" if cert.status != "failed" else "fail",
             "details": cert.to_json_obj(), "seed": seed, "modulus": None}
            for cert in certs]


def _is_power_of(e: Element, var_index: int, power: int) -> bool:
    """True iff e is +- x_{var_index} ** power."""
    if len(e.terms) != 1:
        return False
    (mono, c), = e.terms.items()
    if c not in (1, -1):
        return False
    expected = tuple(power if j == var_index - 1 else 0
                     for j in range(len(mono)))
    return mono == expected


# -- fault injection (used to prove the checkers can fail) ----------------

def inject_fault(res: Resolution, kind: str, step: int = 3) -> Resolution:
    """Return a copy of the resolution with one mutated entry in `step` (1-based)."""
    if kind not in FAULT_KINDS:
        raise ValueError(f"unknown fault kind {kind!r}")
    idx = step - 1
    if not 0 <= idx < len(res.steps):
        raise ValueError("fault step out of range")
    ring = res.steps[idx].ring
    mutated = res.steps[idx].copy()
    (r, c), e = min(mutated.entries.items())
    if kind == "sign_flip":
        mutated.entries[(r, c)] = -e
    elif kind == "variable_swap":
        (mono, coeff), = e.terms.items()
        flat = next(j + 1 for j, x in enumerate(mono) if x)
        other = flat % res.spec.n + 1
        mutated.entries[(r, c)] = ring.var_elem(other, 1 if coeff > 0 else -1)
    else:
        mutated.entries[(r, c)] = ring.one()
    steps = list(res.steps)
    steps[idx] = mutated
    return Resolution(res.spec, res.target, steps, list(res.ranks),
                      list(res.provenance) + [f"fault:{kind}@{step}"])
