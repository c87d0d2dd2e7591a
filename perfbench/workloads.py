"""Seeded problem specs for each benchmark workload, and the checks that
decide whether a report is correct.

Nothing here imports monodeform: specs are plain JSON, exactly what a user
would hand to `monodeform run`, and every check reads the JSON report.  Each
check compares against a reference that shares no code with the method that
produced the number (Gauss's local exponents, Liouville's determinant
formula, the closed-form jump laws) or against the report's own oracle
residuals at the acceptance-suite tolerances.
"""

from __future__ import annotations

import cmath
import math
import random

WORKLOADS = ("cocycle-jumps", "spectral-profiles", "cli-sweep")

# Specs stay this far from the integers in c and c-a-b, where the local
# bases at 0 and 1 degenerate.
INT_MARGIN = 0.1

# Rounds in a fixed-length (traced) pass, about 5 to 12 s of untraced work.
# A timed run completes at least these rounds too, and reads its peak
# resident memory after them, so that memory is measured over the same
# work however fast the machine is.
FIXED_ROUNDS = {
    "cocycle-jumps": 2,
    "spectral-profiles": 1,
    "cli-sweep": 3,
}

# acceptance-suite tolerances; the determinant check borrows the eigenvalue one
EIG_TOL = 1e-6
DET_TOL = 1e-6
CLOSED_FORM_TOL = 1e-6
COCYCLE_TOL = 1e-7
CONSTANCY_TOL = 1e-7
TRIANGLE_TOL = 1e-8
HIERARCHY_TOL = 1e-6

_ZERO = {"num": [], "den": [[1.0, 0.0]]}


def _poly(coeffs) -> list[list[float]]:
    return [[float(v), 0.0] for v in coeffs]


def _corner(num, den=(1.0,)) -> list:
    """Perturbation matrix with H[1][0] = num/den and zeros elsewhere: the
    companion-corner coupling, which is traceless."""
    return [[_ZERO, _ZERO], [{"num": _poly(num), "den": _poly(den)}, _ZERO]]


def _frac_dist(v: float) -> float:
    return abs(v - round(v))


def _triple(rng: random.Random, spectral: bool = False,
            c_range: tuple[float, float] = (0.15, 1.85)) -> tuple[float, float, float]:
    """(a, b, c) with c and c-a-b at least INT_MARGIN from the integers.

    Spectral triples also need -1/3 < c - a - b < 1 (with the margin): the
    weight omega = x^(c-1) (1-x)^(a+b-c) must be integrable, and near 1
    |y1|^4 omega ~ (1-x)^(3(c-a-b)), which the shift bound integrates.
    """
    while True:
        a = round(rng.uniform(0.1, 0.9), 6)
        b = round(rng.uniform(0.1, 0.9), 6)
        c = round(rng.uniform(*c_range), 6)
        s = c - a - b
        if _frac_dist(c) < INT_MARGIN or _frac_dist(s) < INT_MARGIN:
            continue
        if spectral and not -1.0 / 3.0 + INT_MARGIN < s < 1.0 - INT_MARGIN:
            continue
        return a, b, c


def _hyp(t) -> dict:
    a, b, c = t
    return {"hypergeometric": {"a": a, "b": b, "c": c}}


def _monodromy_spec(rng: random.Random) -> dict:
    t = _triple(rng)
    pert = {"kind": "meromorphic", "H": _corner([round(rng.uniform(0.5, 1.5), 6)]), "rho": 1e-3}
    return {"equation": _hyp(t), "task": "monodromy", "basis": {"type": "frobenius0"},
            "perturbation": pert, "numerics": {"tol": 1e-10}}


def _cocycle_spec(rng: random.Random, kind: str) -> dict:
    k = round(rng.uniform(0.5, 1.5), 6)
    if kind == "meromorphic":
        # 1/(x(1-x)): C(0) exists, so the jump at 0 anchors at zero; the loop
        # around 1 leaves the series zone and runs the ODE route.  The
        # integrand then grows like x^-|1-c| at 0, and the fixed-depth
        # geometric head (44 panels, ratio 1/4) leaves an error near
        # 4^(-44 (1-|1-c|)): the constancy residual passes 1e-7 once |1-c|
        # exceeds about 0.72, so c stays within 0.6 of 1.
        t = _triple(rng, c_range=(0.4, 1.6))
        return {"equation": _hyp(t), "task": "cocycle",
                "perturbation": {"kind": kind, "H": _corner([k], [0.0, 1.0, -1.0]), "rho": 1e-3}}
    t = _triple(rng)
    pert = {"kind": kind, "H": _corner([k]), "rho": 1e-3}
    if kind == "power":
        pert["lambda"] = round(rng.uniform(0.2, 0.8), 6)
    return {"equation": _hyp(t), "task": "cocycle", "perturbation": pert, "centers": [0.0]}


def _spectral_group(rng: random.Random) -> list[dict]:
    """One triple shared by a series spec and six eigenvalue shifts, the
    pattern of scripts/eigenshift_profiles.py: the profiles one, x and
    x(1-x), plus three seeded quadratics.  Five of the seven ops are
    warm-cache shifts, so the median op sits inside that cluster rather
    than between it and the cold first shift.  The `density` profile is
    left out: its shift integrand |y1|^4 omega^2 is integrable only for
    1/2 < c and c-a-b < 1/2."""
    t = _triple(rng, spectral=True)
    p0, p1 = (round(rng.uniform(0.5, 1.5), 6) for _ in range(2))
    series = {"equation": _hyp(t), "task": "series",
              "perturbation": {"kind": "meromorphic",
                               "H": _corner([p0, p1], [0.0, 1.0, -1.0]), "rho": 1e-3},
              "numerics": {"K": 2, "tol": 1e-11}, "samples": 7}
    profiles = [{"name": n} for n in ("one", "x", "x(1-x)")]
    for _ in range(3):
        profiles.append({"poly": _poly(round(rng.uniform(-1.0, 1.0), 6) for _ in range(3))})
    # 24 nodes per geometric panel is the library's own shift default
    shifts = [{"equation": _hyp(t), "task": "eigenshift", "f": f, "numerics": {"nodes": 24}}
              for f in profiles]
    return [series] + shifts


def _cli_sweep(rng: random.Random) -> dict:
    return {"sweep": [_monodromy_spec(rng),
                      _cocycle_spec(rng, "power")]}


def rounds(workload: str, seed: int):
    """Endless, seed-determined sequence of rounds of op inputs: each round
    is a list of specs (for cli-sweep, of sweep file bodies) with the
    workload's full task mix, so a run made of whole rounds always has the
    same mix."""
    rng = random.Random(f"{workload}/{seed}")
    while True:
        if workload == "cocycle-jumps":
            yield [_cocycle_spec(rng, kind) for kind in ("power", "log", "meromorphic")]
        elif workload == "spectral-profiles":
            yield _spectral_group(rng)
        elif workload == "cli-sweep":
            yield [_cli_sweep(rng)]
        else:
            raise ValueError(f"unknown workload {workload!r}")


def op_label(spec: dict) -> str:
    if "sweep" in spec:
        return "sweep"
    task = spec["task"]
    if task in ("monodromy", "cocycle"):
        return f"{task}/{spec['perturbation']['kind']}"
    if task == "eigenshift":
        f = spec["f"]
        return f"eigenshift/{f.get('name', 'poly')}"
    return task


# --- checks --------------------------------------------------------------------


def _c(pair) -> complex:
    return complex(pair[0], pair[1])


def _matrix(m) -> list[list[complex]]:
    n = m["dim"]
    flat = [_c(p) for p in m["data"]]
    return [flat[i * n:(i + 1) * n] for i in range(n)]


def _det2(m) -> complex:
    (p, q), (r, s) = _matrix(m)
    return p * s - q * r


def _pair_err(got: list[complex], want: list[complex]) -> float:
    """Distance between two 2-element multisets under the better pairing."""
    g0, g1 = got
    w0, w1 = want
    return min(max(abs(g0 - w0), abs(g1 - w1)), max(abs(g0 - w1), abs(g1 - w0)))


def _exponent_eigs(h: dict, center: complex) -> list[complex]:
    """Monodromy eigenvalues from Gauss's local exponents (DLMF 15.10):
    {0, 1-c} at 0 and {0, c-a-b} at 1."""
    a, b, c = (complex(h[k]) for k in ("a", "b", "c"))
    rho = 1 - c if abs(center) < 0.5 else c - a - b
    return [1.0 + 0j, cmath.exp(2j * math.pi * rho)]


def _check_monodromy(spec, rep) -> list[str]:
    errs = []
    h = spec["equation"]["hypergeometric"]
    for entry in rep["results"]["monodromies"]:
        center = _c(entry["center"])
        want = _exponent_eigs(h, center)
        got = [_c(e) for e in entry["eigenvalues"]]
        err = _pair_err(got, want)
        if not err <= EIG_TOL:
            errs.append(f"monodromy eigenvalues at {center} off by {err:.3e}")
        if "perturbed_matrix" in entry:
            # Liouville: det W' = tr(A + rho B) det W and tr B = 0, so the
            # perturbed monodromy keeps det = product of the exponentials
            d = abs(_det2(entry["perturbed_matrix"]) - want[0] * want[1])
            if not d <= DET_TOL:
                errs.append(f"perturbed monodromy determinant at {center} off by {d:.3e}")
    return errs


def _check_cocycle(spec, rep) -> list[str]:
    errs = []
    kind = spec["perturbation"]["kind"]
    jumps = rep["results"]["jumps"]
    want = len(spec.get("centers", [0.0, 1.0]))
    if len(jumps) != want:
        errs.append(f"{len(jumps)} jumps for {want} centers")
    for j in jumps:
        for cmp in j.get("closed_form", []):
            if not cmp["closed_form_rel_err"] <= CLOSED_FORM_TOL:
                errs.append(f"closed_form_rel_err {cmp['closed_form_rel_err']:.3e}")
        if kind == "meromorphic" and j["anchor"] == "zero":
            if not j["constancy_residual"] <= CONSTANCY_TOL:
                errs.append(f"constancy_residual {j['constancy_residual']:.3e}")
    if kind in ("power", "log") and not any(j.get("closed_form") for j in jumps):
        errs.append("no closed-form comparison for a multivalued jump")
    if kind == "meromorphic" and want >= 2:
        r = rep["diagnostics"].get("cocycle_identity_residual")
        if r is None or not r <= COCYCLE_TOL:
            errs.append(f"cocycle_identity_residual {r}")
    return errs


def _check_eigenshift(spec, rep) -> list[str]:
    r = rep["diagnostics"]["hierarchy_residual_l2"]
    return [] if r <= HIERARCHY_TOL else [f"hierarchy_residual_l2 {r:.3e}"]


def _check_series(spec, rep) -> list[str]:
    tri = rep["diagnostics"]["oracle_triangle"]
    worst = max(v for e in tri for k, v in e.items() if k != "x")
    return [] if worst <= TRIANGLE_TOL else [f"oracle_triangle {worst:.3e}"]


_CHECKS = {
    "monodromy": _check_monodromy,
    "cocycle": _check_cocycle,
    "eigenshift": _check_eigenshift,
    "series": _check_series,
}


def check_report(spec: dict, rep: dict) -> list[str]:
    """Failed checks for one parsed report (an empty list means correct)."""
    if "sweep" in spec:
        got = rep.get("sweep", [])
        if len(got) != len(spec["sweep"]):
            return [f"sweep returned {len(got)} of {len(spec['sweep'])} reports"]
        return [e for s, r in zip(spec["sweep"], got) for e in check_report(s, r)]
    if rep.get("inputs") != spec:
        return ["report does not echo its inputs"]
    return _CHECKS[spec["task"]](spec, rep)
