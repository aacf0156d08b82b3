"""Artifact checks for one workload repetition, against references that do
not go through levylab.

    python check.py WORKLOAD OUT_DIR

prints one JSON line: {"checks": [...], "env": {...}}. Each check names the
command whose artifact it read. References use the fractional Gaussian noise
form of the fBm increment Gram,

    G_kl = h^{2H} (|d+1|^{2H} + |d-1|^{2H} - 2 |d|^{2H}) / 2,  d = k - l,

and the exact step contraction 2 tr(G D G D^T) with D the difference of two
cell sign matrices, so they are independent of the layers being measured.
"""
import json
import math
import sys
from pathlib import Path

import numpy as np

HURST = 0.35
#: allowed deviation of a Monte Carlo estimate, in standard errors
Z_MAX = 5.0
#: relative tolerance for quantities the program computes exactly
EXACT_RTOL = 1e-10


def fgn_gram(level, hurst=HURST):
    n = 2**level
    d = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :]).astype(float)
    h2 = 2.0 * hurst
    gamma = 0.5 * (np.abs(d + 1) ** h2 + np.abs(d - 1) ** h2 - 2.0 * d**h2)
    return gamma * (2.0**-level) ** h2


def sign_matrix(level, refine):
    coarse = np.arange(2**refine) >> (refine - level)
    return 0.5 * np.sign(coarse[None, :] - coarse[:, None])


def contraction(gram, d):
    """2 tr(G D G D^T) = 2 sum((G D) * (D G)) for symmetric G."""
    return 2.0 * float(np.sum((gram @ d) * (d @ gram)))


def level_norm(gram):
    """contraction(G, A) for the sign matrix A at its own level, in O(N^2).

    (G A)[i,l] = (sum_{k<l} G[i,k] - sum_{k>l} G[i,k]) / 2, and A G = -(G A)^T
    for symmetric G and antisymmetric A; both come from one cumulative sum.
    """
    c = np.cumsum(gram, axis=1)
    ga = 0.5 * (2.0 * c - gram - c[:, -1:])
    return 2.0 * float(np.sum(ga * -ga.T))


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or not lines[0].startswith("# "):
        raise ValueError(f"{path.name}: missing config echo line")
    header = lines[1].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[2:]]


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def variance_check(out, reference):
    """Sample variance against a reference, in fourth-moment standard errors."""
    x = np.array([float(r["area"]) for r in read_csv(out / "samples.csv")])
    summary = read_json(out / "summary.json")
    centered = x - x.mean()
    m2 = float(np.mean(centered**2))
    m4 = float(np.mean(centered**4))
    stderr = math.sqrt((m4 - m2**2) / x.size)
    z = (summary["variance"] - reference) / stderr
    same = abs(summary["variance"] - float(np.var(x, ddof=1))) <= 1e-12 * reference
    ok = abs(z) <= Z_MAX and same
    return ok, (f"variance {summary['variance']:.6f} vs {reference:.6f}: {z:+.2f} stderr; "
                f"summary matches samples.csv: {same}")


def check_mc_brownian(root):
    out = root / "simulate"
    rows = read_csv(out / "cf.csv")
    worst = 0.0
    for r in rows:
        t, re, im, se = (float(r[k]) for k in ("t", "re", "im", "stderr"))
        worst = max(worst, abs(re - 1.0 / math.cosh(t)) / se, abs(im) / se)
    yield "simulate", "cf.csv vs sech(t)", worst <= Z_MAX and len(rows) == 7, \
        f"{len(rows)} points, worst deviation {worst:.2f} stderr"
    yield ("simulate", "variance vs 1 - 2^-10", *variance_check(out, 1.0 - 2.0**-10))


def check_mc_fbm(root):
    reference = 2.0 * level_norm(fgn_gram(12))
    yield ("simulate", "variance vs 2 norm_approx(12)", *variance_check(root / "simulate", reference))


def check_operators(root):
    spec = root / "spectrum"
    summary = read_json(spec / "summary.json")
    rows = read_csv(spec / "spectrum.csv")
    total = sum(int(r["multiplicity"]) * float(r["alpha"]) ** 2 for r in rows)
    reference = level_norm(fgn_gram(10))
    rel = abs(total - reference) / reference
    yield "spectrum", "symmetry_ok", summary["symmetry_ok"] is True, \
        f"violations {summary['symmetry_violations']}"
    yield "spectrum", "sum mult alpha^2 vs norm_approx(10)", rel <= EXACT_RTOL, \
        f"{total:.15g} vs {reference:.15g}, rel {rel:.1e}"

    rows = read_csv(root / "cf" / "cf.csv")
    re0 = float(rows[0]["re"]) if float(rows[0]["t"]) == 0.0 else None
    mod = max(math.hypot(float(r["re"]), float(r["im"])) for r in rows)
    im = max(abs(float(r["im"])) for r in rows)
    yield "cf", "re(0) = 1, |phi| <= 1, |im| <= 1e-12", re0 == 1.0 and mod <= 1.0 and im <= 1e-12, \
        f"re(0) {re0}, max |phi| {mod!r}, max |im| {im:.1e}"

    rows = read_csv(root / "cauchy" / "cauchy.csv")
    grams = {}
    worst = 0.0
    for r in rows:
        n, m, refine = int(r["n"]), int(r["m"]), int(r["refine"])
        gram = grams.setdefault(refine, fgn_gram(refine))
        exact = contraction(gram, sign_matrix(n, refine) - sign_matrix(m, refine))
        worst = max(worst, abs(float(r["norm_sq"]) - exact) / exact)
    yield "cauchy", "rows vs 2 tr(G D G D^T)", worst <= EXACT_RTOL and len(rows) == 7, \
        f"{len(rows)} rows, worst rel {worst:.1e}"

    verdicts = {r["verdict"] for r in read_csv(root / "pvar" / "pvar.csv")}
    yield "pvar", "verdict Stabilizing", verdicts == {"Stabilizing"}, f"verdicts {sorted(verdicts)}"


CHECKS = {"mc_brownian": check_mc_brownian, "mc_fbm": check_mc_fbm, "operators": check_operators}


def numpy_env():
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "numpy": np.__version__,
        **{lib: f"{deps.get(lib, {}).get('name', '?')} {deps.get(lib, {}).get('version', '?')}"
           for lib in ("blas", "lapack")},
    }


def main(argv):
    workload, root = argv[0], Path(argv[1])
    checks = []
    try:
        for command, name, ok, detail in CHECKS[workload](root):
            checks.append({"command": command, "name": name, "ok": bool(ok), "detail": detail})
    except (OSError, ValueError, KeyError, IndexError) as exc:
        checks.append({"command": None, "name": "artifacts readable", "ok": False,
                       "detail": f"{type(exc).__name__}: {exc}"})
    print(json.dumps({"checks": checks, "env": numpy_env()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
