"""Output checks against computations made apart from multiflow.

Every check reads the files a job wrote and compares them with an oracle
that shares no code with the program: ``mpmath`` quadrature and special
functions, ``scipy.special.hyp1f1`` in a tensor Gauss rule of our own, or an
exact law of the walker.  ``check_job`` returns a list of failure messages;
an empty list means the output passed.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from scipy import special

# The dispersion promises 1e-7 relative accuracy; the ordinary-model trace
# refines its Gauss rule until coarse and fine agree to 1e-7.
FLOW_RTOL = 1e-7
CLOSED_RTOL = 1e-12
KERNEL_RTOL = 1e-7
PDF_RTOL = 1e-9
# An MSD row may sit this many of its own standard errors from the exact law.
# A run checks 640 correlated rows; over 25 seeds the largest |z| seen was 4.4.
MSD_MAX_Z = 5.5
ORACLE_DPS = 20


def read_csv(path: str) -> dict:
    """Parse a multiflow CSV into kind, header metadata, columns, rows, footer."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    first = lines[0].split()
    if first[:3] != ["#", "multiflow-csv", "v1"] or len(first) != 4:
        raise ValueError(f"{path}: bad schema line {lines[0]!r}")
    meta, footer, rows, columns = {}, {}, [], None
    for line in lines[1:]:
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            (meta if columns is None else footer)[key] = value
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return {"kind": first[3], "meta": meta, "columns": columns, "rows": rows, "footer": footer}


def _column(table: dict, name: str) -> np.ndarray:
    idx = table["columns"].index(name)
    return np.array([float(r[idx]) for r in table["rows"]])


def _relerr(got: np.ndarray, want: np.ndarray) -> np.ndarray:
    return np.abs(np.asarray(got) - np.asarray(want)) / np.abs(np.asarray(want))


def _worst(name: str, got, want, tol: float, errors: list[str]) -> None:
    err = _relerr(got, want)
    i = int(np.argmax(err))
    if not err[i] <= tol:
        errors.append(f"{name}: relative error {err[i]:.3e} > {tol:.0e} at row {i}")


def _grid_check(sigmas: np.ndarray, lo: float, hi: float, n: int, errors: list[str]) -> None:
    if sigmas.size != n:
        errors.append(f"expected {n} rows, found {sigmas.size}")
        return
    _worst("sigma grid", sigmas, np.geomspace(lo, hi, n), 1e-13, errors)


# --------------------------------------------------------------------- flow

_GL16 = np.polynomial.legendre.leggauss(16)


def binomial_integral_oracle(beta_star: float, lstar: float, sigmas: np.ndarray) -> np.ndarray:
    """int_0^sigma ds / (1 + (s/lstar)^(beta*-1)) at every grid sigma.

    The head [0, sigma_0] is an mpmath tanh-sinh quadrature split by decades;
    the rest is a 16-node Gauss-Legendre rule on each grid interval (the
    integrand is smooth there), summed cumulatively.
    """
    power = beta_star - 1.0
    with mp.workdps(ORACLE_DPS):
        s0 = mp.mpf(sigmas[0])
        pts = [mp.mpf(0)] + [s0 * mp.mpf(10) ** (-k) for k in range(16, 0, -1)] + [s0]
        head = float(mp.quad(lambda s: 1 / (1 + (s / lstar) ** power), pts))
    nodes, weights = _GL16
    mid = 0.5 * (sigmas[1:] + sigmas[:-1])[:, None]
    half = 0.5 * (sigmas[1:] - sigmas[:-1])[:, None]
    s = mid + half * nodes[None, :]
    pieces = np.sum(half * weights[None, :] / (1.0 + (s / lstar) ** power), axis=1)
    return head + np.concatenate(([0.0], np.cumsum(pieces)))


def binomial_integral_mpmath(beta_star: float, lstar: float, sigma: float) -> float:
    """The same integral at one sigma, wholly by mpmath."""
    with mp.workdps(ORACLE_DPS):
        s = mp.mpf(sigma)
        pts = [mp.mpf(0)] + [s * mp.mpf(10) ** (-k) for k in range(24, 0, -1)] + [s]
        return float(mp.quad(lambda t: 1 / (1 + (t / lstar) ** (beta_star - 1.0)), pts))


def check_flow(job) -> list[str]:
    p = job.params
    errors: list[str] = []
    table = read_csv(job.outputs[0])
    if table["kind"] != "flow" or table["columns"] != ["sigma", "ell2", "ds", "d_w", "model"]:
        return [f"not a flow file: kind {table['kind']}, columns {table['columns']}"]
    sig = _column(table, "sigma")
    _grid_check(sig, p["sigma_min"], p["sigma_max"], p["points"], errors)
    if errors:
        return errors
    ell2, ds, dw = (_column(table, c) for c in ("ell2", "ds", "d_w"))
    models = {r[4] for r in table["rows"]}
    dim, kappa, lstar, bs = p["dim"], p["kappa"], p["lstar"], p["beta_star"]
    meta = table["meta"]

    if p["model"] == "q":
        # terms (lstar^(1-beta*), beta*) and (1, 1); d_H = D at alpha = 1
        g = lstar ** (1.0 - bs)
        num = g * bs * sig ** bs + sig
        den = g * sig ** bs + sig
        want_ds = dim * num / den
        _worst("ell2", ell2, kappa * den, CLOSED_RTOL, errors)
        _worst("ds", ds, want_ds, CLOSED_RTOL, errors)
        _worst("d_w", dw, 2.0 * dim / want_ds, CLOSED_RTOL, errors)
        uv, ir = dim * bs, float(dim)
    else:
        base = lstar ** 2 if p["fuzzy"] else 0.0
        want_ell2 = base + kappa * binomial_integral_oracle(bs, lstar, sig)
        for i in (0, sig.size // 3, 2 * sig.size // 3, sig.size - 1):
            full = base + kappa * binomial_integral_mpmath(bs, lstar, float(sig[i]))
            _worst(f"ell2 row {i} against mpmath", ell2[i : i + 1], [full], FLOW_RTOL, errors)
        v = 1.0 + (sig / lstar) ** (bs - 1.0)
        want_ds = dim * kappa * sig / (v * want_ell2)
        _worst("ell2", ell2, want_ell2, FLOW_RTOL, errors)
        _worst("ds", ds, want_ds, FLOW_RTOL, errors)
        _worst("d_w", dw, 2.0 * dim / want_ds, FLOW_RTOL, errors)
        if p["fuzzy"]:
            uv, ir = 0.0, float(dim)
        elif bs < 1.0:
            uv, ir = dim * (2.0 - bs), float(dim)
        else:
            uv, ir = float(dim), dim * (2.0 - bs)
    if models != {p["model"]}:
        errors.append(f"model column {sorted(models)} != {p['model']}")
    for key, want in (("uv_asymptote", uv), ("ir_asymptote", ir)):
        if abs(float(meta.get(key, "nan")) - want) > 1e-12 * max(1.0, abs(want)):
            errors.append(f"{key} = {meta.get(key)} != {want}")
    if meta.get("dim") != str(dim) or meta.get("fuzzy") != ("true" if p["fuzzy"] else "false"):
        errors.append(f"metadata dim/fuzzy {meta.get('dim')}/{meta.get('fuzzy')} do not match")
    return errors


# ------------------------------------------------------------------- kernel


def _box(ell: float, lstar: float) -> float:
    return max(12.0 * ell, 10.0 * lstar)


def _fractional_part(f, alpha: float, upper, breaks) -> mp.mpf:
    """int_0^upper x^(alpha-1) f(x) dx, integrated in u = x^alpha."""
    pts = [mp.mpf(0)] + [b ** alpha for b in breaks if b < upper] + [upper ** alpha]
    return mp.quad(lambda u: f(u ** (1 / alpha)), pts) / alpha


def trace_d1_mpmath(alpha: float, sigma: float, kappa: float, lstar: float,
                    multiscale: bool) -> float:
    """One-dimensional ordinary-model trace int v(x) C(x, sigma) dx / vol_H(box).

    C(x)^-1 is the closed Kummer form of int v(y) exp(-(y-x)^2/(4 ell^2)) dy
    with ell^2 = kappa sigma (beta = nu = 1).  Fixed charge: v = |x|^(a-1)/G(a);
    binomial profile: v = 1 + lstar^(1-a) |x|^(a-1)/G(a).
    """
    with mp.workdps(ORACLE_DPS):
        a = mp.mpf(alpha)
        ell2 = kappa * mp.mpf(sigma)
        ell = mp.sqrt(ell2)
        big = _box(float(ell), lstar)
        big = mp.mpf(big)
        kummer = mp.gamma(a / 2) / mp.gamma(a) * (2 * ell) ** a

        def phi(x):
            return mp.hyp1f1((1 - a) / 2, mp.mpf(1) / 2, -(x * x) / (4 * ell2))

        breaks = [ell * k for k in (1, 2, 4, 8, 16)]
        if multiscale:
            gauss = mp.sqrt(4 * mp.pi * ell2)
            frac = lstar ** (1 - a) * kummer  # lstar (2 ell/lstar)^a G(a/2)/G(a)

            def c(x):
                return 1 / (gauss + frac * phi(x))

            const = mp.quad(c, [mp.mpf(0)] + [b for b in breaks if b < big] + [big])
            fractional = _fractional_part(c, a, big, breaks) * lstar ** (1 - a) / mp.gamma(a)
            volume = 2 * big + lstar ** (1 - a) * 2 * big ** a / mp.gamma(a + 1)
            return float(2 * (const + fractional) / volume)

        def c(x):
            return 1 / (kummer * phi(x))

        total = 2 * _fractional_part(c, a, big, breaks) / mp.gamma(a)
        return float(total / (2 * big ** a / mp.gamma(a + 1)))


def _axis_rule(upper: float, transition: float, alpha: float | None):
    """Composite 24-node Gauss rule on [0, upper]; in u = x^alpha if alpha is set.

    Returns x nodes and weights of int_0^upper h(x) dx (or of
    int_0^upper x^(alpha-1) h(x) dx when alpha is set).
    """
    edges = [0.0]
    step = transition / 64.0
    while step < upper:
        edges.append(step)
        step *= 1.5
    edges.append(upper)
    edges = np.array(edges)
    if alpha is not None:
        edges = edges ** alpha
    nodes, weights = np.polynomial.legendre.leggauss(24)
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    u = (mid + half * nodes).ravel()
    w = (half * weights).ravel()
    if alpha is None:
        return u, w
    return u ** (1.0 / alpha), w / alpha


def trace_multiscale_tensor(dim: int, alpha: float, sigma: float, kappa: float,
                            lstar: float) -> float:
    """Ordinary-model trace with a binomial spatial profile, any dimension.

    Tensor product of per-axis composite Gauss rules over the positive
    orthant (the integrand is even in every coordinate), with Kummer's
    function from ``scipy.special.hyp1f1``.  The normalization keeps the two
    extreme terms of the expanded product measure, as the program documents.
    """
    ell2 = kappa * sigma
    ell = math.sqrt(ell2)
    big = _box(ell, lstar)
    gamma_a = math.gamma(alpha)
    coeff = lstar ** dim * (math.gamma(alpha / 2) / gamma_a * (2 * ell / lstar) ** alpha) ** dim
    gauss = (4 * math.pi * ell2) ** (dim / 2)
    rules = []
    for frac in (False, True):
        x, w = _axis_rule(big, ell, alpha if frac else None)
        if frac:
            w = w * lstar ** (1 - alpha) / gamma_a
        phi = special.hyp1f1((1 - alpha) / 2, 0.5, -(x * x) / (4 * ell2))
        rules.append((phi, w))
    total = 0.0
    for combo in np.ndindex(*(2,) * dim):
        phi_grid = rules[combo[0]][0]
        w_grid = rules[combo[0]][1]
        for k in combo[1:]:
            phi_grid = np.multiply.outer(phi_grid, rules[k][0])
            w_grid = np.multiply.outer(w_grid, rules[k][1])
        total += float(np.sum(w_grid / (gauss + coeff * phi_grid)))
    per_axis = 2 * big + lstar ** (1 - alpha) * 2 * big ** alpha / math.gamma(alpha + 1)
    return 2 ** dim * total / per_axis ** dim


def check_kernel(job, d1_oracle: dict) -> list[str]:
    """``d1_oracle`` caches the D = 1 fixed-charge oracle by (alpha, sigma)."""
    p = job.params
    errors: list[str] = []
    table = read_csv(job.outputs[0])
    if table["kind"] != "kernel" or table["columns"] != ["sigma", "Z", "convention"]:
        return [f"not a kernel file: kind {table['kind']}, columns {table['columns']}"]
    sig = _column(table, "sigma")
    _grid_check(sig, p["sigma_min"], p["sigma_max"], p["points"], errors)
    if errors:
        return errors
    z = _column(table, "Z")
    if not np.all(np.diff(z) < 0.0) or not np.all(z > 0.0):
        errors.append("Z is not positive and strictly decreasing")
    if {r[2] for r in table["rows"]} != {"per-hausdorff-volume"}:
        errors.append("convention column is not per-hausdorff-volume")
    dim, alpha, kappa, lstar = p["dim"], p["alpha"], p["kappa"], p["lstar"]
    if p["multiscale"]:
        if dim == 1:
            want = [trace_d1_mpmath(alpha, s, kappa, lstar, True) for s in sig]
        else:
            want = [trace_multiscale_tensor(dim, alpha, s, kappa, lstar) for s in sig]
        _worst(f"Z (multiscale, D={dim})", z, want, KERNEL_RTOL, errors)
        return errors
    # The fixed-charge trace factorises: Z_D(sigma) = Z_1(sigma)^D.
    want = []
    for s in sig:
        key = (alpha, round(math.log(s), 9))
        if key not in d1_oracle:
            d1_oracle[key] = trace_d1_mpmath(alpha, s, kappa, lstar, False)
        want.append(d1_oracle[key] ** dim)
    _worst(f"Z (D={dim})", z, want, KERNEL_RTOL * dim, errors)
    return errors


def check_pdf(job) -> list[str]:
    p = job.params
    errors: list[str] = []
    table = read_csv(job.outputs[0])
    if table["kind"] != "pdf" or table["columns"] != ["x", "density", "model"]:
        return [f"not a pdf file: kind {table['kind']}, columns {table['columns']}"]
    x = _column(table, "x")
    grid = np.linspace(-p["x_max"], p["x_max"], p["x_points"])
    if x.size != grid.size or np.any(np.abs(x - grid) > 1e-15):
        return ["x grid does not match"]
    rho = _column(table, "density")
    alpha, x0 = p["alpha"], p["x0"]
    ell2 = p["kappa"] * p["sigma"]
    with mp.workdps(ORACLE_DPS):
        # C^-1 = int |y|^(a-1)/G(a) exp(-(y-x0)^2/(4 ell^2)) dy, by quadrature
        # in u = |y|^a, which removes the singularity at y = 0
        def g(y):
            return mp.exp(-((y - x0) ** 2) / (4 * ell2))

        inv = mp.quad(lambda u: g(u ** (1 / alpha)) + g(-(u ** (1 / alpha))), [0, 1, mp.inf])
        c = float(alpha * mp.gamma(alpha) / inv)
    want = c * np.exp(-((x - x0) ** 2) / (4.0 * ell2))
    _worst("density", rho, want, PDF_RTOL, errors)
    if {r[2] for r in table["rows"]} != {"ordinary"}:
        errors.append("model column is not ordinary")
    return errors


# ------------------------------------------------------------------- walker


def msd_law(p: dict, sig: np.ndarray) -> np.ndarray:
    """Exact mean squared displacement of each walker process."""
    dim, kappa = p["dim"], p["kappa"]
    process = p["process"]
    if process == "bm":
        return 2 * dim * kappa * sig
    if process == "sbm":
        return 2 * dim * kappa * sig ** p["nu"]
    if process == "fsbm-v" and "beta_star" in p:
        return 2 * dim * kappa * sig / (1.0 + (sig / p["lstar"]) ** (p["beta_star"] - 1.0))
    if process == "fsbm-v":
        beta = p["beta"]
        return 2 * dim * kappa * math.gamma(beta) * sig ** (2.0 - beta)
    if process == "fsbm-q":
        # x = sgn(Q) (G(a+1)|Q|)^(1/a), Q ~ N(0, 2 kappa sigma^beta)
        alpha, beta = p["alpha"], p["beta"]
        q = 2.0 / alpha
        gauss_moment = 2 ** (q / 2) * math.gamma((q + 1) / 2) / math.sqrt(math.pi)
        var = 2 * kappa * sig ** beta
        return dim * math.gamma(alpha + 1) ** q * var ** (q / 2) * gauss_moment
    raise ValueError(f"no exact law for process {process!r}")


def check_walker(job) -> list[str]:
    p = job.params
    errors: list[str] = []
    table = read_csv(job.outputs[0])
    if table["kind"] != "msd" or table["columns"] != ["sigma", "msd", "stderr"]:
        return [f"not an msd file: kind {table['kind']}, columns {table['columns']}"]
    sig = _column(table, "sigma")
    _grid_check(sig, p["sigma_min"], p["sigma_max"], p["steps"], errors)
    if errors:
        return errors
    meta = table["meta"]
    for key in ("process", "dim", "paths", "seed"):
        if meta.get(key) != str(p[key]):
            errors.append(f"metadata {key} = {meta.get(key)} != {p[key]}")
    msd, stderr = _column(table, "msd"), _column(table, "stderr")
    if not np.all(stderr > 0.0):
        return errors + ["non-positive stderr"]
    zs = (msd - msd_law(p, sig)) / stderr
    i = int(np.argmax(np.abs(zs)))
    if not abs(zs[i]) <= MSD_MAX_Z:
        errors.append(f"msd row {i} is {zs[i]:+.2f} standard errors from its exact law")

    traj = read_csv(job.outputs[1])
    want_cols = ["path_id", "step", "sigma"] + [f"x_{k + 1}" for k in range(p["dim"])]
    if traj["kind"] != "trajectory" or traj["columns"] != want_cols:
        return errors + ["trajectory file has the wrong kind or columns"]
    rows = np.array([[float(c) for c in r] for r in traj["rows"]])
    n_paths = min(p["traj_paths"], p["paths"])
    if rows.shape != (n_paths * p["steps"], len(want_cols)):
        return errors + [f"trajectory file has shape {rows.shape}"]
    ids = np.repeat(np.arange(n_paths), p["steps"])
    steps = np.tile(np.arange(p["steps"]), n_paths)
    if np.any(rows[:, 0] != ids) or np.any(rows[:, 1] != steps):
        errors.append("trajectory path ids or steps are out of order")
    if np.any(rows[:, 2] != sig[steps]) or not np.all(np.isfinite(rows[:, 3:])):
        errors.append("trajectory sigmas differ from the msd grid or positions are not finite")
    return errors


def check_jobs(jobs) -> dict[str, list[str]]:
    """Check every job's outputs; returns failure messages by job name."""
    d1_oracle: dict = {}
    report = {}
    for job in jobs:
        try:
            if job.command == "flow":
                errors = check_flow(job)
            elif job.command == "kernel":
                errors = check_kernel(job, d1_oracle)
            elif job.command == "pdf":
                errors = check_pdf(job)
            else:
                errors = check_walker(job)
        except (OSError, ValueError, IndexError) as exc:
            errors = [f"unreadable output: {exc}"]
        report[job.name] = errors
    return report
