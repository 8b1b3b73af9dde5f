"""Output checks, computed apart from the program.

Runs in the parent process after the measured worker has exited, so numpy,
scipy and mpmath here never count toward set-up time or peak memory.  Never
imports ngfiber: every reference below is this file's own computation from
the operation's inputs (a log-gamma series for the state, closed forms for
the visibility, the thermally averaged fidelity and the T = 0 rate, mpmath's
trigamma for the finite-T rate,
scipy's action of exp(-i H tau) on a vector for the pulse sequence) or a
property the method must have.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np
from scipy.special import gammaln

from workloads import OMEGA_C

HBAR = 1.054571817e-34  # J s
K_B = 1.380649e-23  # J / K
C_LIGHT = 3.0e8  # m/s, the package's documented rounded value

# The program truncates the state where the |c_n|^2 tail T drops below 1e-12
# and renormalizes; the reference series below runs to 1e-40.  Dropping the
# tail moves the negativity by about sqrt(T) (1 + lambda) / lambda relative.
TAIL_TOL = 1e-12
DENSE_ATOL = 1e-9  # dense eigensolver against the same-truncation series
GAMMA_RTOL = 1e-10  # today the quadrature agrees with the trigamma form to ~1e-11
ELEMENT_ATOL = 1e-12  # evolve_with_dissipation elements, which are at most 1
PSI_ATOL = 1e-9
NORM_ATOL = 1e-10
DESIGN_RTOL = 1e-9


def abs_coeffs(p, lam, n_max=None):
    """|c_n| of the normalized state, n = 0..n_max (default: until |c_n|^2 < 1e-40)."""
    n_top = n_max if n_max is not None else 64
    while True:
        k = np.arange(n_top + 1)
        log_a = (k + p) * math.log(lam) + 0.5 * (gammaln(k + p + 1) - gammaln(k + 1))
        if n_max is not None or (log_a[-1] < log_a.max() - 46.0 and log_a[-1] < log_a[-2]):
            break
        n_top *= 2
    a = np.exp(log_a - log_a.max())
    return a / math.sqrt(float(np.sum(a * a)))


def autocorr(a):
    """A_k = sum_n a_n a_{n+k} for k = 0..len(a)-1."""
    return np.correlate(a, a, mode="full")[len(a) - 1:]


def visibility(temperature, x, kmax, omega=OMEGA_C):
    """Closed-form thermal visibility 1/sqrt(1 + (sin xk / sinh a)^2), k = 0..kmax."""
    k = np.arange(kmax + 1)
    if temperature == 0.0:
        return np.ones(kmax + 1)
    a = HBAR * omega / (2.0 * K_B * temperature)
    if a > 300.0:
        return np.ones(kmax + 1)
    return 1.0 / np.sqrt(1.0 + (np.sin(x * k) / math.sinh(a)) ** 2)


def fidelity_reference(a, temperature, omega_total, gamma_plus, tau_l, omega=OMEGA_C):
    """<psi| rho(tau_l) |psi> after thermal dephasing, with the Gibbs sum in closed form.

    With B_k = sum_n |c_n|^2 |c_{n+k}|^2 and geometric weights p_s = (1-q) q^s,
    F = B_0 + 2 sum_{k>=1} B_k Re[e^(-i tau omega_total k) (1-q) / (1 - q e^(-2i tau gamma_plus k))].
    Returns F and its tolerance.  The program sums the phases
    exp(-i tau (omega_total + 2 gamma_plus s) n) level by level, this form per k;
    both round arguments up to tau (omega_total + 2 gamma_plus s) n_max, about 1e11
    rad at telecom frequencies, so each may be off by a few ulp of that times
    the mean photon number.  On top of that, both truncations (state and Gibbs
    tail below 1e-12) move F by a few 1e-12.
    """
    b = autocorr(a * a)
    k = np.arange(len(a))
    q = math.exp(-HBAR * omega / (K_B * temperature)) if temperature > 0.0 else 0.0
    geometric = (1.0 - q) / (1.0 - q * np.exp(-2j * tau_l * gamma_plus * k))
    terms = b * np.real(np.exp(-1j * (tau_l * omega_total) * k) * geometric)
    fid = float(b[0] + 2.0 * np.sum(terms[1:]))
    n_mean = float(np.sum(k * a * a))
    n_thermal = q / (1.0 - q)
    chi = omega_total + 2.0 * gamma_plus * (n_thermal + 1.0)
    return fid, 1e-11 + 32.0 * np.finfo(float).eps * tau_l * chi * (n_mean + 1.0)


def rate_closed(omega_c, tau_l):
    x = omega_c * tau_l
    return omega_c**2 * x * x * (3.0 + x * x) / (1.0 + x * x) ** 2


def rate_trigamma(omega_c, temperature, tau_l):
    """Finite-T dissipation rate from the coth expansion, in mpmath.

    2 [psi'(a/b) - Re psi'((a - i tau)/b)] / b^2 - [1/a^2 - Re (a - i tau)^-2],
    a = 1/omega_c, b = hbar / k_B T.
    """
    import mpmath

    with mpmath.workdps(30):
        a = mpmath.mpf(1) / omega_c
        b = mpmath.mpf(HBAR) / (mpmath.mpf(K_B) * temperature)
        z = mpmath.mpc(a, -tau_l)
        val = 2 * (mpmath.psi(1, a / b) - mpmath.re(mpmath.psi(1, z / b))) / b**2
        val -= 1 / a**2 - mpmath.re(z**-2)
        return float(val)


def _series(a, weights):
    """2 sum_{k>=1} weights_k A_k."""
    return 2.0 * float(np.sum(weights[1:] * autocorr(a)[1:]))


def _close(got, ref, rtol, atol=0.0):
    return abs(got - ref) <= atol + rtol * abs(ref)


def series_rtol(lam):
    """Tolerance for a truncated-state series against the untruncated one."""
    return 4.0 * math.sqrt(TAIL_TOL) * (1.0 + lam) / lam


def series_atol(lam, a):
    """Tolerance for a weighted series 2 sum w_k A_k with |w_k| <= 1.

    Truncation lowers every A_k, so it moves the weighted sum by no more
    than it moves the unweighted one.
    """
    return series_rtol(lam) * _series(a, np.ones(len(a)))


def _read_csv(path):
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(v) for v in r] for r in rows[1:]]


def _argv_value(argv, flag, default):
    return float(argv[argv.index(flag) + 1]) if flag in argv else default


class Checker:
    def __init__(self, ops, result, rundir):
        self.ops = ops
        self.result = result
        self.outdir = os.path.join(rundir, "out")
        arrays = np.load(os.path.join(rundir, "arrays.npz"))
        self.arrays = {k: arrays[k] for k in arrays.files}
        self.failures = []

    def fail(self, op, msg):
        self.failures.append(f"op {op['id']} ({op['kind']}): {msg}")

    def run(self):
        errors = self.result["errors"]
        for op in self.ops:
            i = str(op["id"])
            if i in errors:
                continue  # counted in `failed`; correctness speaks of the rest
            getattr(self, "check_" + op["kind"].replace("-", "_"))(op, i)
        return self.failures

    # -- CLI operations -------------------------------------------------------
    def _cli_ok(self, op, i):
        info = self.result["cli"][i]
        if info["exit"] != 0:
            self.fail(op, f"exit code {info['exit']}")
            return False
        if info["distinct_outputs"] != 1:
            self.fail(op, f"{info['distinct_outputs']} different outputs across repeats")
            return False
        return True

    def _out(self, i):
        return os.path.join(self.outdir, f"out-{i}")

    def check_fig1(self, op, i):
        if not self._cli_ok(op, i):
            return
        p = int(_argv_value(op["argv"], "--p", 1))
        _, rows = _read_csv(self._out(i))
        for zeta, neg in rows:
            a = abs_coeffs(p, zeta)
            ref = float(a.sum()) ** 2 - 1.0
            if p == 0 and not _close(ref, 2 * zeta / (1 - zeta), 1e-12):
                self.fail(op, f"reference series off 2 lambda/(1-lambda) at zeta {zeta}")
            if not _close(neg, ref, series_rtol(zeta)):
                self.fail(op, f"zeta {zeta}: negativity {neg} vs series {ref}")
                return

    def check_fig2(self, op, i):
        if not self._cli_ok(op, i):
            return
        argv = op["argv"]
        p = int(_argv_value(argv, "--p", 1))
        zeta = _argv_value(argv, "--zeta", 0.5)
        eps = _argv_value(argv, "--epsilon", 4.325e-12)
        omega_c = _argv_value(argv, "--omega-c", OMEGA_C)
        a = abs_coeffs(p, zeta)
        k = np.arange(len(a))
        full = _series(a, np.ones(len(a)))
        _, rows = _read_csv(self._out(i))
        for x, fluct, nofluct in rows:
            gamma = rate_closed(omega_c, x / omega_c)
            ref = _series(a, np.exp(-np.minimum(4 * eps * eps * gamma * k * k, 745.0)))
            rtol = series_rtol(zeta)
            if not (_close(fluct, ref, 0.0, rtol * full) and _close(nofluct, full, rtol)):
                self.fail(op, f"x {x}: ({fluct}, {nofluct}) vs ({ref}, {full})")
                return

    def check_sweep(self, op, i):
        if not self._cli_ok(op, i):
            return
        fixed, section = {}, None
        for line in op["config"].splitlines():
            if line.startswith("["):
                section = line.strip("[]")
            elif section == "fixed":
                key, val = line.split("=")
                fixed[key.strip()] = float(val)
        header, rows = _read_csv(self._out(i))
        for row in rows:
            v = dict(fixed)
            v.update(zip(header, row))
            p, zeta, temp = int(v.get("p", 1)), v["zeta"], v.get("temperature", 0.0)
            a = abs_coeffs(p, zeta)
            k = np.arange(len(a))
            ref = {
                "negativity": _series(a, np.ones(len(a))),
                "negativity_dephased": _series(
                    a, visibility(temp, v.get("gamma_plus", 0.0) * v["tau_l"], len(a) - 1)),
            }
            if "negativity_dissipative" in v:
                gamma = rate_closed(OMEGA_C, v["tau_l"])
                ref["negativity_dissipative"] = _series(
                    a, np.exp(-np.minimum(4 * v.get("epsilon", 0.0) ** 2 * gamma * k * k, 745.0)))
            for name, want in ref.items():
                if not _close(v[name], want, 0.0, series_atol(zeta, a)):
                    self.fail(op, f"{name} {v[name]} vs {want} at {v}")
                    return
            if "fidelity" in v:
                want, tol = fidelity_reference(a, temp, v["omega_a"] + v["omega_b"],
                                               v.get("gamma_plus", 0.0), v["tau_l"])
                if not (0.0 <= v["fidelity"] <= 1.0 and _close(v["fidelity"], want, 0.0, tol)):
                    self.fail(op, f"fidelity {v['fidelity']} vs {want} (tolerance {tol:.1e}) "
                                  f"at {v}")
                    return

    def check_design(self, op, i):
        if not self._cli_ok(op, i):
            return
        argv = op["argv"]
        length = _argv_value(argv, "--length", 1000.0)
        n_g = _argv_value(argv, "--group-index", 1.6)
        omega_c = _argv_value(argv, "--omega-c", OMEGA_C)
        budget = _argv_value(argv, "--budget", 0.05)
        with open(self._out(i), encoding="utf-8") as fh:
            report = json.load(fh)
        tau = report["chosen_spacing_m"] * n_g / C_LIGHT
        exponent = 4 * tau * tau * rate_closed(omega_c, length * n_g / C_LIGHT)
        target = math.log(1.0 / (1.0 - budget))
        if not _close(exponent, target, DESIGN_RTOL):
            self.fail(op, f"4 tau^2 Gamma = {exponent} vs ln 1/(1-delta) = {target}")

    def check_validate(self, op, i):
        if not self._cli_ok(op, i):
            return
        with open(self._out(i), encoding="utf-8") as fh:
            report = json.load(fh)
        bad = [c["name"] for c in report["checks"] if not c["passed"]]
        if bad or len(report["checks"]) < 9:
            self.fail(op, f"validate --level full: failed {bad} of {len(report['checks'])}")

    # -- library operations ---------------------------------------------------
    def _link_reference(self, op, n_max=None):
        a = abs_coeffs(op["p"], op["zeta"], n_max)
        k = np.arange(len(a))
        gamma = rate_trigamma(OMEGA_C, op["temperature"], op["tau_l"])
        v = visibility(op["temperature"], op["gamma_plus"] * op["tau_l"], len(a) - 1)
        decay = np.exp(-np.minimum(4 * op["epsilon"] ** 2 * gamma * k * k, 745.0))
        return a, v, decay, gamma

    def check_link_negativity(self, op, i):
        a, v, decay, _ = self._link_reference(op)
        got, ref = self.result["values"][i], _series(a, v * decay)
        if not _close(got, ref, 0.0, series_atol(op["zeta"], a)):
            self.fail(op, f"negativity {got} vs {ref}")

    def check_link_evolve(self, op, i):
        rho = self.arrays[f"rho-{i}"]
        a, v, decay, gamma = self._link_reference(op, rho.shape[0] - 1)
        n = np.arange(len(a))
        dn = np.abs(n[:, None] - n[None, :])
        ref = np.outer(a, a) * (v * decay)[dn]
        err = float(np.max(np.abs(np.abs(rho) - ref)))
        if err > ELEMENT_ATOL:
            self.fail(op, f"|rho_nm| off |c_n||c_m| v_k exp(-4 eps^2 Gamma k^2) by {err:.3e}")
            return
        # the rate itself, read off the leading coherence
        e1 = -math.log(abs(rho[0, 1]) / (a[0] * a[1] * v[1]))
        got = e1 / (4 * op["epsilon"] ** 2)
        if not _close(got, gamma, GAMMA_RTOL):
            self.fail(op, f"Gamma(T) {got} vs trigamma form {gamma}")

    def check_pt(self, op, i):
        a = abs_coeffs(op["p"], op["zeta"], op["n_max"])
        if op["dephased"]:
            ref = _series(a, visibility(op["temperature"], op["gamma_plus"] * op["tau_l"],
                                        len(a) - 1))
        else:
            ref = float(a.sum()) ** 2 - 1.0
        got = self.result["values"][i]
        if not _close(got, ref, 0.0, DENSE_ATOL):
            self.fail(op, f"dense negativity {got} vs series {ref}")

    def check_bb(self, op, i):
        from scipy.sparse import csr_matrix
        from scipy.sparse.linalg import expm_multiply

        psi = self.arrays[f"psi-{i}"]
        if abs(np.linalg.norm(psi) - 1.0) > NORM_ATOL:
            self.fail(op, f"joint norm {np.linalg.norm(psi)!r}")
            return
        system, bath, psi_ref = _bb_model(op)
        h = None
        for s in range(op["segments"]):
            if h is None or "g_scales" in op:
                h = csr_matrix(-1j * op["tau"] * _bb_hamiltonian(op, system, bath, s))
            if op["protected"]:
                psi_ref = system["pi"] * psi_ref
            psi_ref = expm_multiply(h, psi_ref)
        err = float(np.max(np.abs(psi - psi_ref)))
        if err > PSI_ATOL:
            self.fail(op, f"propagated state off the exp(-i H tau) product by {err:.3e}")


def _bb_model(op):
    """Basis, operators and initial state of a bang-bang op, built here."""
    cut, p = op["cut"], op["p"]
    basis = [(na, tot - na) for tot in range(cut + 1) for na in range(tot + 1)]
    index = {b: j for j, b in enumerate(basis)}
    dim = len(basis)
    na = np.array([b[0] for b in basis], dtype=float)
    nb = np.array([b[1] for b in basis], dtype=float)
    raman = np.zeros((dim, dim))  # a+ b
    for j, (x, y) in enumerate(basis):
        if y > 0:
            raman[index[(x + 1, y - 1)], j] = math.sqrt((x + 1) * y)
    mode_dim = op["s_cut"] + 1
    lower = np.diag(np.sqrt(np.arange(1, mode_dim)), 1)
    bath_dim = mode_dim ** op["modes"]
    lowers = []
    for m in range(op["modes"]):
        factors = [lower if q == m else np.eye(mode_dim) for q in range(op["modes"])]
        full = factors[0]
        for f in factors[1:]:
            full = np.kron(full, f)
        lowers.append(full)
    n_max = (cut - p) // 2
    a = abs_coeffs(p, op["zeta"], n_max)
    vec = np.zeros(dim, dtype=complex)
    for n in range(n_max + 1):
        vec[index[(n, n + p)]] = a[n]
    ground = np.zeros(bath_dim)
    ground[0] = 1.0
    quarter = np.array([1, 1j, -1, -1j])
    pi_sys = quarter[(na - nb).astype(int) % 4]
    system = {"na": na, "nb": nb, "raman": raman, "pi": np.kron(pi_sys, np.ones(bath_dim))}
    bath = {"lowers": lowers, "dim": bath_dim}
    return system, bath, np.kron(vec, ground)


def _bb_hamiltonian(op, system, bath, segment):
    eye_sys = np.eye(len(system["na"]))
    eye_bath = np.eye(bath["dim"])
    h = np.kron(np.diag(op["omega_a"] * system["na"] + op["omega_b"] * system["nb"]), eye_bath)
    for m, low in enumerate(bath["lowers"]):
        g, ga, gb = op["raman"][m], op["deph_a"][m], op["deph_b"][m]
        if "g_scales" in op:
            g *= op["g_scales"][segment][m]
            ga *= op["d_scales"][segment][m]
            gb *= op["d_scales"][segment][m]
        occ = low.T @ low
        h = h + op["frequencies"][m] * np.kron(eye_sys, occ)
        term = g * np.kron(system["raman"], low)
        h = h + term + term.T
        h = h + np.kron(np.diag(ga * system["na"] + gb * system["nb"]), occ)
    return h
