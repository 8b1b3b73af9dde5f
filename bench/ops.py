"""Run one benchmark operation against the ngfiber package.

Every call goes through a module attribute (``states.build_state``, not a
name bound at import time), so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os

import numpy as np

from ngfiber import bangbang, bath, channel, cli, fock, negativity, states

from workloads import OMEGA_C


def _cli_op(op, outdir):
    argv = list(op["argv"])
    if op["kind"] == "sweep":
        argv += ["--config", os.path.join(outdir, f"sweep-{op['id']}.cfg"), "--jobs", "1"]
    out = os.path.join(outdir, f"out-{op['id']}")
    argv += ["--out", out]
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = cli.main(argv)
    with open(out, "rb") as fh:
        data = fh.read()
    return {"exit": code, "sha256": hashlib.sha256(data).hexdigest(),
            "bytes": len(data) + len(captured.getvalue().encode())}


def _link_inputs(op):
    """State, channel and bath of one link point."""
    state = states.build_state(op["p"], op["zeta"])
    params = channel.ChannelParams(omega_a=op["omega_mode"], omega_b=op["omega_mode"],
                                   gamma_plus=op["gamma_plus"], gamma_minus=0.0,
                                   tau_l=op["tau_l"], epsilon=op["epsilon"])
    spec = bath.BathSpec(omega_phonon=OMEGA_C, temperature=op["temperature"], omega_c=OMEGA_C)
    return state, params, spec


def _link_op(op):
    state, params, spec = _link_inputs(op)
    if op["kind"] == "link-negativity":
        return {"negativity": channel.negativity_dissipative(state, params, spec, combined=True)}
    rho = channel.evolve_with_dissipation(state, params, spec)
    return {"rho": rho.rho}


def _pt_op(op):
    state = states.build_state(op["p"], op["zeta"], n_max=op["n_max"])
    if op["dephased"]:
        params = channel.ChannelParams(omega_a=op["omega_mode"], omega_b=op["omega_mode"],
                                       gamma_plus=op["gamma_plus"], gamma_minus=0.0,
                                       tau_l=op["tau_l"])
        spec = bath.BathSpec(omega_phonon=OMEGA_C, temperature=op["temperature"],
                             omega_c=OMEGA_C)
        rho = channel.evolve_dephasing(state, params, spec)
    else:
        rho = state.density_matrix()
    return {"negativity": negativity.negativity_numeric(rho)}


def _toy_bath(op):
    return bangbang.ToyBath(
        num_modes=op["modes"], frequencies=tuple(op["frequencies"]),
        raman_couplings=tuple(op["raman"]), dephasing_rates_a=tuple(op["deph_a"]),
        dephasing_rates_b=tuple(op["deph_b"]), s_cut=op["s_cut"],
        omega_a=op["omega_a"], omega_b=op["omega_b"])


def _bb_op(op):
    space = fock.FockSpace(op["cut"])
    toy = _toy_bath(op)
    segments = op["segments"]
    if "g_scales" in op:
        profile = bangbang.SegmentProfile(segments, 0.0, np.array(op["g_scales"]),
                                          np.array(op["d_scales"]))
        h_list = [bangbang.build_hamiltonian(space, toy, s, profile) for s in range(segments)]
    else:
        h_list = [bangbang.build_hamiltonian(space, toy)] * segments
    state = states.build_state(op["p"], op["zeta"], n_max=(op["cut"] - op["p"]) // 2)
    psi0 = bangbang.joint_initial_state(state, space, toy)
    if op["protected"]:
        pi_op = bangbang.joint_phase_shifter(space, toy)
        psi = bangbang.propagate_bb(h_list, op["tau"], psi0, pi_op)
    else:
        psi = bangbang.propagate_free(h_list, op["tau"], psi0)
    return {"psi": psi}


def run_op(op, outdir):
    """Run one operation; returns what the output checks need."""
    if op.get("cli"):
        return _cli_op(op, outdir)
    if op["kind"].startswith("link-"):
        return _link_op(op)
    if op["kind"] == "pt":
        return _pt_op(op)
    return _bb_op(op)
