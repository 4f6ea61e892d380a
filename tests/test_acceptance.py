"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion lines
as they complete.
"""

import itertools
import json
import time

import numpy as np

from conftest import gate_transfer, structure_constants
from mgsim import circuits, matchgate as mg, sampling
from mgsim.cli import main as cli_main
from mgsim.engine_lie import build_basis
from mgsim.engine_lie import simulate as simulate_lie
from mgsim.engine_quadratic import simulate
from mgsim.jw import C0_MODES, JwFamily
from mgsim.oracle import ADJOINT, INVERSE, expectation_heisenberg
from mgsim.pauli import pauli_mul

RNG_SEED = 20240901


def report(num: int, ok: bool, text: str):
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num} failed: {text}"


def test_criterion_1_anticommutation_exact():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 17):
        for mode in C0_MODES:
            fam = JwFamily(n, mode)
            for ops in ([fam.c(mu) for mu in range(2 * n + 1)],
                        [fam.d(mu) for mu in range(2 * n + 1)]):
                for u, ou in enumerate(ops):
                    for v in range(u, len(ops)):
                        ab = pauli_mul(ou, ops[v])
                        if u == v:
                            ok &= ab.x_mask == 0 and ab.z_mask == 0 and ab.scalar == 1
                        else:
                            ba = pauli_mul(ops[v], ou)
                            ok &= (ab.x_mask, ab.z_mask) == (ba.x_mask, ba.z_mask)
                            ok &= ab.scalar + ba.scalar == 0
    dt = time.perf_counter() - t0
    report(1, ok and dt < 5.0,
           f"{{c,c}} and {{d,d}} exact for n=1..16, both c0 modes ({dt:.1f}s)")


def test_criterion_2_predicate_equivalence():
    rng = np.random.default_rng(RNG_SEED)
    t0 = time.perf_counter()
    disagreements = 0
    for _ in range(1000):
        ij = (int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        c = complex(rng.normal(), rng.normal()) + 2.0
        B = mg.sample_matchgate(ij, c, rng.normal(size=10) + 1j * rng.normal(size=10))
        if mg.is_matchgate(B, tol=1e-9) != mg.eigenvector_predicate(B, tol=1e-9):
            disagreements += 1
    for _ in range(1000):
        B = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        if mg.is_matchgate(B, tol=1e-9) != mg.eigenvector_predicate(B, tol=1e-9):
            disagreements += 1
    dt = time.perf_counter() - t0
    report(2, disagreements == 0 and dt < 10.0,
           f"is_matchgate == eigenvector_predicate on 2000 matrices, "
           f"{disagreements} disagreements ({dt:.1f}s)")


def test_criterion_3_sampled_matchgates_satisfy_identities():
    rng = np.random.default_rng(RNG_SEED + 1)
    t0 = time.perf_counter()
    worst = 0.0
    for ij in itertools.product(range(1, 5), repeat=2):
        for _ in range(100):
            c = complex(rng.normal(), rng.normal())
            c = c / abs(c) * float(rng.uniform(0.5, 2.0))
            B = mg.sample_matchgate(ij, c, rng.normal(size=10) + 1j * rng.normal(size=10))
            scale = max(1.0, float(np.linalg.norm(B) ** 2))
            worst = max(worst, float(np.abs(mg.identities(B)).max()) / scale)
    dt = time.perf_counter() - t0
    report(3, worst <= 1e-10 and dt < 10.0,
           f"M(ij)-built matrices satisfy all ten identities, 16x100 samples, "
           f"worst residual {worst:.1e} ({dt:.1f}s)")


def test_criterion_4_exponential_map_both_directions():
    rng = np.random.default_rng(RNG_SEED + 2)
    t0 = time.perf_counter()
    worst_fwd = 0.0
    for _ in range(1000):
        B = mg.exp_L(0.6 * (rng.normal(size=11) + 1j * rng.normal(size=11)))
        scale = max(1.0, float(np.linalg.norm(B) ** 2))
        worst_fwd = max(worst_fwd, float(np.abs(mg.identities(B)).max()) / scale)
    worst_rev = 0.0
    for _ in range(500):
        B = mg.exp_L(0.6 * (rng.normal(size=11) + 1j * rng.normal(size=11)))
        rec = mg.exp_L(mg.log_to_L(B))
        worst_rev = max(worst_rev,
                        float(np.linalg.norm(rec - B) / max(1.0, np.linalg.norm(B))))
    dt = time.perf_counter() - t0
    report(4, worst_fwd <= 1e-10 and worst_rev <= 1e-9 and dt < 60.0,
           f"1000 exponentials pass identities (worst {worst_fwd:.1e}); "
           f"500 log/exp round trips (worst {worst_rev:.1e}) ({dt:.1f}s)")


def test_criterion_5_nullspace():
    t0 = time.perf_counter()
    rank, basis = mg.nullspace_Afive(tol=1e-10)
    gen_coords = np.array([mg.pauli_coords(G) for G in mg.generators11()])
    joint = np.vstack([basis.T, gen_coords])
    joint_rank = int(np.linalg.matrix_rank(joint, tol=1e-10))
    dt = time.perf_counter() - t0
    ok = rank == 5 and basis.shape[1] == 11 and joint_rank == 11
    report(5, ok and dt < 1.0,
           f"five-constraint system has rank {rank}, nullity {basis.shape[1]}, "
           f"joint rank with the 11 generators {joint_rank} ({dt:.2f}s)")


def test_criterion_6_dm_relation_table():
    rng = np.random.default_rng(RNG_SEED + 3)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        B = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        M = mg.identities(B)
        D, DT = mg.d_values(B)
        # the D1 - D1^T row needs a minus sign; both sides vanish on
        # matchgates, and the sign below is the one verified symbolically
        residuals = [
            D[0] + DT[0] - 4 * M[0],
            D[3] - 2 * M[1],
            D[4] - 2 * M[2],
            DT[4] - 2 * M[3],
            DT[3] - 2 * M[4],
            D[1] - 2 * M[5],
            DT[1] - 2 * M[6],
            D[0] - DT[0] + 4 * M[7],
            D[2] - 2 * M[8],
            DT[2] - 2 * M[9],
        ]
        worst = max(worst, float(np.abs(residuals).max()))
    dt = time.perf_counter() - t0
    report(6, worst <= 1e-12 and dt < 5.0,
           f"all ten D/M relations hold on 1000 random matrices, "
           f"worst residual {worst:.1e} ({dt:.1f}s)")


def test_criterion_7_engine_correctness():
    rng = np.random.default_rng(RNG_SEED + 4)
    t0 = time.perf_counter()
    worst_qo = worst_lq = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 11))
        depth = int(rng.integers(1, 51))
        circ = sampling.random_circuit(n, depth, rng, unitary=bool(rng.integers(0, 2)))
        gates = circuits.compile(circ)
        state = circ.input_state()
        ref = expectation_heisenberg(gates, state, circ.k, INVERSE)
        quad = simulate(gates, state, circ.k).expectation
        lie = simulate_lie(gates, state, circ.k).expectation
        worst_qo = max(worst_qo, abs(quad - ref))
        worst_lq = max(worst_lq, abs(lie - quad))
    dt = time.perf_counter() - t0
    report(7, worst_qo <= 1e-8 and worst_lq <= 1e-9 and dt < 300.0,
           f"500 circuits: quadratic vs oracle {worst_qo:.1e}, "
           f"lie vs quadratic {worst_lq:.1e} ({dt:.0f}s)")


def test_criterion_8_dimension_claims():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 7):
        basis = build_basis(n)
        structure_constants(n)  # raises internally on any closure residual
        vecs = np.array([e.to_matrix().reshape(-1) for e in basis.elements])
        quad_only = vecs[2 * n + 1:]
        full_no_id = vecs[1:]
        ok &= int(np.linalg.matrix_rank(quad_only)) == n * (2 * n - 1)
        ok &= int(np.linalg.matrix_rank(full_no_id)) == n * (2 * n + 1)
    dt = time.perf_counter() - t0
    report(8, ok and dt < 30.0,
           f"algebra ranks n(2n-1) and n(2n+1) for n=1..6, exact closure ({dt:.1f}s)")


def test_criterion_9_polynomial_scaling(capsys):
    t0 = time.perf_counter()
    code = cli_main(["bench", "--n", "50,100,200", "--gates", "1000", "--seed", "11"])
    data = json.loads(capsys.readouterr().out)
    dt = time.perf_counter() - t0
    n200 = next(r for r in data["runs"] if r["n"] == 200)
    exponent = data["fitted_exponent"]
    ok = code == 0 and exponent is not None and exponent <= 3.3 and n200["seconds"] < 60.0
    with capsys.disabled():
        report(9, ok, f"bench depth 1000: fitted exponent {exponent:.2f} <= 3.3, "
                      f"n=200 in {n200['seconds']:.2f}s ({dt:.1f}s total)")


def test_criterion_10_unitary_sanity():
    rng = np.random.default_rng(RNG_SEED + 5)
    t0 = time.perf_counter()
    worst_pop = worst_orth = worst_modes = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 9))
        circ = sampling.random_circuit(n, int(rng.integers(1, 15)), rng, unitary=True)
        gates = circuits.compile(circ)
        state = circ.input_state()
        res = simulate(gates, state, circ.k, unitary=True)
        worst_pop = max(worst_pop, abs(res.p0 + res.p1 - 1.0))
        for g in gates:
            K = gate_transfer(g)
            worst_orth = max(worst_orth,
                             float(np.linalg.norm(K @ K.T - np.eye(K.shape[0]))))
        vi = expectation_heisenberg(gates, state, circ.k, INVERSE)
        va = expectation_heisenberg(gates, state, circ.k, ADJOINT)
        worst_modes = max(worst_modes, abs(vi - va))
    dt = time.perf_counter() - t0
    ok = worst_pop <= 1e-9 and worst_orth <= 1e-9 and worst_modes <= 1e-10
    report(10, ok,
           f"unitary circuits: |p0+p1-1| {worst_pop:.1e}, |KK^T-I| {worst_orth:.1e}, "
           f"oracle mode gap {worst_modes:.1e} ({dt:.0f}s)")
