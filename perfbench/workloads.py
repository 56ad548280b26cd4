"""The four workloads: inputs from the seed, the timed calls, and their oracles.

A workload is a closed loop with one client in one process.  It is cut into
cycles; a cycle holds one task per instance type, so every run sees the
stated instance mix whatever the number of cycles it completes.  A task is
one timed call into qot (``run``) plus its correctness gate (``check``),
which runs after the clock has stopped.

Each check returns a ``Verdict``.  An instance is certified when its status
is ``optimal``, its certificate passes and it agrees with the oracle.  A
result that claims a certified optimum and still contradicts its oracle is
wrong; that makes the whole run incorrect.  An honest non-optimal status is
not wrong, only uncertified.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from qot import cli, suites, transport
from qot import closedform as cf
from qot import cost as cost_mod
from qot import linalg

from tracing import Solve

P = 2.0
# Relative agreement required between a certified optimum and its oracle.
ORACLE_RTOL = 1e-6
# Relative duality gap a pair-dense certificate must reach.
GAP_RTOL = 1e-6
# Fixed seed for the base instances of pair-dense and multipartite (see below).
BASE_SEED = 20251030


@dataclass
class Verdict:
    certified: int
    wrong: bool = False
    reasons: tuple[str, ...] = ()


@dataclass
class Task:
    label: str
    instances: int
    run: Callable[[], object]
    check: Callable[[object, list[Solve]], Verdict]


def _near(value: float, expect: float) -> bool:
    return abs(value - expect) <= ORACLE_RTOL * max(1.0, abs(expect))


def product_value(instance: transport.TransportInstance) -> float:
    """``tr[C (omega (x) rho^T)]``: the cost of the always-feasible product plan."""
    plan = transport.trivial_coupling(instance.rho, instance.omega).matrix
    return float(np.einsum("ab,ba->", instance.plan_cost(), plan).real)


def solve_verdict(solve: Solve, oracle: list[tuple[str, bool]]) -> Verdict:
    """Certified iff optimal, certificate passed and every oracle clause holds."""
    reasons = []
    if solve.status != "optimal":
        reasons.append(f"status {solve.status}")
    reasons += [f"certificate: {f}" for f in solve.failures]
    if solve.status == "optimal" and not solve.cert_passed and not solve.failures:
        reasons.append("certificate failed without a named reason")
    disagree = [f"oracle: {name}" for name, ok in oracle if not ok]
    return Verdict(
        certified=int(not reasons and not disagree),
        wrong=solve.certified and bool(disagree),
        reasons=tuple(reasons + disagree),
    )


def _one(solves: list[Solve]) -> Solve:
    if len(solves) != 1:
        raise RuntimeError(f"expected one transport solve per call, saw {len(solves)}")
    return solves[0]


def _rotated(u: np.ndarray, m: np.ndarray) -> np.ndarray:
    r = u @ m @ u.conj().T
    return 0.5 * (r + r.conj().T)


# ---------------------------------------------------------------------------
# qubit-sweep: the verification sweeps through qot.suites.run_suite.
# ---------------------------------------------------------------------------


class QubitSweep:
    name = "qubit-sweep"
    min_cycles = 1
    cycle_s = 0.7
    calibration = "small"

    def __init__(self, seed: int, tiny: bool, workdir: str) -> None:
        self.samples, self.density, self.div_density = (1, 2, 2) if tiny else (5, 3, 4)
        rng = np.random.default_rng(seed)
        self.sweep_seeds = [int(s) for s in rng.integers(0, 2**31, size=64)]

    def _calls(self, c: int) -> list[tuple[str, dict, int]]:
        d, v = self.density, min(self.div_density, 11)
        seed = self.sweep_seeds[c % len(self.sweep_seeds)]
        # (suite, arguments, transport instances solved, counted from the sweep
        # parameters so that a batched solver gets credit for the same work)
        return [
            ("strong-duality", {"samples": self.samples, "seed": seed}, 2 * 2 * self.samples),
            ("symm-commuting", {"density": d}, 2 * d * d),
            ("z-xy", {"density": d}, 2 * d * d),
            ("z-commuting", {"density": d}, 2 * d * d),
            ("divergence-symm", {"density": self.div_density}, v * v + v),
            ("divergence-z", {"density": self.div_density}, v * v + v),
        ]

    def warmup(self) -> list[Task]:
        return self.cycle(0)[:1]

    def cycle(self, c: int) -> list[Task]:
        return [self._task(name, kwargs, count) for name, kwargs, count in self._calls(c)]

    def _task(self, name: str, kwargs: dict, count: int) -> Task:
        def check(outcome: suites.SuiteOutcome, solves: list[Solve]) -> Verdict:
            uncertified = [s for s in solves if not s.certified]
            lost = max(len(uncertified), outcome.n_failed, int(not outcome.passed))
            reasons = [f"status {s.status}" for s in uncertified if s.status != "optimal"]
            reasons += [f"certificate: {f}" for s in uncertified for f in s.failures]
            reasons += [f"suite case {c['case']} failed" for c in outcome.cases if not c["ok"]]
            if not outcome.passed and not outcome.n_failed:
                reasons.append(f"suite {name} failed its aggregate check")
            return Verdict(
                certified=max(count - lost, 0),
                wrong=not outcome.passed and not uncertified,
                reasons=tuple(reasons),
            )

        return Task(name, count, lambda: suites.run_suite(name, **kwargs), check)


# ---------------------------------------------------------------------------
# Inputs of pair-dense, multipartite and rank-deficient.
#
# A run holds only a few samples of each instance type, and the iteration
# count of a solve depends on its inputs (12 to 26 iterations at K=3 for
# random states), so independent draws per seed would make runs of the same
# code differ by up to 2x.  Instead each instance type has one base instance
# drawn from BASE_SEED, and the seed draws, per cycle, a random monomial
# unitary U (a permutation times diagonal phases): states and observables
# enter as U A U*.  Every input matrix changes, but the entry magnitudes the
# solver's stopping rules look at do not, so iteration counts stay put and
# runs measure the program, not the draw.  A general unitary would not keep
# them.
# ---------------------------------------------------------------------------


def _base_instance(dim: int, n_obs: int, tag: int) -> tuple:
    rng = np.random.default_rng([BASE_SEED, tag])
    rho = linalg.random_density(rng, dim)
    omega = linalg.random_density(rng, dim)
    observables = [linalg.random_hermitian(rng, dim) for _ in range(n_obs)]
    return rho, omega, observables


def _rotated_inputs(base: tuple, seed: int, c: int, tag: int) -> tuple:
    rho, omega, observables = base
    dim = rho.shape[0]
    rng = np.random.default_rng([seed, c, tag])
    u = np.eye(dim)[rng.permutation(dim)] * np.exp(2j * np.pi * rng.uniform(size=dim))
    if observables is not None:
        observables = [_rotated(u, o) for o in observables]
    return _rotated(u, rho), _rotated(u, omega), observables


def _observable_set(inputs: tuple) -> tuple:
    rho, omega, observables = inputs
    return rho, omega, cost_mod.observable_set(observables)


class PairDense:
    name = "pair-dense"
    pool_cycles = 4
    min_cycles = 1
    cycle_s = 3.0
    calibration = "dense-64"

    def __init__(self, seed: int, tiny: bool, workdir: str) -> None:
        dims = (3, 4) if tiny else (6, 7, 8)
        bases = {d: _base_instance(d, 2, d) for d in dims}
        self.pool = [
            [(d, _observable_set(_rotated_inputs(bases[d], seed, c, d))) for d in dims]
            for c in range(self.pool_cycles)
        ]

    def warmup(self) -> list[Task]:
        return self.cycle(0)[:1]

    def cycle(self, c: int) -> list[Task]:
        return [self._task(d, inputs) for d, inputs in self.pool[c % self.pool_cycles]]

    def _task(self, dim: int, inputs: tuple) -> Task:
        rho, omega, observables = inputs

        def run():
            instance = transport.factorized_instance(
                rho, omega, observables, P, mode=transport.MODE_NONLINEAR
            )
            return instance, transport.wasserstein_distance(instance)

        def check(out, solves: list[Solve]) -> Verdict:
            instance, _ = out
            solve = _one(solves)
            bound = product_value(instance)
            return solve_verdict(solve, [
                (f"relative gap {solve.rel_gap:.3e} > {GAP_RTOL:.0e}", solve.rel_gap <= GAP_RTOL),
                (f"dp {solve.dp:.12g} above the product coupling {bound:.12g}",
                 solve.dp <= bound + ORACLE_RTOL * max(1.0, abs(bound))),
            ])

        return Task(f"d={dim}", 1, run, check)


class Multipartite:
    name = "multipartite"
    pool_cycles = 4
    # Two samples per instance type, whatever the run length.
    min_cycles = 2
    cycle_s = 20.0
    calibration = "dense-256"

    def __init__(self, seed: int, tiny: bool, workdir: str) -> None:
        ks = (2, 3) if tiny else (3, 4)
        bases = {k: _base_instance(2, k, 100 + k) for k in ks}
        self.pool = [
            [(k, _observable_set(_rotated_inputs(bases[k], seed, c, 100 + k))) for k in ks]
            for c in range(self.pool_cycles)
        ]
        self._oracle: dict[int, float] = {}

    def warmup(self) -> list[Task]:
        return self.cycle(0)[:1]

    def cycle(self, c: int) -> list[Task]:
        tasks = []
        for k, inputs in self.pool[c % self.pool_cycles]:
            key = (c % self.pool_cycles) * 100 + k
            tasks.append(self._task(k, inputs, key, general=False))
            tasks.append(self._task(k, inputs, key, general=True))
        return tasks

    def _decomposed(self, key: int, inputs: tuple) -> float:
        """Sum of the K single-pair optima: equals the linearized optimum."""
        if key not in self._oracle:
            rho, omega, observables = inputs
            instance = transport.factorized_instance(
                rho, omega, observables, P, mode=transport.MODE_LINEARIZED
            )
            self._oracle[key] = transport.solve_linearized_decomposed(instance).total
        return self._oracle[key]

    def _task(self, k: int, inputs: tuple, key: int, general: bool) -> Task:
        rho, omega, observables = inputs

        def run():
            if general:
                instance = transport.general_instance(
                    rho, omega, observables, cost_mod.lp_power_cost(k, P), P
                )
            else:
                instance = transport.factorized_instance(
                    rho, omega, observables, P, mode=transport.MODE_LINEARIZED
                )
            return transport.wasserstein_distance(instance)

        def check(out, solves: list[Solve]) -> Verdict:
            solve = _one(solves)
            expect = self._decomposed(key, inputs)
            return solve_verdict(solve, [
                (f"dp {solve.dp:.12g} != decomposed {expect:.12g}", _near(solve.dp, expect)),
            ])

        form = "general" if general else "factorized"
        return Task(f"K={k} {form}", 1, run, check)


# ---------------------------------------------------------------------------
# rank-deficient: instance files solved through the command line entry point.
# ---------------------------------------------------------------------------


def _cmatrix(m: np.ndarray) -> list:
    return [[[float(c.real), float(c.imag)] for c in row] for row in m]


def _unit3(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def _rank_state(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    return m / m.trace().real


def _qubit_pair(rng, kind: str) -> tuple:
    def mixed():
        return 0.9 * rng.uniform() ** (1.0 / 3.0) * _unit3(rng)

    if kind == "pure/pure":
        rho, omega = _unit3(rng), _unit3(rng)
    elif kind == "pure/mixed":
        rho, omega = _unit3(rng), mixed()
    elif kind == "near-pure collinear":
        axis = _unit3(rng)
        rho, omega = (1.0 - 1e-6) * axis, rng.uniform(-0.9, 0.9) * axis
    else:
        rho, omega = mixed(), mixed()
    return cf.state_from_bloch(rho), cf.state_from_bloch(omega), None


def _qudit_pair(rng, dim: int, ranks: tuple[int, int]) -> tuple:
    rho, omega = _rank_state(rng, dim, ranks[0]), _rank_state(rng, dim, ranks[1])
    return rho, omega, [linalg.random_hermitian(rng, dim) for _ in range(2)]


def _instance_file(rho: np.ndarray, omega: np.ndarray, observables) -> dict:
    """JSON instance: Bloch vectors and the symmetric cost for qubit pairs."""
    if observables is None:
        def bloch(state):
            return {"bloch": [float(np.trace(state @ s).real) for s in linalg.PAULI]}

        return {"rho": bloch(rho), "omega": bloch(omega), "cost": "symm", "p": P}
    return {
        "rho": {"matrix": _cmatrix(rho)},
        "omega": {"matrix": _cmatrix(omega)},
        "cost": "factorized",
        "observables": {"matrices": [_cmatrix(o) for o in observables]},
        "p": P,
        "mode": "nonlinear",
    }


# (label, oracle, base instance): "product" when a state is pure, so the
# product plan is the only coupling; "closed-form" for collinear qubits;
# otherwise the product plan is only an upper bound.  As for pair-dense, the
# seed enters through a monomial change of basis of one base instance per type.
RANK_MIX = [
    ("d=2 pure/pure", "product", lambda rng: _qubit_pair(rng, "pure/pure")),
    ("d=2 pure/mixed", "product", lambda rng: _qubit_pair(rng, "pure/mixed")),
    ("d=3 pure/pure", "product", lambda rng: _qudit_pair(rng, 3, (1, 1))),
    ("d=3 pure/mixed", "product", lambda rng: _qudit_pair(rng, 3, (1, 3))),
    ("d=4 pure/pure", "product", lambda rng: _qudit_pair(rng, 4, (1, 1))),
    ("d=4 pure/mixed", "product", lambda rng: _qudit_pair(rng, 4, (1, 4))),
    ("d=3 rank-2/full", "bound", lambda rng: _qudit_pair(rng, 3, (2, 3))),
    ("d=4 rank-2/rank-3", "bound", lambda rng: _qudit_pair(rng, 4, (2, 3))),
    ("d=2 near-pure collinear", "closed-form", lambda rng: _qubit_pair(rng, "near-pure collinear")),
    ("d=2 control", "bound", lambda rng: _qubit_pair(rng, "control")),
    ("d=3 control", "bound", lambda rng: _qudit_pair(rng, 3, (3, 3))),
]


class RankDeficient:
    name = "rank-deficient"
    min_cycles = 1
    cycle_s = 0.7
    calibration = "small"

    def __init__(self, seed: int, tiny: bool, workdir: str) -> None:
        self.pool_cycles = 1 if tiny else 32
        self.dir = os.path.join(workdir, "instances")
        self.out = os.path.join(workdir, "records.jsonl")
        os.makedirs(self.dir, exist_ok=True)
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.out)
        bases = [make(np.random.default_rng([BASE_SEED, 200 + i]))
                 for i, (_, _, make) in enumerate(RANK_MIX)]
        self.pool = []
        for c in range(self.pool_cycles):
            entries = []
            for i, (label, oracle, _) in enumerate(RANK_MIX):
                data = _instance_file(*_rotated_inputs(bases[i], seed, c, 200 + i))
                path = os.path.join(self.dir, f"c{c:03d}-{i:02d}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(data, fh)
                entries.append((label, oracle, path, data))
            self.pool.append(entries)
        self._offset = 0

    def warmup(self) -> list[Task]:
        return self.cycle(0)

    def cycle(self, c: int) -> list[Task]:
        return [self._task(*entry) for entry in self.pool[c % self.pool_cycles]]

    def _next_record(self) -> str:
        with open(self.out, "r", encoding="utf-8") as fh:
            fh.seek(self._offset)
            line = fh.readline()
            self._offset = fh.tell()
        return line.rstrip("\n")

    def _task(self, label: str, oracle: str, path: str, data: dict) -> Task:
        def run():
            captured = io.StringIO()
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                return cli.main(["distance", path, "--out", self.out])

        def check(code: int, solves: list[Solve]) -> Verdict:
            solve = _one(solves)
            line = self._next_record()
            record = cli.parse_report(line)
            instance = cli.parse_instance(data)
            if oracle == "closed-form":
                r1 = np.array(data["rho"]["bloch"])
                r2 = np.array(data["omega"]["bloch"])
                expect = cf.d_symm_general(r1, r2, P)
                clauses = [(f"dp {solve.dp:.12g} != closed form {expect:.12g}",
                            _near(solve.dp, expect))]
            else:
                bound = product_value(instance)
                if oracle == "product":
                    clauses = [(f"dp {solve.dp:.12g} != product value {bound:.12g}",
                                _near(solve.dp, bound))]
                else:
                    clauses = [(f"dp {solve.dp:.12g} above the product coupling {bound:.12g}",
                                solve.dp <= bound + ORACLE_RTOL * max(1.0, abs(bound)))]
            verdict = solve_verdict(solve, clauses)
            consistent = (
                record.to_json_line() == line
                and record.status == solve.status
                and math.isclose(record.dp, solve.dp, rel_tol=1e-11, abs_tol=1e-300)
                and code == (cli.EXIT_OK if solve.status == "optimal" else cli.EXIT_SOLVER)
            )
            if not consistent:
                verdict.wrong = True
                verdict.reasons += ("report record disagrees with the solve",)
            return verdict

        return Task(label, 1, run, check)


WORKLOADS = {w.name: w for w in (QubitSweep, PairDense, Multipartite, RankDeficient)}
