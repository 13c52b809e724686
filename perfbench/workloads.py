"""The two workloads: inputs from a seed, one operation, and its check.

Each workload yields rounds of inputs.  A round is the unit a run repeats
whole, so the share of failed operations is the same in every run.  An
operation is timed by the caller; ``check`` runs untimed afterwards and
returns ``"ok"``, or ``"failed"`` for an operation that hit one of the two
known faults on the fixed cli-analyze inputs.  Any other wrong output raises
``reference.Mismatch``.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys

import numpy as np

import gatecap
import reference as ref
from reference import expect
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

FIXED_SEED = 20050101  # the cli-analyze inputs that do not depend on --seed
NOT_UNITARY_SEED = 48  # see CliAnalyze._fixed_inputs

# The certify workload's triples: one perfect entangler and one other gate
# per round, each within CERTIFY_JITTER per component of a fixed centre.
CERTIFY_CENTRES = {True: (0.65, 0.35, 0.25), False: (0.30, 0.15, -0.08)}
CERTIFY_JITTER = 0.05

# Gates per round of the cli-analyze workload drawn from --seed.
CLI_GENERIC_PER_ROUND = 3
CLI_EXACT_PER_ROUND = 2

# Tolerances: none is wider than the acceptance suite's gate for the same
# quantity.
TOL_CLI_VALUES = 1e-8
TOL_SEARCH = 1e-3
TOL_UNRESTRICTED = 1e-2
TOL_RELATION = 1e-3
TOL_STATE = 1e-9


def write_matrix(path: str, u: np.ndarray) -> None:
    """The matrix file format of gatecap's CLI: [re, im] pairs, row-major."""
    doc = {"dim": 4, "entries": [[[float(z.real), float(z.imag)] for z in row] for row in u]}
    with open(path, "w") as fh:
        json.dump(doc, fh)


class Certify:
    """Numeric certification of one dressed gate: three capacity searches on
    the matrix and both capacity relations on its triple, in this process."""

    name = "certify"
    min_rounds = 1

    def __init__(self, seed: int, out_dir: str):
        self.rng = np.random.default_rng(seed)

    def _triple(self, perfect: bool) -> np.ndarray:
        while True:
            offset = self.rng.uniform(-CERTIFY_JITTER, CERTIFY_JITTER, 3)
            d = np.array(CERTIFY_CENTRES[perfect]) + offset
            if ref.in_region(d, 0.0) and ref.is_perfect_entangler(d) == perfect:
                return d

    def inputs(self, round_index: int):
        # One perfect entangler (the linprog path of min_probe_overlap) and
        # one other gate (the chord path) per round.  The search cost depends
        # strongly on where d lies; drawing d near the same two centres in
        # every round keeps rounds alike, so a run's mean is steady.  The
        # offsets and the local dressing come from the seed.
        gates = []
        for perfect in (True, False):
            d = self._triple(perfect)
            gates.append((d, ref.dress(ref.interaction_unitary(d), self.rng)))
        return gates

    def call(self, gate):
        d, u = gate
        return (gatecap.max_concurrence_product(u),
                gatecap.max_concurrence_unrestricted(u),
                gatecap.max_delta_concurrence(u),
                gatecap.verify_relation1(d),
                gatecap.verify_relation2(d))

    def call_traced(self, gate):
        """Run one operation with spans recorded; returns (result, span dump)."""
        with Tracer() as tracer:
            result = self.call(gate)
        return result, tracer.dump()

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def check(self, gate, result) -> str:
        d, u = gate
        prod, unres, delta, rel1, rel2 = result
        c_ref, d_ref = ref.spectral_reference(u)
        expect(abs(prod.value - c_ref) <= TOL_SEARCH, f"product search {prod.value} vs {c_ref}")
        expect(abs(delta.value - c_ref) <= TOL_SEARCH, f"gain search {delta.value} vs {c_ref}")
        expect(abs(unres.value - np.sqrt(c_ref)) <= TOL_UNRESTRICTED,
               f"unrestricted search {unres.value} vs {np.sqrt(c_ref)}")
        e_ref = ref.h2((1 + np.sqrt(max(1 - c_ref * c_ref, 0.0))) / 2)
        expect(abs(rel1.capacity_term - (1 - e_ref)) <= TOL_RELATION, "relation 1 capacity term")
        expect(abs(rel2.capacity_term - ref.h2((1 + d_ref) / 2)) <= TOL_RELATION,
               "relation 2 capacity term")
        for rel in (rel1, rel2):
            expect(abs(rel.e_max_prod - e_ref) <= TOL_RELATION, "relation e_max_prod")
        c_out = ref.concurrence(u @ prod.argmax_state)
        expect(abs(c_out - prod.value) <= TOL_STATE, "product maximiser does not reproduce")
        expect(ref.concurrence(prod.argmax_state) <= TOL_STATE, "product maximiser is entangled")
        c_in = ref.concurrence(delta.argmax_state)
        c_out = ref.concurrence(u @ delta.argmax_state)
        expect(abs(c_out - c_in - delta.value) <= TOL_STATE, "gain maximiser does not reproduce")
        c_in = ref.concurrence(unres.argmax_state)
        c_out = ref.concurrence(u @ unres.argmax_state)
        expect(abs(np.sqrt(max(c_out**2 - c_in**2, 0.0)) - unres.value) <= TOL_STATE,
               "unrestricted maximiser does not reproduce")
        return "ok"


class CliAnalyze:
    """One `python -m gatecap.cli analyze <file> --json` subprocess per file."""

    name = "cli-analyze"
    min_rounds = 4  # 56 operations at least, so 11 lie beyond the p80 tail

    def __init__(self, seed: int, out_dir: str):
        self.rng = np.random.default_rng(seed)
        self.dir = os.path.join(out_dir, f"cli-{seed}")
        os.makedirs(self.dir, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        self.child_rss_kb = 0
        self.fixed = self._fixed_inputs()

    def _file(self, tag: str, u: np.ndarray):
        path = os.path.join(self.dir, f"{tag}.json")
        write_matrix(path, u)
        return (tag, path, u)

    def _fixed_inputs(self):
        # The same in every run: each named class with d perturbed by up to
        # 1e-8, drawn from FIXED_SEED; a perturbed CNOT drawn from
        # NOT_UNITARY_SEED, one of the few draws on which analyze exits 3;
        # and two gates within 1e-9 below the ax = pi/4 face, with az of
        # either sign.
        rng = np.random.default_rng(FIXED_SEED)
        files = []
        for name, d0 in ref.NAMED.items():
            d = np.array(d0) + rng.uniform(-1e-8, 1e-8, 3)
            files.append(self._file(f"fixed-perturbed-{name}",
                                    ref.dress(ref.interaction_unitary(d), rng)))
        rng3 = np.random.default_rng(NOT_UNITARY_SEED)
        d = np.array(ref.NAMED["cnot"]) + rng3.uniform(-1e-8, 1e-8, 3)
        files.append(self._file("fixed-perturbed-cnot-exit3",
                                ref.dress(ref.interaction_unitary(d), rng3)))
        for sign in (1.0, -1.0):
            ax = ref.PI_4 - rng.uniform(0, 1e-9)
            ay = rng.uniform(0, ax)
            d = np.array([ax, ay, sign * rng.uniform(0, ay)])
            files.append(self._file(f"fixed-face-az{'+' if sign > 0 else '-'}",
                                    ref.dress(ref.interaction_unitary(d), rng)))
        return files

    def inputs(self, round_index: int):
        files = []
        for k in range(CLI_GENERIC_PER_ROUND):
            files.append(self._file(f"generic-{k}", ref.haar_unitary(4, self.rng)))
        names = list(ref.NAMED)
        for k in range(CLI_EXACT_PER_ROUND):
            name = names[(CLI_EXACT_PER_ROUND * round_index + k) % len(names)]
            u = ref.dress(ref.interaction_unitary(ref.NAMED[name]), self.rng)
            files.append(self._file(f"exact-{name}", u))
        return files + self.fixed

    def _run(self, cmd, tag: str):
        out = os.path.join(self.dir, f"{tag}.out")
        err = os.path.join(self.dir, f"{tag}.err")
        with open(out, "w") as fo, open(err, "w") as fe:
            proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, env=self.env, cwd=ROOT)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        with open(out) as fo, open(err) as fe:
            return proc.returncode, fo.read(), fe.read()

    def call(self, item):
        tag, path, _ = item
        return self._run([sys.executable, "-m", "gatecap.cli", "analyze", path, "--json"], tag)

    def peak_rss_mb(self) -> float:
        """The largest analyze child's peak resident set."""
        return self.child_rss_kb / 1024

    def call_traced(self, item):
        tag, path, _ = item
        spans = os.path.join(self.dir, f"{tag}.spans.json")
        child = os.path.join(HERE, "analyze_child.py")
        result = self._run([sys.executable, child, spans, "analyze", path, "--json"], tag)
        with open(spans) as fh:
            return result, json.load(fh)

    def check(self, item, result) -> str:
        tag, _, u = item
        rc, out, err = result
        fixed = tag.startswith("fixed-")
        if rc != 0:
            # Fault (a): clustering at 1e-8 in simultaneous_diagonalize.
            known = ((rc == 4 and "decomposition-failure" in err)
                     or (rc == 3 and "not-unitary" in err))
            expect(fixed and known, f"{tag}: analyze exited {rc}: {err.strip()}")
            return "failed"
        report = json.loads(out)
        in_region = ref.check_decomposition(
            u, report["d"], report["capacities"]["c_max_prod"],
            (report["d_min"]["closed"], report["d_min"]["geometric"]), TOL_CLI_VALUES)
        if not in_region:
            # Fault (b): snapping at 1e-9 against a 1e-12 region check.
            expect(fixed, f"{tag}: d={report['d']} outside the region")
            return "failed"
        return "ok"


WORKLOADS = {w.name: w for w in (Certify, CliAnalyze)}
