"""The four benchmark workloads (``BENCHMARK.json`` lists all but
``localization``).

Each workload is a closed loop driven by one caller: ``run_op(i)`` runs op
``i`` to completion and checks its output before op ``i + 1`` starts.  Every
op's seed is derived from the workload seed and the op index, so a seed
fixes the whole op sequence.  Ops of different sizes repeat in a fixed
cycle of ``cycle`` ops, and a run always ends on a whole cycle.

All calls into ``kinfp`` go through module attributes (``inkspots.X``), so
the tracer's patched functions are the ones called.
"""

from __future__ import annotations

import csv
import hashlib
import math
import shutil
import struct
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from kinfp import cli, fields, geometry, harness, inkspots, kolmogorov
from kinfp import logtransform
from spans import CLI_KINDS
SUMMARY_HEADER = ["id", "seed", "lhs", "rhs", "fitted_c", "pass"]


def op_seed(seed: int, i: int) -> int:
    """Seed of op ``i`` of a run with workload seed ``seed``."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def _bits(*values) -> bytes:
    return b"".join(
        struct.pack("<d", math.nan if v is None else float(v)) for v in values
    )


@dataclass
class OpResult:
    attempted: int = 1      # units counted by fail_share
    failed: int = 0         # units that raised, exited >= 2 or failed a check
    wrong: int = 0          # units whose output check did not hold
    completed: bool = True  # the op counts in throughput and latency
    digest: bytes = b""
    errors: list = field(default_factory=list)
    detail: dict = field(default_factory=dict)


def _guarded(body) -> OpResult:
    """Run ``body() -> (ok, digest)``; an exception or a failed check fails
    the op."""
    try:
        ok, digest = body()
    except Exception:  # the loop must go on; the failure is recorded
        return OpResult(failed=1, completed=False,
                        errors=[traceback.format_exc(limit=4)])
    if not ok:
        return OpResult(failed=1, wrong=1, completed=False, digest=digest,
                        errors=["output check failed"])
    return OpResult(digest=digest)


class Workload:
    """A workload: set up in ``__init__`` (untimed), then ``run_op(i)``."""

    name = ""
    cycle = 1

    def __init__(self, seed: int, tiny: bool, scratch: Path):
        self.seed = seed

    def run_op(self, i: int) -> OpResult:
        raise NotImplementedError

    def extra_digest(self) -> bytes:
        """Output bytes computed after timing, folded into the digest."""
        return b""

    def notes(self, n_ops: int) -> dict:
        """Findings about the program made after timing, outside any op,
        never timed or counted: ``lines`` are printed, the whole dict goes
        to the results file."""
        return {}

    def close(self):
        """Release what set-up made."""


class Covering(Workload):
    """Ink-spots covering check: generate a hypothesis pair, verify the
    covering inequality, round-trip both masks through RLE."""

    name = "covering"
    cycle = 4

    def __init__(self, seed: int, tiny: bool, scratch: Path):
        super().__init__(seed, tiny, scratch)
        self.small, self.large = (((16, 16, 16), (32, 16, 16)) if tiny
                                  else ((24, 24, 24), (72, 24, 24)))
        self.prefix_sets = {}  # op index -> E, for the first cycle

    def run_op(self, i: int) -> OpResult:
        n = self.large if i % self.cycle == self.cycle - 1 else self.small

        def body():
            E, F = inkspots.generate_hypothesis_pair(
                op_seed(self.seed, i), k=3, m=3, r0=0.3, n=n)
            rep = inkspots.verify_inkspots(E, F, 0.3, 3, 0.3, 0.05, 1.0)
            round_trip = all(
                np.array_equal(inkspots.rle_to_mask(inkspots.mask_to_rle(s.mask)),
                               s.mask)
                for s in (E, F))
            if i < self.cycle:
                self.prefix_sets[i] = E
            digest = hashlib.sha256(
                _bits(rep.lhs, rep.rhs, rep.fitted_c, rep.params["c_star"],
                      rep.params["dense_count"])
                + np.packbits(E.mask).tobytes() + np.packbits(F.mask).tobytes()
            ).digest()
            return bool(rep.passed) and round_trip, digest

        return _guarded(body)

    def extra_digest(self) -> bytes:
        """Dense-cylinder sets of the first cycle's E, scanned as
        ``verify_inkspots`` scans them (mu = 0.3, default radii)."""
        h = hashlib.sha256()
        for _, E in sorted(self.prefix_sets.items()):
            for Q in inkspots.find_dense_cylinders(E, 0.3):
                h.update(_bits(Q.center.t, *Q.center.x, *Q.center.v, Q.r))
            h.update(b"|")
        return h.digest()


class RoughEnsemble(Workload):
    """Criterion 08's hot path: one rough-coefficient solver member, its
    weak-Harnack constant, and the log-transform energy check."""

    name = "rough-ensemble"
    cycle = 4

    def __init__(self, seed: int, tiny: bool, scratch: Path):
        super().__init__(seed, tiny, scratch)
        self.small, self.large = (((16, 24, 12), (32, 48, 24)) if tiny
                                  else ((64, 96, 48), (128, 192, 96)))

    def run_op(self, i: int) -> OpResult:
        n = self.large if i % self.cycle == self.cycle - 1 else self.small
        s = op_seed(self.seed, i)
        # a different checkerboard operator for every member
        cell_size = float(np.random.default_rng(s).uniform(0.3, 0.8))

        def body():
            ens = harness.ExperimentEnsemble(
                kind="solver-rough", count=1, seed=s,
                params={"coeff_kind": "checkerboard", "lam": 1.0, "Lam": 4.0,
                        "n": n, "cell_size": cell_size})
            f, _ = ens.member(0)
            rep = harness.verify_weak_harnack(f, p=1.0)
            box = f.grid.domain
            inner = fields.BoxCylinder(
                0.5 * (box.t_min + box.t_max), box.t_max, box.x_center,
                0.5 * box.rx, box.v_center, 0.5 * box.rv)
            energy = logtransform.energy_estimate_check(
                logtransform.log_transform(f, 0.1), inner, box, eps=0.1,
                source_sup=0.0, lam=1.0)
            f_min = float(np.min(f.values))
            c = rep.fitted_c
            ok = (f_min >= -1e-12 and c is not None and math.isfinite(c)
                  and c > 0.0)
            digest = hashlib.sha256(_bits(
                rep.lhs, rep.rhs, c, energy.lhs, energy.rhs, energy.fitted_c,
                f_min)).digest()
            return ok, digest

        return _guarded(body)


def localization_fixture(seed: int, eta: float, n=(128, 128, 32)):
    """Criterion 06a's fixture: three Gaussian blobs times [v >= 1/4]."""
    box = geometry.BoxCylinder(-1.0 - eta**2, 0.0, np.zeros(1), 8.0,
                               np.zeros(1), 2.0)
    g = fields.Grid(box, *n)
    T, X, V = g.coords
    rng = np.random.default_rng(seed)
    blobs = np.zeros(g.shape)
    for _ in range(3):
        cx, cv = rng.uniform(-4, 4, 2)
        blobs += rng.uniform(0.5, 2.0) * np.exp(
            -((X[..., 0] - cx) ** 2 + (V[..., 0] - cv) ** 2))
    return fields.ScalarField(g, blobs * (V[..., 0] >= 0.25))


class Localization(Workload):
    """Criterion 06a: the localization bound on prebuilt fixtures."""

    name = "localization"
    cycle = 1
    pool = 8  # fixtures built before timing; op i uses fixture i % pool

    def __init__(self, seed: int, tiny: bool, scratch: Path):
        super().__init__(seed, tiny, scratch)
        self.eta = geometry.pop_parameters(0.5).eta
        n = (32, 128, 16) if tiny else (128, 128, 32)
        self.fixtures = [localization_fixture(op_seed(seed, j), self.eta, n)
                         for j in range(self.pool)]

    def run_op(self, i: int) -> OpResult:
        def body():
            out = kolmogorov.localization_bound(
                self.fixtures[i % self.pool], self.eta)
            scalars = [out[k] for k in sorted(out)
                       if isinstance(out[k], (bool, int, float))]
            ok = bool(out["passed_h"]) and all(math.isfinite(v)
                                               for v in scalars)
            return ok, hashlib.sha256(_bits(*scalars)).digest()

        return _guarded(body)


class CliAll(Workload):
    """The documented ``kinfp --config all.ini`` path, one in-process
    ``cli.run`` per kind so a crash in one kind does not stop the rest.
    One op is a pass over the 10 kinds of ``CLI_KINDS`` at one seed;
    fail_share counts the kind runs.  ``holder`` runs after timing, at the
    seeds of the timed passes, and its crashes are reported by ``notes``."""

    name = "cli-all"
    cycle = 1

    def __init__(self, seed: int, tiny: bool, scratch: Path):
        super().__init__(seed, tiny, scratch)
        scratch.mkdir(parents=True, exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="cli-all-", dir=scratch))
        extra = "[params]\ncount = 1\n" if tiny else ""
        for kind in CLI_KINDS + ("holder",):
            (self.tmp / f"{kind}.ini").write_text(
                f"[experiment]\nkind = {kind}\n{extra}")

    def run_op(self, i: int) -> OpResult:
        s = op_seed(self.seed, i)
        res = OpResult(attempted=len(CLI_KINDS), detail={"kind_s": {},
                                                         "exit": {}})
        h = hashlib.sha256()
        for kind in CLI_KINDS:
            out = self.tmp / f"out-{kind}"
            summary = out / "summary.csv"
            summary.unlink(missing_ok=True)
            t0 = time.perf_counter()
            try:
                code = cli.run(str(self.tmp / f"{kind}.ini"), seed=s,
                               out=str(out))
            except Exception as exc:  # a crashing kind fails, the pass goes on
                code = type(exc).__name__
                res.errors.append(f"{kind} seed {s}: "
                                  + traceback.format_exc(limit=4))
            res.detail["kind_s"][kind] = time.perf_counter() - t0
            res.detail["exit"][kind] = code
            h.update(f"{kind}:{code}:".encode())
            if not isinstance(code, int) or code >= 2:
                res.failed += 1
                if isinstance(code, int):
                    res.errors.append(f"{kind} seed {s}: exit code {code}")
                continue
            data = summary.read_bytes() if summary.exists() else b""
            h.update(data)
            if not _summary_parses(data):
                res.failed += 1
                res.wrong += 1
                res.errors.append(f"{kind} seed {s}: summary.csv missing "
                                  "or malformed")
        res.digest = h.digest()
        return res

    def notes(self, n_ops: int) -> dict:
        """Run ``holder`` at the seed of every timed pass and count its
        crashes (a known defect: ValueError for about half of all seeds)."""
        crashes = []
        for i in range(n_ops):
            s = op_seed(self.seed, i)
            try:
                code = cli.run(str(self.tmp / "holder.ini"), seed=s,
                               out=str(self.tmp / "out-holder"))
            except Exception as exc:
                crashes.append(f"seed {s}: {type(exc).__name__}: {exc}")
                continue
            if code >= 2:
                crashes.append(f"seed {s}: exit code {code}")
        line = (f"holder (run after timing, not an op): {len(crashes)} of "
                f"{n_ops} pass seeds crashed"
                + (f", first {crashes[0]}" if crashes else ""))
        return {"lines": [line], "holder_runs": n_ops,
                "holder_crashes": crashes}

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


def _summary_parses(data: bytes) -> bool:
    try:
        rows = list(csv.reader(data.decode().splitlines()))
        if not rows or rows[0] != SUMMARY_HEADER:
            return False
        for row in rows[1:]:
            _id, _seed, lhs, rhs, fitted, verdict = row
            float(lhs), float(rhs)
            if fitted:
                float(fitted)
            if verdict not in ("pass", "fail"):
                return False
    except ValueError:
        return False
    return len(rows) > 1


#: name -> class; ``WORKLOADS[name](seed, tiny, scratch)`` sets one up.
WORKLOADS = {w.name: w for w in (CliAll, Covering, RoughEnsemble,
                                 Localization)}
