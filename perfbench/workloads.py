"""The benchmark's workloads: seeded inputs, one timed pass, output checks.

Each workload is a closed loop: one client issues the next call only after
the previous one has returned and been checked.  A pass runs the workload's
whole input set once; only the calls into fanbranch are timed, the checks
that follow each call are not.

Calls go through module attributes (`cli.evaluate_assignment`, ...) so that
a traced run sees the tracer's rebinding.

Every pass also times the reference computation of `speed` around its work
and reports its times normalised to the reference speed as well as raw.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import resource
import signal
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

from fanbranch import cli, cover_poset, fan_core, klyachko, monodromy, pl_group

import checks
import speed

MAX_ERRORS = 20


@dataclass
class Pass:
    """Timings, counts and failures of one pass over a workload's inputs.

    `wall_s`, `cpu_s` and `latencies_ms` are as measured; the `norm_`
    fields are the same scaled to the reference speed (see `speed`)."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    latencies_ms: list = field(default_factory=list)
    norm_wall_s: float = 0.0
    norm_cpu_s: float = 0.0
    norm_latencies_ms: list = field(default_factory=list)
    refs: list = field(default_factory=list)
    bounds: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    rungs: Counter = field(default_factory=Counter)
    errors: list = field(default_factory=list)

    def timed(self, fn, *args):
        """Call `fn`, adding its wall and CPU time to the pass as one op."""
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            wall = time.perf_counter() - t0
            self.cpu_s += time.process_time() - c0
            self.wall_s += wall
            self.latencies_ms.append(wall * 1e3)
            self.attempted += 1

    def checkpoint(self) -> None:
        """Time the reference on this CPU at a boundary between stretches of
        calls; a pass starts and ends with one."""
        self.refs.append(speed.reference_s())
        self.bounds.append((len(self.latencies_ms), self.wall_s, self.cpu_s))

    def normalise(self) -> None:
        """Scale each stretch between checkpoints by its reference factor."""
        factors = speed.stretch_factors(self.refs)
        for f, (i0, w0, c0), (i1, w1, c1) in zip(factors, self.bounds, self.bounds[1:]):
            self.norm_wall_s += (w1 - w0) * f
            self.norm_cpu_s += (c1 - c0) * f
            self.norm_latencies_ms += [x * f for x in self.latencies_ms[i0:i1]]

    def normalise_whole(self, refs) -> None:
        """Scale the whole pass by the mean speed of reference runs spread
        evenly through it (by `speed.Sampler`)."""
        self.refs = refs
        f = speed.factor(refs)
        self.norm_wall_s, self.norm_cpu_s = self.wall_s * f, self.cpu_s * f
        self.norm_latencies_ms = [x * f for x in self.latencies_ms]

    def fail(self, message: str) -> None:
        self.failed += 1
        self._note(message)

    def fail_all(self, message: str) -> None:
        """A wrong result for the pass as a whole fails every call in it."""
        self.failed = self.attempted
        self._note(message)

    def _note(self, message: str) -> None:
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(message)


def _children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def run_child(argv, env, timeout: float) -> subprocess.CompletedProcess:
    """Run a child in its own process group; on timeout the whole group,
    pool workers included, is killed and reaped."""
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        raise
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


# Runs the `fanbranch` console entry point from the checkout's source.
CLI_BOOT = "import sys; from fanbranch.cli import main; sys.exit(main(prog_name='fanbranch'))"


class Sigma3Stride:
    """A seeded sample of sigma_prime degree-3 assignments, each run through
    the sweep's per-assignment record function in process."""

    name = "sigma3-stride"
    CHILD_PROCESSES = False
    SAMPLE = 3000
    DEGREE = 3
    STRETCH = 100  # records between reference runs

    @staticmethod
    def load():
        fan = fan_core.load_fan("sigma_prime")
        return fan, monodromy.spanning_tree(fan)

    def __init__(self, seed: int, ctx):
        self.seed = seed
        self.fan, self.tree = self.load()
        total = monodromy.count_assignments(self.fan, self.DEGREE)
        self.indices = sorted(random.Random(seed).sample(range(total), self.SAMPLE))
        self.branch = [
            monodromy.branch_rays(
                self.fan, monodromy.assignment_at(self.fan, self.DEGREE, i, self.tree),
                self.tree)
            for i in self.indices
        ]
        self.digests: set[str] = set()

    def run_pass(self) -> Pass:
        p = Pass()
        lines = []
        fan, tree, d = self.fan, self.tree, self.DEGREE
        p.checkpoint()
        for k, (index, branch) in enumerate(zip(self.indices, self.branch)):
            if k and k % self.STRETCH == 0:
                p.checkpoint()
            try:
                rec, line = p.timed(self._record, fan, tree, d, index)
            except Exception as exc:
                p.fail(f"index {index}: {exc!r}")
                continue
            p.rungs[rec.cert] += 1
            problem = checks.sigma_record_problem(rec, index, branch, d)
            if problem:
                p.fail(problem)
            lines.append(line)
        p.checkpoint()
        p.normalise()
        got = checks.digest(lines)
        self.digests.add(got)
        if len(self.digests) > 1:
            p.fail_all("records differ between passes")
        elif self.seed == checks.SIGMA3_DEFAULT_SEED and got != checks.SIGMA3_SEED1_SHA256:
            p.fail_all("records differ from the stored digest for the default seed")
        return p

    traceable_pass = run_pass

    @classmethod
    def setup_argv(cls, ctx) -> list[str]:
        return [sys.executable, ctx.probe, cls.name]

    @staticmethod
    def _record(fan, tree, d, index):
        rec = cli.evaluate_assignment(fan, tree, d, index)
        return rec, rec.to_json()


class Eikelberg3Full:
    """Every degree-3 cover of the eikelberg fan, through the CLI with two
    worker processes and a cache file.  The input is fixed; the seed is
    unused."""

    name = "eikelberg3-full"
    CHILD_PROCESSES = True
    DEGREE = 3
    JOBS = 2
    TIMEOUT_S = 150
    SAMPLE_EVERY_S = 0.2  # reference runs, alternating over the workers' CPUs

    def __init__(self, seed: int, ctx):
        self.ctx = ctx
        self.fan = fan_core.load_fan("eikelberg")
        self.cache = os.path.join(ctx.out_dir, f"{self.name}-{os.getpid()}.jsonl")

    @classmethod
    def setup_argv(cls, ctx) -> list[str]:
        """The CLI command doing this sweep's set-up: import, fan load and
        validation, spanning tree."""
        return [sys.executable, "-c", CLI_BOOT, "covers", "enumerate", "eikelberg",
                "-d", str(cls.DEGREE)]

    def run_pass(self) -> Pass:
        p = Pass()
        argv = [sys.executable, "-c", CLI_BOOT, "pl", "sweep", "eikelberg",
                "-d", str(self.DEGREE), "--jobs", str(self.JOBS), "--cache", self.cache]
        self._remove_cache()
        with speed.Sampler(sorted(os.sched_getaffinity(0)), self.SAMPLE_EVERY_S) as sampler:
            c0 = _children_cpu_s()
            t0 = time.perf_counter()
            try:
                done = run_child(argv, self.ctx.env, self.TIMEOUT_S)
            except subprocess.TimeoutExpired:
                done = None
            p.wall_s = time.perf_counter() - t0
            p.cpu_s = _children_cpu_s() - c0
        p.latencies_ms.append(p.wall_s * 1e3)
        p.normalise_whole(sampler.refs)
        p.attempted = checks.EIKELBERG3.total
        if done is None:
            p.fail_all(f"sweep exceeded {self.TIMEOUT_S}s")
        elif done.returncode != 0:
            p.fail_all(f"sweep exited {done.returncode}: {done.stderr.strip()[-300:]}")
        self._check_cache(p)
        return p

    def traceable_pass(self) -> Pass:
        """The same sweep in process with one job, so spans stay in this
        process; its cache must have the same bytes."""
        p = Pass()
        self._remove_cache()
        error = None
        with speed.Sampler([speed.bench_cpu()], self.SAMPLE_EVERY_S) as sampler:
            try:
                p.timed(cli.run_sweep, self.fan, self.DEGREE, 1, self.cache)
            except Exception as exc:
                error = exc
        p.normalise_whole(sampler.refs)
        p.attempted = checks.EIKELBERG3.total
        if error is not None:
            p.fail_all(f"in-process sweep failed: {error!r}")
        self._check_cache(p)
        return p

    def _check_cache(self, p: Pass) -> None:
        try:
            with open(self.cache, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            p.fail_all(f"no sweep cache: {exc}")
            return
        finally:
            self._remove_cache()
        problems, rungs = checks.sweep_cache_problems(data, checks.EIKELBERG3)
        p.rungs.update(rungs)
        if problems:
            p.fail_all("; ".join(problems[:5]))

    def _remove_cache(self) -> None:
        try:
            os.remove(self.cache)
        except FileNotFoundError:
            pass


def stellar_subdivision(fan, position: int):
    """(rays, max_cones) of `fan` with maximal cone `position` replaced by the
    cones over its facets from the primitive sum of its generators."""
    from fanbranch.exact_linalg import primitive

    cone = fan.max_cones[position].ray_indices
    new_ray = list(primitive([sum(fan.rays[i][k] for i in cone) for k in range(fan.rank)]))
    new = len(fan.rays)
    facets = [fan.cones[w].ray_indices for w in fan.walls
              if set(fan.cones[w].ray_indices) <= set(cone)]
    cones = [list(c.ray_indices) for j, c in enumerate(fan.max_cones) if j != position]
    cones += [list(f) + [new] for f in facets]
    return [list(r) for r in fan.rays] + [new_ray], cones


@dataclass
class Round:
    """Inputs of one library-mix round, made before timing starts."""

    rays: list
    cones: list
    cover: object
    bundle: str
    summed: bool
    data: object
    cert: object


class LibraryMix:
    """A seeded mix of one-shot library calls: fan validation of a stellar
    subdivision, the solver and both triviality inputs on a random cover of
    it, a cover JSON round trip, and the Klyachko operations on bundled
    bundles and their sums with random line bundles."""

    name = "library-mix"
    CHILD_PROCESSES = False
    CYCLES = 3
    STRETCH = 2  # rounds between reference runs
    RANK3_FANS = ("fulton", "eikelberg", "sigma_prime")
    DEGREES = (2, 3)

    @classmethod
    def load(cls):
        fans = {name: fan_core.load_fan(name) for name in cls.RANK3_FANS}
        bundles = {name: klyachko.load_bundle(name) for name in checks.BUNDLE_FACTS}
        return fans, bundles

    def __init__(self, seed: int, ctx):
        fans, bundles = self.load()
        for fan in list(fans.values()) + [data.fan for data, _ in bundles.values()]:
            _warm(fan)
        rng = random.Random(seed)
        # Every combination of base fan, degree, bundle and summing appears
        # equally often, so the mix of costly calls does not vary by seed.
        kinds = list(itertools.product(self.RANK3_FANS, self.DEGREES, sorted(bundles),
                                       (False, True)))
        plan = []
        for _ in range(self.CYCLES):
            rng.shuffle(kinds)
            plan += kinds
        subdivisions: dict = {}
        self.rounds = []
        for base_name, d, name, summed in plan:
            base = fans[base_name]
            position = rng.randrange(len(base.max_cones))
            key = (base.name, position)
            if key not in subdivisions:
                rays, cones = stellar_subdivision(base, position)
                sub = fan_core.fan_from_data(3, rays, cones)
                _warm(sub)
                subdivisions[key] = (rays, cones, sub, monodromy.spanning_tree(sub))
            rays, cones, sub, tree = subdivisions[key]
            index = rng.randrange(monodromy.count_assignments(sub, d))
            cover = monodromy.build_cover(sub, monodromy.assignment_at(sub, d, index, tree), tree)
            data, cert = bundles[name]
            if summed:
                u = [rng.randint(-3, 3) for _ in range(data.fan.rank)]
                line, line_cert = klyachko.line_bundle(data.fan, u)
                data, cert = klyachko.direct_sum(data, line, cert, line_cert)
            self.rounds.append(Round(rays, cones, cover, name, summed, data, cert))

    def run_pass(self) -> Pass:
        p = Pass()
        p.checkpoint()
        for k, r in enumerate(self.rounds):
            if k and k % self.STRETCH == 0:
                p.checkpoint()
            self._fan_ops(p, r)
            self._cover_ops(p, r)
            self._bundle_ops(p, r)
        p.checkpoint()
        p.normalise()
        return p

    traceable_pass = run_pass

    @classmethod
    def setup_argv(cls, ctx) -> list[str]:
        return [sys.executable, ctx.probe, cls.name]

    @staticmethod
    def _fan_ops(p: Pass, r: Round) -> None:
        try:
            fan = p.timed(fan_core.fan_from_data, 3, r.rays, r.cones)
            complete = p.timed(fan_core.is_complete, fan)
        except Exception as exc:
            p.fail(f"subdivided fan: {exc!r}")
            return
        if not complete:
            p.fail("a stellar subdivision of a complete fan is not complete")

    @staticmethod
    def _cover_ops(p: Pass, r: Round) -> None:
        cover = r.cover
        try:
            report = p.timed(cover_poset.validate_cover, cover)
            basis = p.timed(pl_group.solve, cover)
            integral = p.timed(pl_group.solve, cover, "integral")
            verdict = p.timed(pl_group.group_triviality, cover, basis)
            back = p.timed(_json_round_trip, cover)
        except Exception as exc:
            p.fail(f"cover ops: {exc!r}")
            return
        p.rungs[verdict.tag] += 1
        if not report.ok:
            p.fail(f"monodromy cover fails validation: {report.describe()}")
        if not basis.dim == integral.dim == verdict.dim >= 3:
            p.fail(f"PL dimensions disagree: rational {basis.dim}, "
                   f"integral {integral.dim}, verdict {verdict.dim}")
        if not checks.same_cover(back, cover):
            p.fail("cover JSON round trip changed the cover")

    @staticmethod
    def _bundle_ops(p: Pass, r: Round) -> None:
        data, cert = r.data, r.cert
        try:
            result = p.timed(klyachko.verify, data, cert)
            screen = p.timed(klyachko.necessary_dimension_check, data)
            dual = p.timed(klyachko.dual, data)
            chern = p.timed(klyachko.chern, data, cert)
            cover, _ = p.timed(klyachko.branched_cover_of, data, cert)
        except Exception as exc:
            p.fail(f"bundle ops on {r.bundle}: {exc!r}")
            return
        facts = checks.BUNDLE_FACTS[r.bundle]
        got = {"verifies": result.ok, "screen": screen.status,
               "chern_trivial": chern.is_trivial()}
        if got != facts:
            p.fail(f"{r.bundle} (rank {data.rank}): {got}, want {facts}")
        if dual.rank != data.rank:
            p.fail(f"dual of a rank-{data.rank} bundle has rank {dual.rank}")
        shape = (len(cover.max_cells), cover.cells[cover.minimal_cell].weight)
        if shape[1] != data.rank:
            p.fail(f"associated cover of a rank-{data.rank} bundle has degree {shape[1]}")
        if r.bundle == "p2_tangent" and not r.summed and shape != checks.P2_TANGENT_COVER:
            p.fail(f"p2_tangent cover has (cells, weight) {shape}")


def _json_round_trip(cover):
    text = json.dumps(cover_poset.cover_to_dict(cover))
    return cover_poset.cover_from_dict(cover.fan, json.loads(text))


def _warm(fan) -> None:
    """Fill the fan's own caches, as the first call on a loaded fan does,
    so that every pass sees the same state."""
    fan_core.is_complete(fan)
    if fan.rank == 3:
        for position in range(len(fan.max_cones)):
            fan_core.wall_relation(fan, position)


WORKLOADS = {w.name: w for w in (Sigma3Stride, Eikelberg3Full, LibraryMix)}
