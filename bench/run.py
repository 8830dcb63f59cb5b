"""gridevac benchmark: time the real CLI on fixed feeders, check every output.

Usage (from the repository root):

    python3 bench/run.py --workload solve --seed 1 --seconds 40 --trace 0

Set-up generates the workload's feeder with ``netmodel.FeederSpec`` and writes
the scenario files; ``--seed`` only chooses the id labels of buses, TAZs and
EVs, so the physics and every work count stay the same across seeds. The run
then calls ``gridevac.cli.main`` in this process, one command after another,
until ``--seconds`` of command time is used. Each command's output is checked
outside the timed region; a failed check counts in ``failed``.

With ``--trace 0`` the times are scaled to a reference host by probes timed
alongside each command (``calib``), and the last stdout line carries the
end-to-end metrics; with
``--trace 1`` every second command runs under span tracing and the line
carries the per-layer metrics. Results, machine information and, when traced,
the spans go to ``bench/.work/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import json
import os
import platform
import random
import resource
import shutil
import statistics
import string
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Callable, Dict, List, Optional

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# One-thread BLAS/OpenMP pools, set before numpy is first imported (by calib).
for _var in THREAD_VARS:
    os.environ[_var] = "1"

from calib import Calibrator  # noqa: E402
from tracing import SETUP, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "bench" / ".work"
SETUP_REPS = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); "
                "import gridevac.cli, scipy.optimize; "
                "print(time.perf_counter() - t)")

# name -> (unit, better)
END_TO_END = {
    "op_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
    "ok_share": ("share", "higher"),
    "objective": ("1", "lower"),
}
LAYERS = ("powerflow", "mathprog", "eevc", "cla", "congen", "netmodel", "cli")
PER_LAYER = {
    "powerflow.solve_pf.calls": ("count", "lower"),
    "powerflow.solve_pf.sweeps": ("count", "lower"),
    "powerflow.solve_pf.self_s": ("s", "lower"),
    "powerflow.snapshot_for.self_s": ("s", "lower"),
    "mathprog.solve_milp.calls": ("count", "lower"),
    "mathprog.solve_milp.self_s": ("s", "lower"),
    "mathprog.solve_milp.limit": ("count", "lower"),
    "mathprog.solve_lp.calls": ("count", "lower"),
    "mathprog.solve_lp.self_s": ("s", "lower"),
    "eevc.build_program.self_s": ("s", "lower"),
    "eevc.decode.self_s": ("s", "lower"),
    "eevc.vars": ("count", "lower"),
    "eevc.binaries": ("count", "lower"),
    "eevc.rows": ("count", "lower"),
    "cla.fit_cla.calls": ("count", "lower"),
    "cla.fit_cla.self_s": ("s", "lower"),
    "cla.compute_targets.self_s": ("s", "lower"),
    "cla.targets.pf_calls": ("count", "lower"),
    "cla.targets.hit_ratio": ("share", "higher"),
    "cla.save_model.self_s": ("s", "lower"),
    "congen.run.self_s": ("s", "lower"),
    "congen.iterations": ("count", "lower"),
    "congen.active_constraints": ("count", "lower"),
    "congen.simulate.pf_calls": ("count", "lower"),
    "congen.schedule_from_starts.calls": ("count", "lower"),
    "netmodel.parse.self_s": ("s", "lower"),
    "netmodel.generate.self_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    **{f"layer.{layer}.share": ("share", "lower") for layer in LAYERS},
    "trace.op_s": ("s", "lower"),
    "trace.overhead": ("ratio", "lower"),
    "trace.attributed_share": ("share", "higher"),
}


class CheckFailed(Exception):
    pass


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

MID = dict(n_buses=20, n_tazs=3, evs_per_taz=4, impedance_scale=6.0, seed=1)
WEAK = dict(n_buses=12, n_tazs=2, evs_per_taz=3, impedance_scale=10.0, seed=3)
FIT_TIMES = list(range(1, 24, 2))
FIT_SEED = 1


@dataclass
class Context:
    """What a workload's commands and checks share within one run."""
    gv: object  # the imported gridevac package
    scenario_dir: Path
    scn: object  # ScenarioData as written to scenario_dir
    fit_samples: Optional[object] = None  # fit: SampleSet with regenerated targets

    def scenario_args(self) -> List[str]:
        d = self.scenario_dir
        return ["--network", str(d / "network.json"), "--loads", str(d / "loads.csv"),
                "--evs", str(d / "evs.csv"), "--tazs", str(d / "tazs.csv"),
                "--config", str(d / "config.json")]


@dataclass
class Workload:
    feeder: Dict
    argv: Callable[[Context, Path], List[str]]
    # Checks one command's output directory; returns the objective value.
    check: Callable[[Context, Path, int], float]


def _solve_argv(ctx: Context, out: Path) -> List[str]:
    return ["solve", *ctx.scenario_args(), "--out", str(out), "--seed", "1",
            "--lambda-max", "0"]


def _solve_check(ctx: Context, out: Path, code: int) -> float:
    gv, scn = ctx.gv, ctx.scn
    _require(code == 0, f"exit code {code}")
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    _require(summary["status"] == "converged", f"status {summary['status']}")
    charging = {ev.id: [0] * scn.T for ev in scn.evs}
    with open(out / "evs_schedule.csv") as fh:
        for row in csv.DictReader(ln for ln in fh if not ln.startswith("#")):
            charging[row["ev"]][int(row["t"]) - 1] = int(row["charging"])
    for ev in scn.evs:
        final = ev.soc0 + sum(charging[ev.id]) / scn.beta
        _require(final >= 1.0 - 1e-9, f"EV {ev.id} ends at {final}")
    first = min((t + 1 for c in charging.values() for t, on in enumerate(c) if on),
                default=scn.T)
    gamma = float(summary["gamma_max"])
    _require(gamma <= first, f"gamma {gamma} after first start {first}")
    states = {t: [bool(charging[ev.id][t - 1]) for ev in scn.evs]
              for t in range(1, scn.T + 1)}
    _, report = gv.powerflow.simulate_states(scn, states)
    _require(report.total <= 1e-9, f"re-simulated violation {report.total}")
    return scn.T - gamma


def _oracle_argv(ctx: Context, out: Path) -> List[str]:
    return ["oracle", *ctx.scenario_args(), "--lambda-max", "0",
            "--out", str(out / "oracle.json")]


def _oracle_check(ctx: Context, out: Path, code: int) -> float:
    gv, scn = ctx.gv, ctx.scn
    _require(code == 0, f"exit code {code}")
    with open(out / "oracle.json") as fh:
        payload = json.load(fh)
    gamma, starts = payload["gamma_opt"], payload["starts"]
    _require(gamma is not None, "no feasible start tuple")
    real = [s for s in starts.values() if s is not None]
    _require(float(min(real, default=scn.T)) == gamma, f"gamma {gamma} vs starts {starts}")
    schedule = gv.congen.schedule_from_starts(scn, starts)
    _, report = gv.powerflow.simulate_schedule(scn, schedule)
    _require(report.total <= 1e-9, f"re-simulated violation {report.total}")
    return scn.T - gamma


def _fit_argv(ctx: Context, out: Path) -> List[str]:
    return ["fit", *ctx.scenario_args(), "--seed", str(FIT_SEED),
            "--times", ",".join(map(str, FIT_TIMES)), "--out", str(out / "model.json")]


def _fit_check(ctx: Context, out: Path, code: int) -> float:
    gv, scn = ctx.gv, ctx.scn
    _require(code == 0, f"exit code {code}")
    nodes = scn.network.nodes()
    if ctx.fit_samples is None:  # regenerated once per run, outside the timed region
        samples = gv.cla.draw_samples(scn, gv.cla.default_sample_count(scn), FIT_SEED)
        ctx.fit_samples = gv.cla.compute_targets(scn, samples, nodes, FIT_TIMES)
    samples = ctx.fit_samples
    model = gv.cla.load_model(out / "model.json", samples.buses)
    want = {(n, t, s) for n in nodes for t in FIT_TIMES for s in (gv.cla.OVER, gv.cla.UNDER)}
    _require(set(model.functions) == want,
             f"{len(model.functions)} functions, expected {len(want)}")
    tol = gv.cla.CONSERVATIVE_TOL
    l1 = 0.0
    for (node, t, sense), f in model.functions.items():
        gap = f.a0 + f.a1 @ samples.p_matrix - samples.targets[(node, t)]
        worst = -gap.min() if sense == gv.cla.OVER else gap.max()
        _require(worst <= tol, f"{sense}-CLA at {node} t={t} off by {worst:.3e}")
        l1 += float(abs(gap).sum())
    return l1


WORKLOADS: Dict[str, Workload] = {
    "solve": Workload(MID, _solve_argv, _solve_check),
    "oracle": Workload(WEAK, _oracle_argv, _oracle_check),
    "fit": Workload(MID, _fit_argv, _fit_check),
}


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def _load_program():
    """Import gridevac from this checkout's ``src``."""
    src = ROOT / "src"
    if not (src / "gridevac" / "__init__.py").is_file():
        raise SystemExit(f"error: no gridevac sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import gridevac
    import gridevac.cli
    import scipy.optimize  # noqa: F401  (the CLI's solver backend)

    if Path(gridevac.__file__).resolve().parent != (src / "gridevac").resolve():
        raise SystemExit(f"error: gridevac imported from {gridevac.__file__}, not {src}")
    return gridevac


def _relabel(gv, net, scn, tag: str):
    """The same feeder with ``tag`` prefixed to every bus, TAZ and EV id.

    A common prefix keeps every sorted order, so the program does the same
    work on the relabelled feeder.
    """
    nm = gv.netmodel
    node = lambda n: nm.NodeId(tag + n.bus, n.phase)  # noqa: E731
    net2 = dataclasses.replace(
        net,
        buses=tuple(dataclasses.replace(b, id=tag + b.id) for b in net.buses),
        lines=tuple(dataclasses.replace(ln, from_bus=tag + ln.from_bus,
                                        to_bus=tag + ln.to_bus) for ln in net.lines),
        source_bus=tag + net.source_bus,
    )
    return dataclasses.replace(
        scn,
        network=net2,
        background={(node(n), t): s for (n, t), s in scn.background.items()},
        tazs=tuple(dataclasses.replace(z, id=tag + z.id) for z in scn.tazs),
        evs=tuple(dataclasses.replace(ev, id=tag + ev.id, taz=tag + ev.taz,
                                      node=node(ev.node)) for ev in scn.evs),
    )


def _write_scenario(gv, feeder: Dict, seed: int, out: Path):
    nm = gv.netmodel
    spec = nm.FeederSpec(phases="abc", beta=4, load_scale=0.5, T=24, **feeder)
    net, scn = nm.generate_synthetic_feeder(spec)
    rng = random.Random(seed)
    scn = _relabel(gv, net, scn, "".join(rng.choice(string.ascii_lowercase)
                                         for _ in range(4)))
    out.mkdir(parents=True, exist_ok=True)
    nm.save_network(scn.network, out / "network.json")
    nm.save_scenario(scn, out / "loads.csv", out / "evs.csv", out / "tazs.csv",
                     out / "config.json")
    return scn


def _import_seconds() -> float:
    """Time ``import gridevac.cli, scipy.optimize`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def _setup(gv, wl: Workload, seed: int, scenario_dir: Path, tracer,
           cal: Optional[Calibrator]) -> tuple:
    """Repeat the full set-up; returns (per-rep seconds, scenario).

    With a calibrator, each repetition's seconds are scaled to the reference
    host (see ``calib``).
    """
    times = []
    scn = None
    for _ in range(SETUP_REPS):
        if cal is not None:
            cal.sample_all()
        t_imp = time.perf_counter()
        with contextlib.nullcontext() if cal is None else cal.paused():
            imp = _import_seconds()
        if tracer is not None:
            tracer.enabled = True
        t0 = time.perf_counter()
        shutil.rmtree(scenario_dir, ignore_errors=True)
        scn = _write_scenario(gv, wl.feeder, seed, scenario_dir)
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.enabled = False
        if cal is None:
            times.append(imp + t1 - t0)
        else:
            cal.sample_all()
            gen = t1 - t0 - cal.own(t0, t1)[0]
            times.append((imp + gen) * cal.speed(t_imp, t1))
    return times, scn


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def _invoke(gv, argv: List[str], log: Path) -> int:
    with open(log, "w") as fh, contextlib.redirect_stdout(fh), \
            contextlib.redirect_stderr(fh):
        try:
            return int(gv.cli.main(argv) or 0)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crashing command is a failed command, not a crash here
            traceback.print_exc(file=fh)
            return -1


def _same_files(a: Path, b: Path) -> bool:
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return False
    return all((a / n).read_bytes() == (b / n).read_bytes() for n in names)


def _median(xs: List[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def machine_info() -> Dict:
    import numpy
    import scipy

    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "click": metadata.version("click"),
        "platform": platform.platform(),
    }
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    with contextlib.suppress(OSError):
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal"):
                info["mem_total_mb"] = int(line.split()[1]) // 1024
                break
    return info


def measure(workload: str, seed: int, seconds: float, trace: bool,
            mutate: Optional[Callable[[Path], None]] = None) -> Dict:
    """One benchmark run; returns the result record.

    ``mutate``, if given, edits each command's output before it is checked
    (the benchmark's own test uses it to plant a wrong output).
    """
    gv = _load_program()
    wl = WORKLOADS[workload]
    key = f"{workload}-s{seed}-t{int(trace)}"
    work = WORK / key
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (WORK / "results").mkdir(parents=True, exist_ok=True)

    # A traced run is not calibrated: probes would land in the spans' self times.
    tracer = Tracer() if trace else None
    cal = None if trace else Calibrator()
    if tracer is not None:
        tracer.install(gv)
    if cal is not None:
        cal.start()
    try:
        setup_times, scn = _setup(gv, wl, seed, work / "scenario", tracer, cal)
        ctx = Context(gv=gv, scenario_dir=work / "scenario", scn=scn)
        cmds = _run_commands(gv, wl, ctx, work, seconds, tracer, cal, mutate)
    finally:
        if cal is not None:
            cal.stop()
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    plain = [c for c in cmds if not c["traced"]]
    walls = [c["wall_s"] for c in plain]
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": machine_info(), "setup_s": setup_times, "commands": cmds,
    }
    if trace:
        traced = [c for c in cmds if c["traced"]]
        profs = [tracer.command_profile(c["index"]) for c in traced]
        for c, prof in zip(traced, profs):
            total = sum(v for k, v in prof.items() if k.endswith(".self_s"))
            if not c["error"] and abs(total - c["wall_s"]) > 0.01 * c["wall_s"] + 1e-3:
                c["error"] = f"self times add to {total:.4f} s, wall {c['wall_s']:.4f} s"
        metrics = _per_layer(profs, [c["wall_s"] for c in traced], walls,
                             tracer.command_profile(SETUP))
        tracer.write(WORK / "results" / f"{key}-spans.json")
    failed = sum(1 for c in cmds if c["error"])
    if not trace:
        metrics = {
            "op_s": _median([c["op_s"] for c in plain]),
            "cpu_s": _median([c["op_cpu_s"] for c in plain]),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": _median(setup_times),
            "ok_share": (len(cmds) - failed) / len(cmds),
            "objective": _median([c["objective"] for c in cmds
                                  if c["objective"] is not None]),
        }
    if len(walls) >= 2:  # noise within the run, for the record
        for name, xs in (("wall_s", walls), ("op_s", [c.get("op_s") for c in plain])):
            if None not in xs:
                q = statistics.quantiles(xs, n=4)
                record[f"{name}_spread"] = (q[2] - q[0]) / _median(xs)
    units = PER_LAYER if trace else END_TO_END
    record.update(
        attempted=len(cmds), failed=failed, correct=failed == 0,
        metrics={k: {"value": v, "unit": units[k][0]} for k, v in metrics.items()})
    with open(WORK / "results" / f"{key}.json", "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    shutil.rmtree(work, ignore_errors=True)
    return record


def _run_commands(gv, wl: Workload, ctx: Context, work: Path, seconds: float,
                  tracer, cal: Optional[Calibrator], mutate) -> List[Dict]:
    """Run commands until ``seconds`` of command wall time is used.

    A traced run alternates untraced and traced commands, at least one each,
    so the tracing overhead is measured within the run. With a calibrator,
    each command also gets its seconds scaled to the reference host.
    """
    min_cmds = 2 if tracer is not None else 1
    cmds: List[Dict] = []
    used = 0.0
    ref: Optional[Path] = None
    while True:
        k = len(cmds)
        out = work / f"cmd{k:03d}"
        out.mkdir()
        argv = wl.argv(ctx, out)
        traced = tracer is not None and k % 2 == 1
        if tracer is not None:
            tracer.command = k
            tracer.enabled = traced
        if cal is not None:
            cal.sample_all()
        t0, c0 = time.perf_counter(), time.process_time()
        code = _invoke(gv, argv, work / f"cmd{k:03d}.log")
        t1, c1 = time.perf_counter(), time.process_time()
        wall, cpu = t1 - t0, c1 - c0
        if tracer is not None:
            tracer.enabled = False
        used += wall
        cmd = {"index": k, "traced": traced, "exit": code, "wall_s": wall,
               "cpu_s": cpu, "objective": None, "error": None}
        if cal is not None:
            cal.sample_all()
            own_wall, own_cpu = cal.own(t0, t1)
            speed = cal.speed(t0, t1)
            cmd.update(op_s=(wall - own_wall) * speed, op_cpu_s=(cpu - own_cpu) * speed,
                       host_speed=speed)

        if mutate is not None:
            mutate(out)
        try:
            cmd["objective"] = wl.check(ctx, out, code)
            _require(ref is None or _same_files(ref, out),
                     "artifacts differ from the run's first command")
        except Exception as exc:  # any malformed output is a failed command
            cmd["error"] = f"{type(exc).__name__}: {exc}"
        cmds.append(cmd)
        if ref is None:
            ref = out
        else:
            shutil.rmtree(out)
        med = _median([c["wall_s"] for c in cmds])
        if len(cmds) >= min_cmds and used + med > seconds:
            return cmds


def _per_layer(profs: List[Dict[str, float]], walls: List[float],
               untraced_walls: List[float], setup_prof: Dict[str, float]
               ) -> Dict[str, float]:
    """Per-layer metrics: medians over the traced commands' profiles."""
    metrics: Dict[str, float] = {}
    for name in PER_LAYER:
        if name == "netmodel.generate.self_s":
            metrics[name] = setup_prof.get(name, 0.0) / SETUP_REPS
        elif name == "cla.targets.hit_ratio":
            metrics[name] = _median([
                p["cla.targets.cached"] / p["cla.targets.requested"]
                if p.get("cla.targets.requested") else 0.0 for p in profs])
        elif name.startswith("layer."):
            layer = name.split(".")[1]
            metrics[name] = _median([
                sum(v for k, v in p.items()
                    if k.startswith(layer + ".") and k.endswith(".self_s")) / w
                for p, w in zip(profs, walls)])
        elif name == "trace.op_s":
            metrics[name] = _median(walls)
        elif name == "trace.overhead":
            metrics[name] = _median(walls) / _median(untraced_walls)
        elif name == "trace.attributed_share":
            metrics[name] = _median([1.0 - p.get("cli.main.self_s", 0.0) / w
                                     for p, w in zip(profs, walls)])
        else:
            metrics[name] = _median([p.get(name, 0.0) for p in profs])
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)

    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for c in record["commands"]:
        if c["error"]:
            print(f"command {c['index']} failed: {c['error']}")
    print("machine: " + json.dumps(record["machine"], sort_keys=True))
    for c in record["commands"]:
        if "host_speed" in c:
            print(f"command {c['index']}: wall {c['wall_s']:.4f} s, host speed "
                  f"{c['host_speed']:.4f}, scaled {c['op_s']:.4f} s")
    for name, m in record["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
