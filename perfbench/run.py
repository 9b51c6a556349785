"""archtune benchmark: one workload's campaign, timed end to end or traced.

Run from the root of an archtune checkout:

    python3 perfbench/run.py --workload lqg-50-costs --seed 1 --seconds 20 --trace 0

The workload's campaign (a builtin preset cut by `workloads.py`) goes through
the public path `cli.parse_experiment` -> `cli.run_experiment`, with
artifacts written, one process, `jobs=1` and one BLAS thread.  A round runs
the campaign once at each base seed `workloads.campaign_seeds` derives from
`--seed`; the first is `--seed` itself, as `archtune run --seed` takes it.
Whole rounds repeat until `--seconds` of campaign time have passed.  Every
campaign's artifacts are checked by `checks.py`; an operation is one
rollout, and it fails if the campaign raises or a check fails on its
artifacts.

With `--trace 0` the end-to-end metrics are printed; with `--trace 1` the
public functions of every layer are wrapped (`tracing.py`) and the per-layer
metrics are printed.  The second-to-last line of the output is a JSON report
(artifact digests, environment, failures); the last line is the result:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Files go to perfbench/out/<workload>/<time|trace>/, replaced on every run.
"""

import os
import time

_T0 = time.perf_counter()

# One BLAS thread for the benchmark process only, set before numpy loads.
# With the library default (a thread per core) on a 2-core machine, a small
# fixed matrix kernel ran at 0.30 or 0.50 ms per call depending on whether
# the second core was free at the moment, while with one thread it stayed
# within 2 %.  Set OPENBLAS_NUM_THREADS to measure another thread count.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def process_age() -> float:
    """Seconds since this process started, read from /proc (0 if unreadable)."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0
    return age if 0.0 <= age < 60.0 else 0.0


_AGE0 = process_age()

import argparse                                    # noqa: E402
import ctypes                                      # noqa: E402
import hashlib                                     # noqa: E402
import json                                        # noqa: E402
import platform                                    # noqa: E402
import resource                                    # noqa: E402
import shutil                                      # noqa: E402
import sys                                         # noqa: E402
import traceback                                   # noqa: E402
from pathlib import Path                           # noqa: E402
from statistics import median, quantiles           # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, campaign_doc, campaign_seeds  # noqa: E402


def blas_threads() -> list[dict]:
    """Thread count of every OpenBLAS loaded in this process."""
    libs = set()
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                path = line.split()[-1]
                if "openblas" in path.lower() and ".so" in path:
                    libs.add(path)
    except OSError:
        return []
    out = []
    for path in sorted(libs):
        entry = {"library": os.path.basename(path)}
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("scipy_", ""), ("", "64_"), ("", "")):
            fn = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            if fn is not None:
                fn.restype = ctypes.c_int
                entry["threads"] = fn()
                cfg = getattr(lib, f"{prefix}openblas_get_config{suffix}")
                cfg.restype = ctypes.c_char_p
                entry["config"] = cfg().decode()
                break
        out.append(entry)
    return out


def environment() -> dict:
    import numpy
    import scipy

    def blas(config):
        b = config["Build Dependencies"]["blas"]
        return f"{b.get('name')} {b.get('version')}"

    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def read_round(runs: list[dict], out_dir: Path, experiment: str) -> dict:
    """Digests, per-step controller times and sizes of one round's artifacts."""
    digests = {}
    steps = []
    for run in runs:
        name = run["name"]
        h = hashlib.sha256()
        for suffix in ("trace.csv", "plotdata.json"):
            h.update((out_dir / f"{name}.{suffix}").read_bytes())
        digests[name] = h.hexdigest()
        if run["mode"] == "self_tuning":
            timing = json.loads((out_dir / f"{name}.timing.json").read_text())
            steps.extend(timing["compute_time_s"])
    combined = hashlib.sha256("".join(digests[k] for k in sorted(digests)).encode())
    summary = json.loads((out_dir / f"{experiment}.summary.json").read_text())
    cost = sum(r["final_cumulative_true"] for r in summary["runs"] if r["mode"] == "self_tuning")
    return {"digests": digests, "digest": combined.hexdigest(), "steps": steps,
            "closed_loop_cost": cost,
            "artifact_bytes": sum(p.stat().st_size for p in out_dir.iterdir())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "archtune" / "__init__.py").is_file():
        print(f"perfbench: no archtune sources under {src}; "
              "run from the root of an archtune checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import archtune
    from archtune import cli, network

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(archtune)

    doc = campaign_doc(cli.preset_config, args.workload)
    diagnostics = cli.validate_experiment(doc)
    if diagnostics:
        print("\n".join(diagnostics), file=sys.stderr)
        return 1
    exp = cli.parse_experiment(doc)
    setup_s = _AGE0 + time.perf_counter() - _T0

    run_dir = HERE / "out" / args.workload / ("trace" if args.trace else "time")
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    # A round runs the cut campaign once at each of the workload's base seeds.
    # Rounds repeat until --seconds of campaign time have passed.
    seeds = campaign_seeds(args.workload, args.seed)
    rounds: list[list[dict]] = []
    round_times: list[float] = []
    error = None
    peak_rss_mb = None
    while error is None and (not round_times or sum(round_times) < args.seconds):
        if tracer is not None:
            tracer.new_phase()
        results: list[dict] = []
        round_time = 0.0
        for base in seeds:
            out_dir = run_dir / f"round{len(round_times)}" / f"seed{base}"
            tic = time.perf_counter()
            try:
                cli.run_experiment(exp, output_dir=str(out_dir), seed_base_override=base,
                                   jobs=1)
            except Exception:
                error = traceback.format_exc()
            round_time += time.perf_counter() - tic
            if peak_rss_mb is None:
                # one campaign's peak, as `archtune run` of the cut preset has it;
                # later campaigns would make this the maximum over several
                # trajectories, which spreads more from seed to seed
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if error is not None:
                break
            results.append(dict(read_round(exp.runs, out_dir, exp.name),
                                seed=base, out_dir=out_dir))
        round_times.append(round_time)
        rounds.append(results)
    if tracer is not None:
        tracer.uninstall()

    from checks import check_campaign

    # identical bytes pass or fail identically: check each distinct campaign once
    verdicts: dict[str, dict] = {}
    for rnd in rounds:
        for camp in rnd:
            if camp["digest"] not in verdicts:
                verdicts[camp["digest"]] = check_campaign(exp.runs, camp["seed"],
                                                          camp["out_dir"], exp.name, network)
            else:
                shutil.rmtree(camp["out_dir"])
    failures = {name: sorted({f for v in verdicts.values() for f in v[name]})
                for name in (r["name"] for r in exp.runs)}
    campaigns = [camp for rnd in rounds for camp in rnd]
    attempted = len(exp.runs) * len(seeds) * len(round_times)
    failed = sum(sum(1 for msgs in verdicts[c["digest"]].values() if msgs) for c in campaigns)
    if error is not None:
        failed += len(exp.runs) * (len(seeds) - len(rounds[-1]))
    complete = [rnd for rnd in rounds if len(rnd) == len(seeds)]
    last = complete[-1] if complete else []

    metrics = {}
    # campaign_s: one run_experiment call, the mean over a round's seeds
    campaign_s = median(t / len(seeds) for t, rnd in zip(round_times, rounds)
                        if len(rnd) == len(seeds)) if complete else None
    deciles = quantiles([s for rnd in complete for c in rnd for s in c["steps"]],
                        n=10, method="inclusive") if complete else None
    if complete and tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "campaign_s": (campaign_s, "s"),
            "step_ms_p90": (1e3 * deciles[8], "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    elif complete:
        from tracing import layer_metrics
        metrics = layer_metrics(tracer)
        metrics["cli.artifact_bytes"] = (float(sum(c["artifact_bytes"] for c in last)),
                                         "bytes")
        metrics["simulation.closed_loop_cost"] = (sum(c["closed_loop_cost"] for c in last),
                                                  "cost")
        metrics["trace.campaign_s"] = (campaign_s, "s")
        tracer.save(run_dir / "spans.npz")

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "campaign_seeds": seeds, "rounds": len(round_times),
        "round_s": round_times, "setup_s": setup_s,
        "self_tuning_steps": sum(len(c["steps"]) for c in last),
        # not a bounded metric: on lqr-50 the median step is a cached step of
        # about 0.5 ms, whose time follows the host's load (see README.md)
        "step_ms_p50": 1e3 * deciles[4] if deciles else None,
        "digests": {str(c["seed"]): c["digest"] for c in last},
        "run_digests": {str(c["seed"]): c["digests"] for c in last},
        "distinct_digests": len(verdicts),
        "closed_loop_cost": {str(c["seed"]): c["closed_loop_cost"] for c in last},
        "failures": {k: v for k, v in failures.items() if v},
        "error": error,
        "environment": environment(),
    }
    (run_dir / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
