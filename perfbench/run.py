"""One benchmark for stamping and the rendezvous runtime.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload federated --seed 1 --seconds 30 \\
        --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see ``perfbench/README.md``).  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when
every correctness check passed, 1 when one failed, and 2 when the
program's source is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: At least this many measured cycles, however short ``--seconds`` is.
MIN_CYCLES = 3
#: Wall seconds each phase of a cycle repeats its passes for (at least
#: one round).  The runtime's metrics spread most from run to run, so it
#: gets the most passes.
PHASE_SECONDS = {"runtime": 0.75, "online": 0.4, "offline": 0.25}
#: Set-up repeats at least this often, and until this much time went.
SETUP_REPEATS, SETUP_SECONDS, SETUP_MAX_REPEATS = 5, 1.0, 25

#: ``(name, unit, kind)``.  ``time`` metrics are divided by the pass's
#: slowdown and reported as the 25th percentile over passes, ``rate``
#: metrics multiplied and reported as the 75th: interference from the
#: host only ever slows a pass, so the quiet quartile is the steadier
#: estimate of the program's own cost.  The rest are exact counts.
END_TO_END = [
    ("setup_s", "s", "time"),
    ("online_msgs_per_s", "msg/s", "rate"),
    ("offline_msgs_per_s", "msg/s", "rate"),
    ("commit_msgs_per_s", "msg/s", "rate"),
    ("rendezvous_p50_ms", "ms", "time"),
    ("rendezvous_p99_ms", "ms", "time"),
    ("piggyback_bytes_per_msg", "B/msg", None),
    ("online_vector_size", "components", None),
    ("offline_vector_size", "components", None),
    ("success_ratio", "ratio", None),
    ("peak_rss_mb", "MB", None),
]
KIND = {name: kind for name, _, kind in END_TO_END}
#: Which calibration probe a phase's timings are scaled by: stamping is
#: CPU-bound, the runtime's closed loop waits on process wake-ups.
PROBE = {"setup": "cpu", "online": "cpu", "offline": "cpu",
         "kernel": "cpu", "runtime": "ipc"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("federated", "hub", "rendezvous"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="input size; tiny is a smoke run for the benchmark's tests",
    )
    return parser.parse_args(argv)


def quiet_quartile(values, kind):
    """The 25th percentile of times, the 75th of rates, the median of
    anything else."""
    if kind is None or len(values) < 2:
        return statistics.median(values)
    low, _, high = statistics.quantiles(values, n=4)
    return low if kind == "time" else high


class Run:
    """Samples, checks and traced-pass layer values of one invocation."""

    def __init__(self, inputs, calibration, traced: bool):
        self.inputs = inputs
        self.calibration = calibration
        self.samples = {name: [] for name, _, _ in END_TO_END}
        #: Wall-clock values of the scaled metrics, printed alongside.
        self.raw = {name: [] for name, _, kind in END_TO_END if kind}
        self.failures = []
        self.attempted = 0
        self.failed = 0
        self.scheduled = 0
        self.block_samples = 0
        self.windows = {}  # phase -> ([untraced], [traced]), calibrated
        self.layers = {}  # phase -> [layer values of each traced pass]
        #: ``(|window - sum of self times|, window)`` per traced pass.
        self.self_sum_gaps = []
        #: The gate's stamps of each trace, which every pass must match.
        self.reference_online = []
        self.reference_offline = []
        self.tracer = None
        if traced:
            from tracer import Tracer

            self.tracer = Tracer()

    # -- passes --------------------------------------------------------
    def sample(self, name: str, value: float, slowdown: float) -> None:
        kind = KIND[name]
        if kind is not None:
            self.raw[name].append(value)
        if kind == "time":
            value /= slowdown
        elif kind == "rate":
            value *= slowdown
        self.samples[name].append(value)

    def timed(self, phase: str, fn, *args):
        """Run ``fn`` untraced (and once more traced in a traced run);
        returns the untraced :class:`Pass` and its slowdown."""
        probe = PROBE[phase]
        gc.collect()
        plain = fn(self.inputs, *args)
        slowdown = self.calibration.slowdown()[probe]
        windows = self.windows.setdefault(phase, ([], []))
        windows[0].append(plain.window / slowdown)
        if self.tracer is not None:
            gc.collect()
            with self.tracer:
                traced = fn(self.inputs, *args)
            self.record_trace(
                phase, traced, self.calibration.slowdown()[probe]
            )
        return plain, slowdown

    def record_trace(self, phase: str, traced, slowdown: float) -> None:
        from tracer import layer_values

        tracer = self.tracer
        spans = tracer.aggregate()
        committed = 0
        if phase == "runtime":
            committed = len(traced.output.log)
            self.check_runtime_pass(traced.output)
        self_sum = sum(row[2] for row in spans.values())
        self.self_sum_gaps.append(
            (abs(traced.window - self_sum), traced.window)
        )
        self.windows[phase][1].append(traced.window / slowdown)
        self.layers.setdefault(phase, []).append(
            layer_values(spans, tracer.counters, committed, tracer, slowdown)
        )

    def check_runtime_pass(self, transport) -> int:
        import gate

        scheduled = self.inputs.scheduled
        failed = gate.runtime_failures(transport, scheduled)
        self.failures += gate.check_runtime(transport, scheduled, failed)
        return failed

    def setup(self) -> None:
        """Stamping workloads' set-up: decompose the topology."""
        import workloads

        if self.inputs.name == "rendezvous":
            return  # its set-up is measured inside each runtime pass
        self.calibration.restart()
        spent = 0.0
        repeats = 0
        while repeats < SETUP_REPEATS or (
            spent < SETUP_SECONDS and repeats < SETUP_MAX_REPEATS
        ):
            result, slowdown = self.timed("setup", workloads.decompose)
            self.sample("setup_s", result.window, slowdown)
            spent += result.window
            repeats += 1

    def gate(self) -> None:
        """Check one pass of each kind before measuring; these passes
        also warm the caches and are not measured."""
        import gate
        import workloads

        inputs = self.inputs
        transport = workloads.runtime_pass(inputs).output
        self.attempted += inputs.scheduled
        self.check_runtime_pass(transport)
        if inputs.name == "rendezvous":
            workloads.adopt_committed_trace(inputs, transport)
        for trace in inputs.traces:
            online = workloads.online_pass(inputs, trace).output[0]
            self.failures += gate.check_online(
                trace, inputs.decomposition, online
            )
            offline, width = workloads.offline_pass(inputs, trace).output
            self.failures += gate.check_offline(
                trace, online, offline, inputs.seed, width
            )
            self.reference_online.append(online)
            self.reference_offline.append(offline)

    # -- measurement ---------------------------------------------------
    def measure(self, seconds: float) -> None:
        import workloads

        traces = list(enumerate(self.inputs.traces))
        self.calibration.restart()
        deadline = time.perf_counter() + seconds
        cycles = 0
        while cycles < MIN_CYCLES or time.perf_counter() < deadline:
            phase_end = time.perf_counter() + PHASE_SECONDS["runtime"]
            while True:
                result, slowdown = self.timed(
                    "runtime", workloads.runtime_pass
                )
                self.runtime_sample(result, slowdown)
                if time.perf_counter() >= phase_end:
                    break
            for phase, fn, metric in (
                ("online", workloads.online_pass, "online_msgs_per_s"),
                ("offline", workloads.offline_pass, "offline_msgs_per_s"),
            ):
                phase_end = time.perf_counter() + PHASE_SECONDS[phase]
                while True:
                    for index, trace in traces:
                        result, slowdown = self.timed(phase, fn, trace)
                        messages = len(trace.messages)
                        self.sample(
                            metric, messages / result.window, slowdown
                        )
                        self.attempted += messages
                        self.check_stamps(phase, index, result.output)
                    if time.perf_counter() >= phase_end:
                        break
            if self.tracer is not None:
                for _, trace in traces:
                    self.timed("kernel", workloads.kernel_pass, trace)
            cycles += 1

    def check_stamps(self, phase: str, index: int, output) -> None:
        if phase == "online":
            stamps, stats = output
            reference = self.reference_online[index]
            # Stamping workloads report the batch codec's exact bytes;
            # rendezvous reports what its runtime put on the wire.
            if self.inputs.name != "rendezvous":
                self.samples["piggyback_bytes_per_msg"].append(
                    stats.bytes_per_message
                )
        else:
            stamps, width = output
            reference = self.reference_offline[index]
            self.samples["offline_vector_size"].append(width)
        if stamps != reference:
            self.failures.append(f"{phase} pass stamped differently")

    def runtime_sample(self, result, slowdown: float) -> None:
        transport = result.output
        stats = transport.stats
        self.failed += self.check_runtime_pass(transport)
        self.attempted += self.inputs.scheduled
        self.scheduled += self.inputs.scheduled
        committed = len(transport.log)
        if stats.traffic_seconds > 0:
            self.sample(
                "commit_msgs_per_s", committed / stats.traffic_seconds,
                slowdown,
            )
        quantiles = stats.block_quantiles_ms()
        self.sample("rendezvous_p50_ms", quantiles["p50"], slowdown)
        self.sample("rendezvous_p99_ms", quantiles["p99"], slowdown)
        self.block_samples += stats.block_sketch.count
        if self.inputs.name == "rendezvous":
            self.sample(
                "setup_s", result.window - stats.traffic_seconds, slowdown
            )
            self.samples["piggyback_bytes_per_msg"].append(
                stats.piggyback_bytes_per_message
            )

    # -- results -------------------------------------------------------
    def end_to_end(self):
        inputs = self.inputs
        self.samples["online_vector_size"] = [inputs.decomposition.size]
        self.samples["success_ratio"] = [
            1.0 - self.failed / self.scheduled if self.scheduled else 0.0
        ]
        self.samples["peak_rss_mb"] = [
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ]
        rows = []
        for name, unit, kind in END_TO_END:
            values = self.samples[name]
            count = len(values)
            if name.startswith("rendezvous_"):
                count = self.block_samples
            raw = self.raw.get(name)
            rows.append((
                name, quiet_quartile(values, kind), unit, count,
                quiet_quartile(raw, kind) if raw else None,
            ))
        return rows

    def per_layer(self):
        from tracer import LAYER_METRICS, SELF_SUM_SLACK

        totals = {}
        for passes in self.layers.values():
            for name in passes[0]:
                totals[name] = totals.get(name, 0.0) + statistics.median(
                    values[name] for values in passes
                )
        untraced = traced = 0.0
        for phase in ("runtime", "online", "offline"):
            plain, with_trace = self.windows[phase]
            untraced += statistics.median(plain)
            traced += statistics.median(with_trace)
        totals["trace.overhead_ratio"] = traced / untraced
        gap = sum(g for g, _ in self.self_sum_gaps) / sum(
            w for _, w in self.self_sum_gaps
        )
        totals["trace.self_sum_gap"] = gap
        if gap > SELF_SUM_SLACK:
            self.failures.append(
                f"layer self times miss their window by {gap:.1%} "
                f"(slack {SELF_SUM_SLACK:.0%})"
            )
        passes = sum(len(p) for p in self.layers.values())
        return [
            (name, totals.get(name, 0.0), unit, passes, None)
            for name, unit in LAYER_METRICS
        ]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program source under {ROOT / 'src'}; run it "
            "from a full checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from calibration import Calibration

    # The socket runtime binds its Unix socket under the temp dir; keep
    # it inside the checkout, on a short relative path.
    temp_dir = ROOT / ".perfbench_tmp"
    temp_dir.mkdir(exist_ok=True)
    tempfile.tempdir = os.path.relpath(temp_dir)
    calibration = Calibration()
    try:
        return execute(args, calibration)
    finally:
        calibration.close()
        tempfile.tempdir = None
        shutil.rmtree(temp_dir, ignore_errors=True)


def execute(args, calibration) -> int:
    import workloads

    inputs = workloads.build_inputs(args.workload, args.seed, args.size)
    run = Run(inputs, calibration, traced=bool(args.trace))
    run.setup()
    run.gate()
    if not run.failures:
        run.measure(args.seconds)
    print(workloads.describe(inputs))
    if run.tracer is not None and run.tracer.missing:
        print("layers not found: " + ", ".join(sorted(run.tracer.missing)))
    rows = []
    if not run.failures:
        rows = run.per_layer() if run.tracer else run.end_to_end()
    print(f"{'metric':34} {'value':>14} {'unit':>10} {'samples':>8} "
          f"{'wall-clock':>12}")
    for name, value, unit, count, raw in rows:
        wall = "" if raw is None else f"{raw:12.6g}"
        print(f"{name:34} {value:14.6g} {unit:>10} {count:8d} {wall}")
    for failure in run.failures:
        print(f"perfbench: correctness check failed: {failure}",
              file=sys.stderr)
    correct = not run.failures
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, value, unit, _, _ in rows
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
