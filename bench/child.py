"""One cold benchmark process: import the package, run ``cli.main(argv)``
once, print one JSON record on stdout.

Usage: python3 bench/child.py {run|setup|trace} -- <cli argv...>

* ``run``   times ``main(argv)`` with nothing wrapped but the battery-entry
  stamp below, while the speed probe of speed.py ticks;
* ``setup`` stops at the battery entry, so it times set-up only;
* ``trace`` installs the outside-in tracer first (see tracer.py).

Set-up time is the package import plus the part of ``main`` before its
battery starts (argument parsing, fixture load).  The battery start is
stamped by wrapping, in ``cli``'s globals, the first package call each
command handler makes.  The parent process compares the stdout digest with
the recorded reference.  Every child also probes the CPU speed right after
import, which turns its set-up time into reference seconds.
"""

import sys
import time

T0 = time.perf_counter()

import os  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import simplicial_transfer.cli as cli  # noqa: E402

T_IMPORTED = time.perf_counter()

import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

from speed import SpeedProbe, calibrate, speed_factor  # noqa: E402

# the first package call of each command handler in cli.py
BATTERY_ENTRIES = (
    "check_contraction",
    "interval_product_table",
    "SimplexContraction",
    "check_whitney_conditions",
)


class ReachedBattery(Exception):
    """Raised at the battery entry by a ``setup`` child."""


def stamp_battery_entry(stamps: list, stop: bool) -> None:
    for name in BATTERY_ENTRIES:
        target = getattr(cli, name)

        def entry(*args, _target=target, **kwargs):
            if not stamps:
                stamps.append(time.perf_counter())
                if stop:
                    raise ReachedBattery
            return _target(*args, **kwargs)

        setattr(cli, name, entry)


def exit_code(exc: SystemExit) -> int:
    if exc.code is None:
        return 0
    return exc.code if isinstance(exc.code, int) else 1


def main() -> int:
    args = sys.argv[1:]
    if len(args) < 2 or args[0] not in ("run", "setup", "trace") or args[1] != "--":
        print("usage: child.py {run|setup|trace} -- <cli argv...>", file=sys.stderr)
        return 2
    mode, argv = args[0], args[2:]
    if os.path.dirname(os.path.abspath(cli.__file__)) != os.path.join(SRC, "simplicial_transfer"):
        print(f"imported {cli.__file__}, not the package under {SRC}", file=sys.stderr)
        return 2

    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    stamps: list = []
    stamp_battery_entry(stamps, stop=mode == "setup")
    # the CPU speed right after import stands for the whole set-up
    setup_speed = speed_factor(calibrate())
    probe = SpeedProbe() if mode == "run" else None

    captured = io.StringIO()
    real_stdout = sys.stdout
    sys.stdout = captured
    start = time.perf_counter()
    cpu_start = time.process_time()
    if probe is not None:
        probe.start()
    try:
        if tracer is None:
            code = cli.main(argv)
        else:
            with tracer.span("cli.main"):
                code = cli.main(argv)
    except SystemExit as exc:
        code = exit_code(exc)
    except ReachedBattery:
        code = 0
    finally:
        end = time.perf_counter()
        cpu_end = time.process_time()
        if probe is not None:
            probe.stop()
        sys.stdout = real_stdout

    battery_start = stamps[0] if stamps else end
    out = captured.getvalue().encode("utf-8")
    setup_s = (T_IMPORTED - T0) + (battery_start - start)
    record = {
        "mode": mode,
        "exit_code": code,
        "setup_s": setup_s,
        "setup_ref_s": setup_s / setup_speed,
        "setup_speed": setup_speed,
        "import_s": T_IMPORTED - T0,
        "wall_s": end - start,
        "cpu_s": cpu_end - cpu_start,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "stdout_sha256": hashlib.sha256(out).hexdigest(),
        "stdout_bytes": len(out),
    }
    if probe is not None:
        record["wall_ref_s"] = probe.reference_s(end - start, setup_speed)
        record["probes"] = len(probe.durations)
        record["run_speed"] = probe.factor(setup_speed)
    if mode != "setup":
        record["all_passed"] = _all_passed(out)
    if tracer is not None:
        record["trace"] = tracer.snapshot()
    print(json.dumps(record))
    return 0


def _all_passed(out: bytes):
    """The report's own verdict, where the output is a JSON report."""
    try:
        payload = json.loads(out)
    except ValueError:
        return None
    if isinstance(payload, dict) and "all_passed" in payload:
        return bool(payload["all_passed"])
    return None


if __name__ == "__main__":
    raise SystemExit(main())
