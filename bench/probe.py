"""Fresh-process probe for set-up time and peak memory.

    python3 bench/probe.py '<json>' [--pass]

The JSON holds ``configs``, a list of [scenario id, overrides], and
``argvs``, the pass's ``wva-lab`` argument lists.  The probe imports
``wva_lab.cli``, builds the configs and prints ``ready``; the caller times
that line from process start.  With ``--pass`` it then runs the pass and
prints one JSON line with each invocation's exit code and the process's
peak resident memory.
"""
import sys
from pathlib import Path


def main() -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import json

    from wva_lab.cli import main as cli_main
    from wva_lab.scenarios import make_config

    spec = json.loads(sys.argv[1])
    for scenario_id, overrides in spec["configs"]:
        make_config(scenario_id, overrides)
    print("ready", flush=True)
    if "--pass" not in sys.argv[2:]:
        return

    import contextlib
    import io

    rcs = []
    for argv in spec["argvs"]:
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rcs.append(cli_main(argv))
        except Exception:  # the caller counts it as a failed invocation
            rcs.append(1)
    # VmHWM is this process's own peak.  ru_maxrss is not: Linux carries the
    # parent's resident size across fork and exec into it.
    with open("/proc/self/status") as fh:
        peak_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    print(json.dumps({"rcs": rcs, "peak_rss_kb": peak_kb}), flush=True)


if __name__ == "__main__":
    main()
