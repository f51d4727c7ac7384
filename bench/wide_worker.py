"""The zeros-wide library session: python3 wide_worker.py PLAN OUT [TRACE_OUT]

PLAN is a JSON file {"seconds": S, "step": h, "windows": [[q, index, a, b], ...]}.
One interpreter builds the characters once, then calls lfunc.find_zeros on
every window in order, one call at a time, and repeats the whole list until
S seconds have passed.  Each call is timed on its own.  OUT receives the
character tables and, per call, its window, wall time and zeros, and the
host-speed loop times taken before the first call and after each call.
"""

import json
import sys
import time

import hostspeed


def main() -> int:
    plan_path, out_path = sys.argv[1], sys.argv[2]
    trace_path = sys.argv[3] if len(sys.argv) > 3 else None
    with open(plan_path) as fh:
        plan = json.load(fh)
    from lfverify import characters, lfunc

    chars = {}
    for q, index, _, _ in plan["windows"]:
        if (q, index) not in chars:
            chars[q, index] = characters.primitive_characters(q)[index]
    tracer = None
    if trace_path:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)

    ops, loops = [], [hostspeed.loop_seconds()]
    start = time.perf_counter()
    while True:
        for q, index, a, b in plan["windows"]:
            t0 = time.perf_counter()
            scan = lfunc.find_zeros(chars[q, index], a, b, plan["step"])
            elapsed = time.perf_counter() - t0
            loops.append(hostspeed.loop_seconds())
            ops.append(
                {
                    "q": q,
                    "index": index,
                    "a": a,
                    "b": b,
                    "seconds": elapsed,
                    "gammas": [z.gamma for z in scan],
                    "radii": [z.radius for z in scan],
                    "flagged": len(scan.flagged),
                }
            )
        if time.perf_counter() - start >= plan["seconds"]:
            break
    if tracer:
        tracer.dump(trace_path)
    tables = {
        f"{q}:{index}": [[v.real, v.imag] for v in chi.values] for (q, index), chi in chars.items()
    }
    with open(out_path, "w") as fh:
        json.dump({"tables": tables, "ops": ops, "host_loops": loops}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
