"""Run one workload in this fresh interpreter and print its result as JSON.

    python3 worker.py --root DIR --workload NAME --ops FILE --seconds S
                      --trace 0|1 [--trace-file FILE] [--setup-only 1]

Set-up, timed first, is what a user of algeff pays before the first
operation: importing ``algeff`` and ``algeff.cli`` and building the
built-in theories the workload uses.  Nothing else is imported before it.
The loop then runs whole rounds of the operations in ``FILE``, one at a
time, until ``S`` seconds have passed, and checks every output.
"""

import sys
import time


def build_theories(workload):
    """The built-in theories ``search`` calls into; the CLI workloads parse
    theirs from files."""
    if workload != "search":
        return {}
    from algeff.theories import choice_theory, semilattice_theory, single_state_theory, state_theory
    from algeff.universe import Fin

    return {
        "choice": choice_theory(),
        "state22": state_theory(Fin(2), Fin(2)),
        "cell2": single_state_theory(Fin(2)),
        "cell3": single_state_theory(Fin(3)),
        "semilattice": semilattice_theory(),
    }


def main():
    args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
    root, workload = args["--root"], args["--workload"]
    sys.path.insert(0, root + "/src")

    start = time.perf_counter()
    import algeff
    import algeff.cli

    theories = build_theories(workload)
    setup_s = time.perf_counter() - start

    import json
    import os

    src = os.path.realpath(os.path.join(root, "src", "algeff"))
    if os.path.dirname(os.path.realpath(algeff.__file__)) != src:
        print(f"algeff was imported from {algeff.__file__}, not from {src}", file=sys.stderr)
        return 3
    if args.get("--setup-only") == "1":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    with open(args["--ops"], encoding="utf-8") as f:
        ops = json.load(f)
    trace = args["--trace"] == "1"
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    result = run_rounds(ops, theories, float(args["--seconds"]), tracer)
    result["setup_s"] = setup_s
    if tracer is not None:
        result["per_layer"] = tracer.metrics(result["rounds"])
        tracer.write(args["--trace-file"])
    print(json.dumps(result))
    return 0


def _value(v):
    return tuple(_value(x) for x in v) if isinstance(v, list) else v


def run_rounds(ops, theories, seconds, tracer):
    import contextlib
    import io
    import resource
    import statistics
    from collections import Counter

    import algeff.cli
    import algeff.free
    import oracles
    from algeff.terms import OpNode, Return

    def tree(t):
        if t[0] == "r":
            return Return(_value(t[1]))
        return OpNode(t[1], _value(t[2]), tuple(tree(k) for k in t[3]))

    def run_cli(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = algeff.cli.main(argv)
        return code, out.getvalue()

    def search(theory, t1, t2, budget):
        return algeff.free.tree_equal_modulo(theory, t1, t2, budget).value

    calls = []
    for op in ops:
        if op["kind"] == "cli":
            calls.append((run_cli, (op["argv"],)))
        else:
            args = (theories[op["theory"]], tree(op["t1"]), tree(op["t2"]), op["budget"])
            calls.append((search, args))

    latencies, round_rates, round_walls, failures, errors = [], [], [], Counter(), []
    rounds = wrong_count = 0
    loop_start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        if tracer is not None:
            tracer.probe_alloc = rounds == 0
        for op, (fn, args) in zip(ops, calls):
            t0 = time.perf_counter()
            try:
                out = fn(*args)
            except (Exception, SystemExit) as exc:
                latencies.append(time.perf_counter() - t0)
                failures[f"{op['label']}: {type(exc).__name__}"] += 1
                continue
            latencies.append(time.perf_counter() - t0)
            if op["kind"] == "cli":
                wrong = oracles.check_cli(op["expect"], *out)
            else:
                wrong = oracles.check_search(op["expect"], out)
            if wrong:
                wrong_count += 1
                if len(errors) < 10:
                    errors.append(f"{op['label']}: {wrong}")
        rounds += 1
        round_rates.append(len(ops) / sum(latencies[-len(ops):]))
        round_walls.append(time.perf_counter() - round_start)
        if time.perf_counter() - loop_start >= seconds:
            break
    wall = time.perf_counter() - loop_start
    ms = [x * 1000 for x in latencies]
    return {
        "rounds": rounds,
        "ops_per_round": len(ops),
        "attempted": len(latencies),
        "failed": sum(failures.values()),
        "failures": dict(failures),
        "wrong": wrong_count,
        "errors": errors,
        "wall_s": wall,
        "round_walls_s": round_walls,
        "python": sys.version.split()[0],
        "metrics": {
            # the median round: every round does the same work, so a burst
            # of load from outside the process moves one round, not the figure
            "ops_per_s": statistics.median(round_rates),
            "latency_p50_ms": statistics.median(ms),
            "latency_p90_ms": statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0],
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
    }


if __name__ == "__main__":
    sys.exit(main())
