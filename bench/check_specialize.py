#!/usr/bin/env python3
"""Gate the runtime-specialization columns (the PR-9 acceptance criteria).

Checks over a fig3_marshal_throughput JSON export:

1. Dense speedup (always on): for every payload of at least
   --dense-floor-bytes (default 4096) in the dense workloads (ints,
   rects), the interp-spec rate must be at least --min-speedup (default
   5.0) times the interp rate from the same run.  Dense payloads are
   where run fusion collapses the whole element loop into one bulk
   stencil, so anything under 5x means fusion regressed to per-field
   dispatch.  The mixed dirents workload (cstrings break up the runs)
   gets the softer --min-mixed-speedup gate (default 2.0).

2. Compile budget (when the export carries a metrics block): average
   specialization time, spec_compile_ns / spec_programs, must stay under
   --max-compile-us (default 250).  Programs are compiled once per
   structural type and cached, but a dynamic-IDL host may specialize on
   the first RPC of a connection, so compilation must stay cheap enough
   to never show up in a tail.

3. Break-even (--micro, a micro_specialize JSON export): every
   break-even row must report break_even_calls between 0 and
   --max-break-even (default 1000).  A negative value means the
   specialized path failed to beat the interpreter at that size.

4. Resolution pays for itself (--micro): for each workload's smallest
   payload, cache_hit_ns + spec_ns_per_call must be below
   interp_ns_per_call.  A caller that passes Specialize=true resolves the
   program on every call, so if one cache hit plus the specialized encode
   costs more than interpreting, asking for specialization is slower
   than not asking exactly where per-call overhead matters most.  A
   structural key rendered as text (one snprintf per node into a fresh
   std::string) failed this on all three workloads (ints: 358 + 27 >
   246 ns); the binary key built into a reused buffer passes with a
   2.5-3.5x margin (4-vCPU Xeon, gcc 12.2).

All gates compare series within ONE run on ONE machine, so they are
load-tolerant in the way absolute-rate gates are not.

Stdlib only; exit 0 on pass, 1 on a failed gate, 2 on usage errors.
"""

import argparse
import json
import sys

DENSE_WORKLOADS = ("ints", "rects")
MIXED_WORKLOADS = ("dirents",)


def load_doc(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def rows_of(doc, path):
    rows = doc.get("rows")
    if not isinstance(rows, list):
        raise ValueError(f"{path}: no 'rows' array")
    return [r for r in rows if isinstance(r, dict)]


def rate_index(rows, series):
    idx = {}
    for r in rows:
        if r.get("series") != series:
            continue
        key = (r.get("workload"), r.get("payload_bytes"))
        rate = r.get("rate_mb_per_s")
        if isinstance(rate, (int, float)) and rate > 0:
            idx[key] = rate
    return idx


def check_speedup(rows, floor_bytes, min_dense, min_mixed):
    interp = rate_index(rows, "interp")
    spec = rate_index(rows, "interp-spec")
    failures = []
    checked = 0
    for (workload, payload), spec_rate in sorted(spec.items()):
        if workload in DENSE_WORKLOADS:
            need = min_dense
        elif workload in MIXED_WORKLOADS:
            need = min_mixed
        else:
            continue
        if not isinstance(payload, (int, float)) or payload < floor_bytes:
            continue
        base = interp.get((workload, payload))
        if base is None:
            failures.append(f"{workload}/{payload}: interp-spec row has no "
                            "matching interp row")
            continue
        checked += 1
        ratio = spec_rate / base
        if ratio < need:
            failures.append(
                f"{workload} payload={payload}: interp-spec is only "
                f"{ratio:.2f}x interp (need {need}x) -- run fusion or the "
                "threaded dispatch loop regressed")
    if checked == 0:
        failures.append("no interp-spec rows at or above the payload floor; "
                        "did fig3 drop the series?")
    return checked, failures


def check_compile_budget(doc, max_compile_us):
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        return 0, []  # metrics collection off; nothing to gate
    programs = metrics.get("spec_programs", 0)
    compile_ns = metrics.get("spec_compile_ns", 0)
    if not programs:
        return 0, ["metrics block has spec_programs == 0: the bench "
                   "compiled nothing through the specializer"]
    avg_us = compile_ns / programs / 1e3
    if avg_us > max_compile_us:
        return 1, [f"average specialization cost {avg_us:.1f}us/program "
                   f"exceeds the {max_compile_us}us budget "
                   f"({programs} programs, {compile_ns} ns total)"]
    return 1, []


def check_break_even(rows, max_calls, path):
    failures = []
    checked = 0
    for r in rows:
        if r.get("series") != "break-even":
            continue
        checked += 1
        calls = r.get("break_even_calls")
        where = f"{r.get('workload')}/{r.get('payload_bytes')}"
        if not isinstance(calls, (int, float)):
            failures.append(f"{where}: break-even row has no "
                            "break_even_calls")
        elif calls < 0:
            failures.append(f"{where}: specialized encode never beats the "
                            "interpreter (negative break-even)")
        elif calls > max_calls:
            failures.append(f"{where}: break-even {calls:.0f} calls "
                            f"exceeds the {max_calls}-call budget")
    if checked == 0:
        failures.append(f"{path}: no break-even rows; did micro_specialize "
                        "drop the series?")
    return checked, failures


def check_resolution(rows, path):
    hit_ns = {r.get("workload"): r.get("cache_hit_ns") for r in rows
              if r.get("series") == "spec-compile"}
    smallest = {}
    for r in rows:
        if r.get("series") != "break-even":
            continue
        w, payload = r.get("workload"), r.get("payload_bytes")
        if w not in smallest or payload < smallest[w].get("payload_bytes"):
            smallest[w] = r
    failures = []
    for w, r in sorted(smallest.items()):
        hit = hit_ns.get(w)
        interp = r.get("interp_ns_per_call")
        spec = r.get("spec_ns_per_call")
        where = f"{w}/{r.get('payload_bytes')}"
        if not all(isinstance(v, (int, float)) for v in (hit, interp, spec)):
            failures.append(f"{where}: missing cache_hit_ns, "
                            "interp_ns_per_call or spec_ns_per_call")
        elif hit + spec >= interp:
            failures.append(
                f"{where}: cache hit {hit:.0f} ns + specialized encode "
                f"{spec:.0f} ns >= interpreter {interp:.0f} ns -- resolving "
                "the program per call costs more than it saves")
    if not smallest:
        failures.append(f"{path}: no break-even rows to check resolution "
                        "cost against")
    return len(smallest), failures


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("fig3", help="fig3_marshal_throughput JSON export")
    ap.add_argument("--micro", help="micro_specialize JSON export "
                    "(adds the break-even gate)")
    ap.add_argument("--dense-floor-bytes", type=float, default=4096)
    ap.add_argument("--min-speedup", type=float, default=5.0)
    ap.add_argument("--min-mixed-speedup", type=float, default=2.0)
    ap.add_argument("--max-compile-us", type=float, default=250.0)
    ap.add_argument("--max-break-even", type=float, default=1000.0)
    args = ap.parse_args(argv)

    try:
        doc = load_doc(args.fig3)
        rows = rows_of(doc, args.fig3)
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print(f"check_specialize: {e}", file=sys.stderr)
        return 2

    checked, failures = check_speedup(rows, args.dense_floor_bytes,
                                      args.min_speedup,
                                      args.min_mixed_speedup)
    budget_checked, budget_failures = check_compile_budget(
        doc, args.max_compile_us)
    failures += budget_failures

    be_checked = res_checked = 0
    if args.micro:
        try:
            micro = rows_of(load_doc(args.micro), args.micro)
        except (OSError, ValueError, json.JSONDecodeError) as e:
            print(f"check_specialize: {e}", file=sys.stderr)
            return 2
        be_checked, be_failures = check_break_even(
            micro, args.max_break_even, args.micro)
        failures += be_failures
        res_checked, res_failures = check_resolution(micro, args.micro)
        failures += res_failures

    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return 1
    print(f"check_specialize: OK ({checked} speedup rows, "
          f"{budget_checked} compile budgets, {be_checked} break-even rows, "
          f"{res_checked} resolution costs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
