#!/usr/bin/env python3
"""Gate BENCH_overload.json (bench_overload's overload-resilience ladder).

Every rung of the ladder is a list of shed/baseline pairs. The gate is
the deepest rung (offered load ~2x the baseline queue's saturation
point, where BOTH modes are refusing work and the comparison is
symmetric), which the bench runs as several pairs with alternating
order. Each pair gives one p99 ratio and one goodput ratio
(shedding / baseline); the gates hold the MEDIAN of each over the pairs,
because a single 1.5 s pair is too noisy to gate on:

  * bounded tail — the median served-p99 ratio is at most --p99-ratio
    (default 0.9). The whole point of shedding is that admitted work
    waits behind a watermark-bounded queue instead of a full one.
  * goodput parity — the median ok-responses/s ratio is at least
    --goodput-ratio (default 0.75). Shedding refuses work early; it must
    not refuse work the workers had capacity for. The expected ratio is
    ~1.0 and the run records every pair for trending.
  * shedding actually engaged — shed > 0 in every gate pair (a ladder
    that never saturates gates nothing).

And for the brownout probe (unmeetable SLO, hysteresis armed):

  * the storm shed (burn -> shed), brownout engaged (entries >= 1), and
    at least one admitted solve was served degraded — the full
    burn -> brownout -> degraded-serving ladder demonstrably ran.

Contract checks (any mode, any rung): no malformed responses, no
transport errors against the healthy in-process server, and the bench's
own contract_violated flag is false.

Exit 0 when every gate holds, 1 with reasons on stderr otherwise.
"""

import argparse
import json
import statistics
import sys


def fail(msg):
    print(f"check_overload: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("bench_json", help="BENCH_overload.json path")
    parser.add_argument("--p99-ratio", type=float, default=0.9,
                        help="max median shed_p99 / baseline_p99 over the "
                             "gate rung's pairs")
    parser.add_argument("--goodput-ratio", type=float, default=0.75,
                        help="min median shed_goodput / baseline_goodput "
                             "over the gate rung's pairs")
    args = parser.parse_args()

    with open(args.bench_json, "r", encoding="utf-8") as f:
        bench = json.load(f)

    if bench.get("bench") != "overload":
        fail(f"not a bench_overload document: {bench.get('bench')!r}")
    if bench.get("contract_violated"):
        fail("bench reported contract_violated: true")

    ladder = bench.get("ladder", [])
    if not ladder:
        fail("empty ladder")
    for rung in ladder:
        if not rung.get("pairs"):
            fail(f"rung clients={rung['clients']}: no shed/baseline pairs")
        for pair in rung["pairs"]:
            for mode in ("shedding", "baseline"):
                m = pair[mode]
                if m["malformed"] or m["transport_errors"] or \
                        m["other_errors"]:
                    fail(f"rung clients={rung['clients']} mode={mode}: "
                         f"malformed={m['malformed']} "
                         f"transport={m['transport_errors']} "
                         f"other={m['other_errors']}")

    gate = ladder[-1]
    clients = gate["clients"]
    p99_ratios = []
    goodput_ratios = []
    for i, pair in enumerate(gate["pairs"]):
        shed, base = pair["shedding"], pair["baseline"]
        if shed["shed"] == 0:
            fail(f"gate rung clients={clients} pair {i}: "
                 f"shedding never engaged")
        if base["p99_ms"] <= 0 or base["goodput_rps"] <= 0:
            fail(f"gate rung clients={clients} pair {i}: "
                 f"baseline served nothing")
        p99_ratios.append(shed["p99_ms"] / base["p99_ms"])
        goodput_ratios.append(shed["goodput_rps"] / base["goodput_rps"])
        print(f"check_overload: gate rung clients={clients} pair {i} "
              f"({'shed' if pair['shed_first'] else 'baseline'} first): "
              f"p99 {shed['p99_ms']:.1f}/{base['p99_ms']:.1f} ms "
              f"(ratio {p99_ratios[-1]:.2f}), "
              f"goodput {shed['goodput_rps']:.1f}/"
              f"{base['goodput_rps']:.1f} ok/s "
              f"(ratio {goodput_ratios[-1]:.2f})")

    p99_ratio = statistics.median(p99_ratios)
    goodput_ratio = statistics.median(goodput_ratios)
    print(f"check_overload: gate rung clients={clients}, "
          f"{len(gate['pairs'])} pairs: median p99 ratio {p99_ratio:.2f} "
          f"(max {args.p99_ratio}), median goodput ratio "
          f"{goodput_ratio:.2f} (min {args.goodput_ratio})")
    if p99_ratio > args.p99_ratio:
        fail(f"shed p99 not bounded: median ratio {p99_ratio:.2f} > "
             f"{args.p99_ratio}")
    if goodput_ratio < args.goodput_ratio:
        fail(f"shedding gave up goodput: median ratio {goodput_ratio:.2f} < "
             f"{args.goodput_ratio}")

    probe = bench.get("brownout_probe")
    if probe is None:
        fail("missing brownout_probe")
    if probe["malformed"] or probe["transport_errors"] or \
            probe["other_errors"]:
        fail("brownout probe had malformed/transport/other errors")
    if probe["shed"] == 0:
        fail("brownout probe never shed (burn signal never fired)")
    if probe["ok"] == 0:
        fail("brownout probe served nothing")
    if probe["degraded"] == 0:
        fail("brownout probe never served a degraded response")
    if bench.get("brownout_entries", 0) < 1:
        fail("brownout probe never entered brownout")
    print(f"check_overload: brownout probe ok={probe['ok']} "
          f"shed={probe['shed']} degraded={probe['degraded']} "
          f"entries={bench['brownout_entries']}")
    print("check_overload: all gates passed")


if __name__ == "__main__":
    main()
