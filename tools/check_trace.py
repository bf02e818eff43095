#!/usr/bin/env python3
"""Validates the observability artifacts produced by `dlner --trace-out /
--metrics-out` (and by bench_throughput / dlner_serve). Standard library
only; used by the CI observability job and handy for checking a local
capture:

    python3 tools/check_trace.py --trace trace.json \
        --require-span embed --require-span encode \
        --require-span-arg serve/request:req \
        --metrics metrics.json --min-series 10 \
        --require-metric serve.request.latency_us:p99

--require-metric accepts either NAME (the metric must exist) or NAME:KEY
(the metric must exist and carry a nonzero numeric KEY, e.g. a histogram's
p99). --require-span-arg NAME:KEY asserts at least one complete span named
NAME carries an args object with key KEY (request-id-bearing serve spans). A nonzero trace.dropped_spans counter in the metrics file is
reported as a warning (ring wraparound ate spans), not a failure.

Exits 0 when every requested check passes, 1 otherwise (each failure is
printed).
"""
import argparse
import json
import sys

METRIC_TYPES = {"counter", "gauge", "histogram", "series"}


def fail(errors, message):
    errors.append(message)
    print(f"FAIL: {message}", file=sys.stderr)


def check_trace(path, require_spans, require_span_args, errors):
    try:
        with open(path, encoding="utf-8") as f:
            root = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(errors, f"{path}: cannot parse: {e}")
        return
    events = root.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(errors, f"{path}: traceEvents missing or empty")
        return
    names = set()
    span_args = {}  # span name -> union of args keys over its X events
    complete = 0
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            fail(errors, f"{path}: traceEvents[{i}] is not an object")
            continue
        for key, kind in (("name", str), ("ph", str), ("pid", int),
                          ("tid", int)):
            if not isinstance(ev.get(key), kind):
                fail(errors,
                     f"{path}: traceEvents[{i}] missing {kind.__name__} "
                     f"field '{key}'")
        if ev.get("ph") == "X":
            complete += 1
            for key in ("ts", "dur"):
                if not isinstance(ev.get(key), (int, float)):
                    fail(errors,
                         f"{path}: traceEvents[{i}] 'X' event missing "
                         f"numeric '{key}'")
            if isinstance(ev.get("dur"), (int, float)) and ev["dur"] < 0:
                fail(errors, f"{path}: traceEvents[{i}] has negative dur")
            names.add(ev.get("name"))
            args = ev.get("args")
            if args is not None and not isinstance(args, dict):
                fail(errors,
                     f"{path}: traceEvents[{i}] args is not an object")
            elif isinstance(args, dict):
                span_args.setdefault(ev.get("name"), set()).update(args)
    if complete == 0:
        fail(errors, f"{path}: no 'X' (complete) span events")
    for span in require_spans:
        if span not in names:
            fail(errors, f"{path}: required span '{span}' not found "
                         f"(have: {sorted(n for n in names if n)[:20]})")
    for spec in require_span_args:
        name, _, key = spec.rpartition(":")
        if not name:
            fail(errors, f"--require-span-arg '{spec}': expected NAME:KEY")
            continue
        if name not in names:
            fail(errors, f"{path}: required span '{name}' not found")
        elif key not in span_args.get(name, set()):
            fail(errors, f"{path}: no '{name}' span carries args key "
                         f"'{key}' (have: {sorted(span_args.get(name, []))})")
    print(f"{path}: {len(events)} events, {complete} spans, "
          f"{len(names)} distinct span names")


def check_metrics(path, min_series, require_metrics, errors):
    try:
        with open(path, encoding="utf-8") as f:
            root = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(errors, f"{path}: cannot parse: {e}")
        return
    if root.get("schema") != "dlner-metrics-v1":
        fail(errors, f"{path}: schema is {root.get('schema')!r}, "
                     f"expected 'dlner-metrics-v1'")
    series = root.get("series")
    if not isinstance(series, dict):
        fail(errors, f"{path}: 'series' missing or not an object")
        return
    for name, body in series.items():
        if not isinstance(body, dict):
            fail(errors, f"{path}: series '{name}' is not an object")
            continue
        kind = body.get("type")
        if kind not in METRIC_TYPES:
            fail(errors, f"{path}: series '{name}' has invalid type {kind!r}")
        elif kind == "series":
            if not isinstance(body.get("points"), list):
                fail(errors, f"{path}: series '{name}' missing points list")
        elif kind == "histogram":
            for key in ("count", "sum", "min", "max", "p50", "p90", "p99"):
                if not isinstance(body.get(key), (int, float)):
                    fail(errors,
                         f"{path}: histogram '{name}' missing '{key}'")
        elif not isinstance(body.get("value"), (int, float)):
            fail(errors, f"{path}: {kind} '{name}' missing numeric 'value'")
    if len(series) < min_series:
        fail(errors, f"{path}: {len(series)} series < required {min_series}")
    for spec in require_metrics:
        name, _, key = spec.partition(":")
        if name not in series:
            have = sorted(series)[:20]
            fail(errors, f"{path}: required metric '{name}' not found "
                         f"(have: {have})")
            continue
        if key:
            value = series[name].get(key) if isinstance(series[name], dict) \
                else None
            if not isinstance(value, (int, float)) or value == 0:
                fail(errors, f"{path}: metric '{name}' key '{key}' is "
                             f"{value!r}, expected nonzero number")
    dropped = series.get("trace.dropped_spans")
    if isinstance(dropped, dict) and isinstance(dropped.get("value"),
                                                (int, float)):
        if dropped["value"] > 0:
            print(f"WARN: {path}: trace.dropped_spans = "
                  f"{dropped['value']:.0f} (span ring wraparound; the trace "
                  f"is missing its oldest spans — lower --trace-sample-rate "
                  f"or shorten the capture)", file=sys.stderr)
    print(f"{path}: {len(series)} series")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", help="Chrome trace_event JSON to validate")
    parser.add_argument("--require-span", action="append", default=[],
                        metavar="NAME",
                        help="span name that must appear (repeatable)")
    parser.add_argument("--require-span-arg", action="append", default=[],
                        metavar="NAME:KEY",
                        help="some span NAME must carry args key KEY "
                             "(repeatable)")
    parser.add_argument("--metrics", help="dlner-metrics-v1 JSON to validate")
    parser.add_argument("--min-series", type=int, default=1,
                        help="minimum number of metric series (default 1)")
    parser.add_argument("--require-metric", action="append", default=[],
                        metavar="NAME[:KEY]",
                        help="metric that must appear; with :KEY the key "
                             "must also be a nonzero number (repeatable)")
    args = parser.parse_args()
    if not args.trace and not args.metrics:
        parser.error("nothing to check: pass --trace and/or --metrics")

    errors = []
    if args.trace:
        check_trace(args.trace, args.require_span, args.require_span_arg,
                    errors)
    if args.metrics:
        check_metrics(args.metrics, args.min_series, args.require_metric,
                      errors)
    if errors:
        print(f"{len(errors)} check(s) failed", file=sys.stderr)
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
