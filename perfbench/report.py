"""The benchmark's metric printer and its checks.

The perfbench binary prints one raw JSON line: the correctness tally plus
every metric it computed. This module turns that line into the result the
benchmark prints, with each metric of the selected group (end-to-end for
untraced runs, per-layer for traced ones) named and given its unit from
BENCHMARK.json, and refuses output that breaks that file's contract. It also
computes the run-to-run spreads the steadiness mode prints.
"""

import json
import math
import re
import statistics

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class ContractError(ValueError):
    """Output or configuration that breaks the benchmark contract."""


def load_spec(path):
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    check_spec(spec)
    return spec


def check_spec(spec):
    """Raises ContractError when BENCHMARK.json is outside its limits."""
    expected = {"command", "paths", "run_seconds", "workloads", "end_to_end",
                "per_layer"}
    if set(spec) != expected:
        raise ContractError(f"keys {sorted(spec)} != {sorted(expected)}")
    if not 2 <= len(spec["workloads"]) <= 8:
        raise ContractError("2 to 8 workloads")
    if not 1 <= len(spec["end_to_end"]) <= 16:
        raise ContractError("1 to 16 end-to-end metrics")
    if not 1 <= len(spec["per_layer"]) <= 128:
        raise ContractError("1 to 128 per-layer metrics")
    if not (isinstance(spec["run_seconds"], int)
            and 1 <= spec["run_seconds"] <= 60):
        raise ContractError("run_seconds must be a whole number in 1..60")
    names = set()
    for entry in spec["workloads"]:
        if set(entry) != {"name", "why"} or len(entry["why"]) > 200 \
                or "\n" in entry["why"]:
            raise ContractError(f"workload {entry}")
        _check_name(entry["name"], names)
    for entry in spec["end_to_end"]:
        if set(entry) != {"name", "unit", "better", "bound"}:
            raise ContractError(f"end-to-end metric {entry}")
        if not 0 < entry["bound"] <= 0.25:
            raise ContractError(f"{entry['name']}: bound must be in (0, 0.25]")
        _check_metric(entry, names)
    for entry in spec["per_layer"]:
        if set(entry) != {"name", "unit", "better"}:
            raise ContractError(f"per-layer metric {entry}")
        _check_metric(entry, names)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        raise ContractError("setup_s (unit s, lower is better) is required")
    if setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        raise ContractError("setup_s must carry the largest bound")


def _check_name(name, seen):
    if not NAME.match(name) or name in seen:
        raise ContractError(f"bad or repeated name {name!r}")
    seen.add(name)


def _check_metric(entry, seen):
    _check_name(entry["name"], seen)
    if not UNIT.match(entry["unit"]) or entry["better"] not in ("lower",
                                                                 "higher"):
        raise ContractError(f"metric {entry}")


def result(raw, spec, trace):
    """The printed result for one run: correct/attempted/failed and every
    metric of the traced or untraced group, each with its unit."""
    group = spec["per_layer"] if trace else spec["end_to_end"]
    measured = raw.get("per_layer" if trace else "end_to_end", {})
    attempted, failed = raw.get("attempted"), raw.get("failed")
    if not (isinstance(attempted, int) and isinstance(failed, int)
            and attempted >= 1 and 0 <= failed <= attempted):
        raise ContractError(f"attempted={attempted!r} failed={failed!r}")
    correct = raw.get("correct") is True and failed == 0
    metrics = {}
    for entry in group:
        value = measured.get(entry["name"])
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or not math.isfinite(value):
            raise ContractError(f"{entry['name']}: no finite value")
        # End-to-end metrics are never 0 on a correct run; a 0 means the
        # phase that measures it did not run.
        if correct and not trace and value <= 0:
            raise ContractError(f"{entry['name']}: {value} is not positive")
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) as the acceptance check takes
    them: statistics.quantiles(values, n=4)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else math.inf


def steadiness_table(runs, spec):
    """Lines reporting each end-to-end metric's spread over `runs` (one
    {name: value} dict per run) against a third of its bound, which is the
    target that leaves room for run-to-run drift."""
    lines = [f"{'metric':<20}{'median':>14}{'q1':>14}{'q3':>14}"
             f"{'spread':>9}{'bound':>7}  verdict"]
    for entry in spec["end_to_end"]:
        values = [run[entry["name"]] for run in runs]
        med, q1, q3, share = spread(values)
        if entry["name"] == "setup_s":
            verdict = "setup (spread not gated)"
        elif share <= entry["bound"] / 3:
            verdict = "steady"
        elif share <= entry["bound"]:
            verdict = "within bound, above a third of it"
        else:
            verdict = "TOO NOISY"
        lines.append(f"{entry['name']:<20}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                     f"{share:>9.3f}{entry['bound']:>7.2f}  {verdict}")
    return lines
