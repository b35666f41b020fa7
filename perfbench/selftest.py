"""Show that every workload's output check can fail.

    python3 perfbench/selftest.py

For each workload: run the program once on small inputs, confirm the check
accepts the true outputs, then feed it deliberately corrupted copies (a mass
shifted by 1e-6, an atom dropped, a value nudged, a record flipped) and
confirm each is rejected.  Exits 1 if a clean output is rejected or a
corrupted one accepted.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import time

import run
from workloads import WORKLOADS, Recorder


def shift_mass(mu, delta=1e-6, index=0):
    masses = list(mu.masses)
    masses[index] += delta
    return dataclasses.replace(mu, masses=tuple(masses))


def drop_atom(mu):
    fields = [f.name for f in dataclasses.fields(mu)]
    return dataclasses.replace(mu, **{name: getattr(mu, name)[1:] for name in fields})


def shift_position(mu, delta):
    name = "positions" if hasattr(mu, "positions") else "angles"
    values = list(getattr(mu, name))
    values[1] += delta
    return dataclasses.replace(mu, **{name: tuple(values)})


def secular_line_cases(out):
    def at(k, fn):
        bad = list(out)
        bad[k] = fn(bad[k])
        return bad
    return {
        "mass shifted by 1e-6": at(0, shift_mass),
        "atom dropped": at(1, drop_atom),
        "position shifted by 1e-7": at(2, lambda mu: shift_position(mu, 1e-7)),
    }


def clark_circle_cases(out):
    def edit(fn, *path):
        bad = copy.deepcopy(out)
        holder = bad
        for key in path[:-1]:
            holder = holder[key]
        holder[path[-1]] = fn(holder[path[-1]])
        return bad

    def nudge(result):
        return dataclasses.replace(result, estimate=result.estimate + 1e-5)

    return {
        "clark_measure atom dropped": edit(drop_atom, "models", 0, 0, 0),
        "perturb_unitary mass shifted by 1e-6": edit(shift_mass, "models", 0, 1, 1),
        "Blaschke Clark mass shifted by 1e-6": edit(shift_mass, "blaschkes", 0, 0),
        "Blaschke Clark atom moved by 1e-8": edit(
            lambda mu: shift_position(mu, 1e-8), "blaschkes", 0, 1),
        "Blaschke Clark atom dropped": edit(drop_atom, "blaschkes", 0, 1),
        "disintegration estimate off by 1e-5": edit(nudge, "arcs", 0),
    }


def two_parameter_cases(out):
    values, smallest = out[0]
    nudged = list(values)
    nudged[-1] += 1e-6
    return {
        "knu value off by 1e-6": [(nudged, smallest)] + out[1:],
        "positivity minimum 0.4": [(values, 0.4)] + out[1:],
    }


def verify_all_cases(texts):
    report = json.loads(texts[0])
    flipped = copy.deepcopy(report)
    flipped["records"][0]["pass"] = False
    dropped = copy.deepcopy(report)
    dropped["records"].pop()
    dropped["summary"]["total"] -= 1
    return {
        "one record failing": [json.dumps(flipped, sort_keys=True, indent=1)],
        "one record missing": [json.dumps(dropped, sort_keys=True, indent=1)],
    }


CASES = {"secular-line": secular_line_cases, "clark-circle": clark_circle_cases,
         "two-parameter": two_parameter_cases, "verify-all": verify_all_cases}


def main() -> int:
    cl = run.load_program()
    bad = 0
    for name, cls in WORKLOADS.items():
        workload = cls(cl)
        inputs = workload.warmup_inputs(0)
        rec = Recorder(time.perf_counter)
        out = workload.run(inputs, rec)
        clean = workload.check(inputs, out)
        status = "accepted" if not clean and not rec.failed else "REJECTED"
        print(f"{name}: true outputs {status}")
        bad += status != "accepted"
        cases = CASES[name](out)
        for label, corrupted in cases.items():
            workload.reference = None  # judge each case by its own rule
            problems = workload.check(inputs, corrupted)
            verdict = "rejected" if problems else "ACCEPTED"
            print(f"  {label}: {verdict}" + (f" ({problems[0]})" if problems else ""))
            bad += not problems
        if name == "verify-all":
            workload.reference = [out[0].replace('"pass": true', '"pass": true ', 1)]
            problems = workload.finish(inputs)
            verdict = "rejected" if problems else "ACCEPTED"
            print(f"  report differs from the two-worker run: {verdict}")
            bad += not problems
    print("self-test", "failed" if bad else "passed")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
