"""The benchmark's workloads: which ``prodsums`` CLI calls each one makes.

Shared by ``run.py`` and its child processes (``child.py``).
It imports neither numpy nor prodsums, so a child can import it before it
starts timing its own set-up.

An *operation* is one clt row or one asclt kind run; it is the unit that
``attempted`` and ``failed`` count.  A *replicate* is one sampled path and
a *step* is one draw of a path, which gives the two unit costs
``us_per_replicate`` and ``ns_per_step`` the same meaning on every
workload.
"""

from __future__ import annotations

DEFAULT_SEED = 0

WORKLOADS = {
    # few long replicates: the exact statistics kernels dominate
    "clt-loo-large-n": {
        "command": "clt", "dist": "exponential:1", "kinds": ["loo"],
        "n": [1000, 10000], "reps": 150, "workers": 1,
    },
    # many tiny replicates: sampling, per-call overhead, KS and the pool
    "clt-rw-small-n": {
        "command": "clt", "dist": "gamma:4:0.5", "kinds": ["rw"],
        "n": [10, 100], "reps": 8000, "workers": 2,
    },
    # one long trajectory per kind: the per-step streaming/asclt loop
    "asclt-path": {
        "command": "asclt", "dist": "exponential:1", "kinds": ["loo", "rw"],
        "N": 200_000, "exact_cutoff": 2000,
    },
}

# sizes for the self-tests, which check the harness rather than the program
TINY = {
    "clt-loo-large-n": {"n": [20, 50], "reps": 20},
    "clt-rw-small-n": {"reps": 200},
    "asclt-path": {"N": 3000, "exact_cutoff": 100},
}


def workload(name: str, tiny: bool = False) -> dict:
    """The workload's parameters, with the tiny overrides applied."""
    w = dict(WORKLOADS[name], name=name)
    if tiny:
        w.update(TINY[name])
    return w


def cli_calls(w: dict, seed: int, out: str, workers: int | None = None) -> list[list[str]]:
    """The argv lists the workload passes to ``prodsums.cli.main``."""
    common = ["--dist", w["dist"], "--seed", str(seed), "--out", out]
    if w["command"] == "clt":
        return [[
            "clt", "--stat", w["kinds"][0], "--n", ",".join(map(str, w["n"])),
            "--reps", str(w["reps"]),
            "--workers", str(w["workers"] if workers is None else workers),
            *common,
        ]]
    return [
        ["asclt", "--stat", kind, "--N", str(w["N"]),
         "--exact-cutoff", str(w["exact_cutoff"]), *common]
        for kind in w["kinds"]
    ]


def operations(w: dict) -> int:
    return len(w["n"]) if w["command"] == "clt" else len(w["kinds"])


def replicates(w: dict) -> int:
    return len(w["n"]) * w["reps"] if w["command"] == "clt" else len(w["kinds"])


def steps(w: dict) -> int:
    if w["command"] == "clt":
        return sum(w["n"]) * w["reps"]
    return len(w["kinds"]) * w["N"]
