"""The benchmark's workloads: the config each one hands to the CLI.

Every workload is generated from the benchmark seed alone; the program sees
only the resulting JSON config. ``toy`` shrinks a workload to a size the
smoke tests run in seconds while keeping its shape and its checks.

An operation is one trained arm of one (seed, depth) cell for ``deep`` and
``heat``, and one instance for ``spectrum``.
"""

from __future__ import annotations

# Depths of the deep sweep: one moderate depth, and depth 14, where the RY
# kernel's temporaries cost a page fault storm (see README).
DEEP_DEPTHS = [6, 14]
DEEP_STEPS = 20
HEAT_STEPS = 6000
SPECTRUM_INSTANCES = 150


def _deep(seed: int, toy: bool) -> dict:
    return {
        "kind": "sweep_depth",
        "n": 8 if toy else 128,
        "density": 0.5 if toy else 0.2,
        "seeds": [2 * seed + 1, 2 * seed + 2],
        "depths": [1, 2] if toy else list(DEEP_DEPTHS),
        "vqls": {"iterations": 3 if toy else DEEP_STEPS, "mode": "hermitized"},
    }


def _heat(seed: int, toy: bool) -> dict:
    return {
        "kind": "heat",
        "n": 16 if toy else 128,
        "seeds": [seed],
        "heat_rate": 1.0,
        "rod_length": 1.0,
        "vqls": {"iterations": 1500 if toy else HEAT_STEPS, "mode": "direct", "depth": 0},
    }


def _spectrum(seed: int, toy: bool) -> dict:
    count = 5 if toy else SPECTRUM_INSTANCES
    return {
        "kind": "spectrum",
        "n": 16 if toy else 128,
        "density": 0.3 if toy else 0.2,
        "seeds": list(range(count * seed + 1, count * seed + count + 1)),
    }


WORKLOADS = {
    "deep": ("sweep-depth", _deep),
    "heat": ("heat", _heat),
    "spectrum": ("spectrum", _spectrum),
}


def make_config(name: str, seed: int, toy: bool = False) -> tuple[str, dict]:
    """(CLI subcommand, config dict) of one workload at one benchmark seed."""
    if seed < 0:
        raise ValueError("the benchmark seed must be >= 0")
    command, build = WORKLOADS[name]
    return command, build(seed, toy)


def operations(config: dict) -> int:
    """Operations one round of this config attempts."""
    if config["kind"] == "sweep_depth":
        return 2 * len(config["seeds"]) * len(config["depths"])
    if config["kind"] == "heat":
        return 2
    return len(config["seeds"])
