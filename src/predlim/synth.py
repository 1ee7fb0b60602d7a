"""Oracle-controlled synthetic sequence generators.

Three mechanisms whose ideal top-1 accuracy is known in closed form:

- session_reset: a hidden preference set of m items, redrawn with probability
  rho each step; emissions come from the set with probability 1 - eps, else
  uniformly from all n items. Oracle hit rate (1 - eps)/m + eps/n.
- repeat_last: the next item repeats the current one with probability p, else
  is uniform. Oracle hit rate p + (1 - p)/n.
- context_switch: C pre-sampled item subsets of size m_c; the active context
  moves to a different one with probability s each step; emissions are
  in-context with probability 1 - eps. Oracle hit rate (1 - eps)/m_c + eps/n.

Given a target hit rate, invert_noise solves for the mechanism's free noise
parameter, which is how experiments hold difficulty fixed while sweeping the
item-space size. Generation is deterministic given the seed, with per-user
substreams so a user's sequence never depends on how many other users exist or
in what order they are produced.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .sequence_core import InteractionLog, log_from_sequences

__all__ = [
    "MECHANISMS",
    "GeneratorConfig",
    "SynthCorpus",
    "oracle_hit1",
    "invert_noise",
    "params_for",
    "generate",
    "simulate_oracle",
]


@dataclass(frozen=True)
class Mechanism:
    noise: str  # the free parameter invert_noise solves for, always the last
    fixed: dict  # the fixed parameters and their defaults, in params order
    draw: Callable  # (user rng, config, shared) -> (the user's items, their trace entries)
    set_size: str | None = None  # the size k of the active set; None for k = 1
    shared: Callable | None = None  # (corpus rng, config) -> the trace entries users share


def _emit(rng, config, table, row) -> np.ndarray:
    """Each step's item: a uniform member of table[row], or with chance eps any of n items."""
    member = rng.integers(0, table.shape[1], size=config.length)
    noise = rng.random(config.length) < config.params["eps"]
    uniform = rng.integers(0, config.n, size=config.length)
    return np.where(noise, uniform, table[row, member])


def _session_reset(rng, config, shared):
    n, t, m = config.n, config.length, config.params["m"]
    resets = rng.random(t) < config.params["rho"]
    resets[0] = True  # the first set must exist
    period = np.cumsum(resets) - 1
    n_periods = int(period[-1]) + 1
    if m == 1:  # choice(n, 1, replace=False) draws as integers(0, n) does, stream and all
        sets = rng.integers(0, n, (n_periods, 1))
    else:
        sets = np.array([rng.choice(n, size=m, replace=False) for _ in range(n_periods)])
    return _emit(rng, config, sets, period), {"period": period, "sets": sets}


def _repeat_last(rng, config, shared):
    t = config.length
    uniform = rng.integers(0, config.n, size=t)
    fresh = np.concatenate(([True], rng.random(t - 1) >= config.params["p"]))
    # source index per step: the most recent fresh draw
    return uniform[np.maximum.accumulate(np.where(fresh, np.arange(t), 0))], {}


def _context_pool(rng, config):
    c, m_c = config.params["c"], config.params["m_c"]
    return {"contexts": np.array([rng.choice(config.n, m_c, replace=False) for _ in range(c)])}


def _context_switch(rng, config, shared):
    c, t = config.params["c"], config.length
    c0 = int(rng.integers(0, c))
    switch = rng.random(t) < config.params["s"]
    switch[0] = False
    delta = rng.integers(1, c, size=t)  # switch always lands elsewhere
    cid = (c0 + np.cumsum(np.where(switch, delta, 0))) % c
    return _emit(rng, config, shared["contexts"], cid), {"context": cid}


# Every mechanism. p is the chance of repeating the previous item, which the
# oracle predicts; eps is the chance of a uniform draw over all n items.
MECHANISMS = {
    "session_reset": Mechanism("eps", {"m": 1, "rho": 0.05}, _session_reset, set_size="m"),
    "repeat_last": Mechanism("p", {}, _repeat_last),
    "context_switch": Mechanism("eps", {"c": 5, "m_c": 5, "s": 0.05}, _context_switch,
                                set_size="m_c", shared=_context_pool),
}
# The range of every generator parameter; "n" stands for the item-space size.
PARAM_RANGES = {"m": (1, "n"), "m_c": (1, "n"), "c": (2, math.inf),
                "rho": (0, 1), "s": (0, 1), "eps": (0, 1), "p": (0, 1)}


def _check_ranges(n: int, params: dict) -> None:
    """Raise naming the first of n and params outside its range."""
    if n < 2:
        raise ValueError("n must be >= 2")
    for name, value in params.items():
        lo, hi = PARAM_RANGES[name]
        if not lo <= value <= (n if hi == "n" else hi):
            raise ValueError(f"{name} must lie in [{lo}, {hi}], got {value}")


@dataclass(frozen=True)
class GeneratorConfig:
    mechanism: str
    n: int
    users: int
    length: int
    seed: int
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        expected = set(params_for(self.mechanism, None))
        if self.users < 1 or self.length < 2:
            raise ValueError("need users >= 1 and length >= 2")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if set(self.params) != expected:
            raise ValueError(
                f"{self.mechanism} needs params {sorted(expected)}, got {sorted(self.params)}"
            )
        _check_ranges(self.n, self.params)


@dataclass
class SynthCorpus:
    log: InteractionLog
    config: GeneratorConfig
    oracle_hit1: float
    latent_trace: dict | None = None


def oracle_hit1(config: GeneratorConfig) -> float:
    """Closed-form top-1 accuracy of a predictor that sees the latent state.

    The session_reset form for general m extends the known m = 1 case; it is
    cross-checked against simulate_oracle rather than taken on faith.
    """
    spec = MECHANISMS[config.mechanism]
    p = config.params
    k = p[spec.set_size] if spec.set_size else 1
    noise = p[spec.noise]
    if spec.noise == "p":
        return noise / k + (1.0 - noise) / config.n
    return (1.0 - noise) / k + noise / config.n


def invert_noise(mechanism: str, target_hit1: float, n: int, **fixed) -> float:
    """Solve the oracle closed form for the free noise parameter.

    repeat_last solves for p, the others for eps. The active-set size comes
    from fixed, or its default, as in params_for. Errors name the feasible
    target interval when the requested level cannot be reached. Round-trip
    through oracle_hit1 agrees with the target to 1e-12.
    """
    params = params_for(mechanism, None, **fixed)
    spec = MECHANISMS[mechanism]
    del params[spec.noise]
    _check_ranges(n, params)
    k = params[spec.set_size] if spec.set_size else 1
    lo, hi = min(1.0 / k, 1.0 / n), max(1.0 / k, 1.0 / n)
    if spec.noise == "p":
        value = (target_hit1 - 1.0 / n) / (1.0 / k - 1.0 / n)
    else:
        value = (1.0 / k - target_hit1) / (1.0 / k - 1.0 / n) if k != n else 0.0
    if not (lo <= target_hit1 <= hi) or not (-1e-12 <= value <= 1.0 + 1e-12):
        raise ValueError(
            f"target {target_hit1} outside feasible interval [{lo}, {hi}] for {mechanism}"
        )
    return min(max(value, 0.0), 1.0)


def params_for(mechanism: str, noise: float | None, **fixed) -> dict:
    """A mechanism's generator params, with noise as its free parameter.

    Each fixed parameter takes its value from fixed, or its default where
    fixed leaves it out or None. Names the mechanism does not read are
    ignored, so callers may pass them all.
    """
    if mechanism not in MECHANISMS:
        raise ValueError(f"mechanism must be one of {tuple(MECHANISMS)}")
    spec = MECHANISMS[mechanism]
    params = {k: default if fixed.get(k) is None else fixed[k] for k, default in spec.fixed.items()}
    return {**params, spec.noise: noise}


def generate(config: GeneratorConfig) -> SynthCorpus:
    """Generate a corpus plus the latent trace its oracle needs.

    User u draws from substream (seed, 0, u) and what all users share, the
    context pool, from (seed, 1), so output is identical across runs and
    independent of user order. Reset and switch events take effect before the
    step's emission. The log uses an identity vocabulary of size n: unseen items
    keep count 0, so the vocabulary size equals the configured item-space size.
    """
    spec = MECHANISMS[config.mechanism]
    shared = spec.shared(np.random.default_rng([config.seed, 1]), config) if spec.shared else {}
    draws = [spec.draw(np.random.default_rng([config.seed, 0, u]), config, shared)
             for u in range(config.users)]
    trace = {key: [entries[key] for _, entries in draws] for key in draws[0][1]}
    log = log_from_sequences([items for items, _ in draws], n_items=config.n)
    return SynthCorpus(log=log, config=config, oracle_hit1=oracle_hit1(config),
                       latent_trace={**trace, **shared})


def simulate_oracle(corpus: SynthCorpus) -> float:
    """Empirical hit rate of the latent-state-aware predictor.

    At each step t >= 2 the oracle predicts the mode of the true conditional:
    the lowest-index member of the active set (session_reset, context_switch)
    or the previous item (repeat_last). Expectation equals oracle_hit1.
    """
    if corpus.latent_trace is None:
        raise ValueError("corpus has no latent trace")
    config, trace = corpus.config, corpus.latent_trace
    x = corpus.log.items.reshape(config.users, config.length)  # every user has length events
    if config.mechanism == "repeat_last":
        predicted = x[:, :-1]
    elif config.mechanism == "session_reset":
        predicted = np.array([s.min(axis=1)[p[1:]] for s, p in zip(trace["sets"], trace["period"])])
    else:
        predicted = trace["contexts"].min(axis=1)[np.array(trace["context"])[:, 1:]]
    return float(np.mean(predicted == x[:, 1:]))
