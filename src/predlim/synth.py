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
    set_size: str | None = None  # the size k of the active set; None for k = 1


# Every mechanism. p is the chance of repeating the previous item, which the
# oracle predicts; eps is the chance of a uniform draw over all n items.
MECHANISMS = {
    "session_reset": Mechanism("eps", {"m": 1, "rho": 0.05}, set_size="m"),
    "repeat_last": Mechanism("p", {}),
    "context_switch": Mechanism("eps", {"c": 5, "m_c": 5, "s": 0.05}, set_size="m_c"),
}
# The range of every generator parameter; "n" stands for the item-space size.
PARAM_RANGES = {"m": (1, "n"), "m_c": (1, "n"), "c": (2, math.inf),
                "rho": (0, 1), "s": (0, 1), "eps": (0, 1), "p": (0, 1)}


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
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if self.users < 1 or self.length < 2:
            raise ValueError("need users >= 1 and length >= 2")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if set(self.params) != expected:
            raise ValueError(
                f"{self.mechanism} needs params {sorted(expected)}, got {sorted(self.params)}"
            )
        for name, value in self.params.items():
            lo, hi = PARAM_RANGES[name]
            if not lo <= value <= (self.n if hi == "n" else hi):
                raise ValueError(f"{name} must lie in [{lo}, {hi}], got {value}")


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


def _user_rng(seed: int, user_index: int) -> np.random.Generator:
    return np.random.default_rng([seed, 0, user_index])


def _corpus_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, 1])


def _generate_session_reset(config: GeneratorConfig):
    n, t = config.n, config.length
    m, rho, eps = config.params["m"], config.params["rho"], config.params["eps"]
    sequences, period_trace, set_trace = [], [], []
    for u in range(config.users):
        rng = _user_rng(config.seed, u)
        resets = rng.random(t) < rho
        resets[0] = True  # the first set must exist
        period = np.cumsum(resets) - 1
        n_periods = int(period[-1]) + 1
        sets = np.empty((n_periods, m), dtype=np.int64)
        for pd in range(n_periods):
            sets[pd] = rng.choice(n, size=m, replace=False)
        member = rng.integers(0, m, size=t)
        noise = rng.random(t) < eps
        uniform = rng.integers(0, n, size=t)
        x = np.where(noise, uniform, sets[period, member])
        sequences.append(x)
        period_trace.append(period)
        set_trace.append(sets)
    trace = {"period": period_trace, "sets": set_trace}
    return sequences, trace


def _generate_repeat_last(config: GeneratorConfig):
    n, t = config.n, config.length
    p = config.params["p"]
    sequences = []
    for u in range(config.users):
        rng = _user_rng(config.seed, u)
        uniform = rng.integers(0, n, size=t)
        repeat = rng.random(t - 1) < p
        fresh = np.empty(t, dtype=bool)
        fresh[0] = True
        fresh[1:] = ~repeat
        # source index per step: the most recent fresh draw
        source = np.maximum.accumulate(np.where(fresh, np.arange(t), 0))
        sequences.append(uniform[source])
    return sequences, {}


def _generate_context_switch(config: GeneratorConfig):
    n, t = config.n, config.length
    c = config.params["c"]
    m_c, s, eps = config.params["m_c"], config.params["s"], config.params["eps"]
    crng = _corpus_rng(config.seed)
    contexts = np.empty((c, m_c), dtype=np.int64)
    for ci in range(c):
        contexts[ci] = crng.choice(n, size=m_c, replace=False)
    sequences, context_trace = [], []
    for u in range(config.users):
        rng = _user_rng(config.seed, u)
        c0 = int(rng.integers(0, c))
        switch = rng.random(t) < s
        switch[0] = False
        delta = rng.integers(1, c, size=t)  # switch always lands elsewhere
        cid = (c0 + np.cumsum(np.where(switch, delta, 0))) % c
        member = rng.integers(0, m_c, size=t)
        noise = rng.random(t) < eps
        uniform = rng.integers(0, n, size=t)
        x = np.where(noise, uniform, contexts[cid, member])
        sequences.append(x)
        context_trace.append(cid)
    trace = {"context": context_trace, "contexts": contexts}
    return sequences, trace


def generate(config: GeneratorConfig) -> SynthCorpus:
    """Generate a corpus plus the latent trace its oracle needs.

    User u draws from substream (seed, 0, u) and the shared context pool from
    (seed, 1), so output is identical across runs and independent of user
    order. Reset and switch events take effect before the step's emission. The
    log uses an identity vocabulary of size n: unseen items keep count 0, so
    the vocabulary size equals the configured item-space size.
    """
    builder = {
        "session_reset": _generate_session_reset,
        "repeat_last": _generate_repeat_last,
        "context_switch": _generate_context_switch,
    }[config.mechanism]
    sequences, trace = builder(config)
    log = log_from_sequences(sequences, n_items=config.n)
    return SynthCorpus(
        log=log, config=config, oracle_hit1=oracle_hit1(config), latent_trace=trace
    )


def simulate_oracle(corpus: SynthCorpus) -> float:
    """Empirical hit rate of the latent-state-aware predictor.

    At each step t >= 2 the oracle predicts the mode of the true conditional:
    the lowest-index member of the active set (session_reset, context_switch)
    or the previous item (repeat_last). Expectation equals oracle_hit1.
    """
    if corpus.latent_trace is None:
        raise ValueError("corpus has no latent trace")
    config = corpus.config
    trace = corpus.latent_trace
    hits = 0
    events = 0
    for u, seq in enumerate(corpus.log.sequences):
        x = seq.items
        if config.mechanism == "repeat_last":
            predicted = x[:-1]
        elif config.mechanism == "session_reset":
            period = trace["period"][u]
            predicted = trace["sets"][u].min(axis=1)[period[1:]]
        else:
            cid = trace["context"][u]
            predicted = trace["contexts"].min(axis=1)[cid[1:]]
        hits += int((predicted == x[1:]).sum())
        events += len(x) - 1
    return hits / events
