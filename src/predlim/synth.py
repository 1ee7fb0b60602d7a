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

from dataclasses import dataclass, field

import numpy as np

from .sequence_core import InteractionLog, log_from_sequences

__all__ = [
    "GeneratorConfig",
    "SynthCorpus",
    "oracle_hit1",
    "invert_noise",
    "params_for",
    "generate",
    "simulate_oracle",
]

MECHANISMS = ("session_reset", "repeat_last", "context_switch")


@dataclass(frozen=True)
class GeneratorConfig:
    mechanism: str
    n: int
    users: int
    length: int
    seed: int
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.mechanism not in MECHANISMS:
            raise ValueError(f"mechanism must be one of {MECHANISMS}")
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if self.users < 1 or self.length < 2:
            raise ValueError("need users >= 1 and length >= 2")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        expected = set(params_for(self.mechanism, *[None] * 6))  # the names params_for builds
        if set(self.params) != expected:
            raise ValueError(
                f"{self.mechanism} needs params {sorted(expected)}, got {sorted(self.params)}"
            )
        p = self.params
        if self.mechanism == "session_reset":
            if not (1 <= p["m"] <= self.n):
                raise ValueError("need 1 <= m <= n")
            if not (0.0 <= p["rho"] <= 1.0 and 0.0 <= p["eps"] <= 1.0):
                raise ValueError("rho and eps must lie in [0, 1]")
        elif self.mechanism == "repeat_last":
            if not (0.0 <= p["p"] <= 1.0):
                raise ValueError("p must lie in [0, 1]")
        else:
            if p["c"] < 2:
                raise ValueError("need c >= 2 contexts")
            if not (1 <= p["m_c"] <= self.n):
                raise ValueError("need 1 <= m_c <= n")
            if not (0.0 <= p["s"] <= 1.0 and 0.0 <= p["eps"] <= 1.0):
                raise ValueError("s and eps must lie in [0, 1]")


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
    n = config.n
    p = config.params
    if config.mechanism == "session_reset":
        return (1.0 - p["eps"]) / p["m"] + p["eps"] / n
    if config.mechanism == "repeat_last":
        return p["p"] + (1.0 - p["p"]) / n
    return (1.0 - p["eps"]) / p["m_c"] + p["eps"] / n


def invert_noise(mechanism: str, target_hit1: float, **fixed) -> float:
    """Solve the oracle closed form for the free noise parameter.

    repeat_last solves for p, the others for eps. Errors name the feasible
    target interval when the requested level cannot be reached. Round-trip
    through oracle_hit1 agrees with the target to 1e-12.
    """
    if mechanism not in MECHANISMS:
        raise ValueError(f"mechanism must be one of {MECHANISMS}")
    n = fixed["n"]
    if mechanism == "repeat_last":
        lo, hi = 1.0 / n, 1.0
        value = (target_hit1 - 1.0 / n) / (1.0 - 1.0 / n)
    else:
        k = fixed["m"] if mechanism == "session_reset" else fixed["m_c"]  # active set size
        lo, hi = min(1.0 / k, 1.0 / n), max(1.0 / k, 1.0 / n)
        value = (1.0 / k - target_hit1) / (1.0 / k - 1.0 / n) if k != n else 0.0
    if not (lo <= target_hit1 <= hi) or not (-1e-12 <= value <= 1.0 + 1e-12):
        raise ValueError(
            f"target {target_hit1} outside feasible interval [{lo}, {hi}] for {mechanism}"
        )
    return min(max(value, 0.0), 1.0)


def params_for(mechanism: str, noise: float, m, rho, c, m_c, s) -> dict:
    """A mechanism's generator params, with noise as its free parameter.

    noise is p for repeat_last and eps for the others; the fixed values a
    mechanism does not use are ignored, so callers may pass them all.
    """
    if mechanism == "session_reset":
        return {"m": m, "rho": rho, "eps": noise}
    if mechanism == "repeat_last":
        return {"p": noise}
    if mechanism == "context_switch":
        return {"c": c, "m_c": m_c, "s": s, "eps": noise}
    raise ValueError(f"mechanism must be one of {MECHANISMS}")


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
