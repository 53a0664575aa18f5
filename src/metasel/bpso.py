"""Binary particle swarm search over meta-feature subsets.

The fitness of a candidate mask is the distance between the competence
estimates of a selector trained on the masked training half and the ideal 0/1
competences, evaluated on held-out rows::

    d = sqrt(sum_j sum_i (delta_lambda - delta_ideal)^2) / (N * M)

(the normalizer sits outside the root). Lower is better; an empty mask is
assigned an infinite sentinel so it can never win.

Overfitting control follows the global-validation scheme: after every
position update, each particle is additionally scored on a separate
validation meta-dataset, and an archive keeps the best-validated mask ever
seen. The archived mask, not the swarm's best, is the final answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .metaclassifier import MetaClassifier, MetaTrainConfig, train_meta

__all__ = [
    "BpsoConfig",
    "Swarm",
    "Archive",
    "transfer_s",
    "transfer_v",
    "oracle_competence",
    "MaskEvaluator",
    "step",
    "optimize",
]


def transfer_s(v):
    """S-shaped velocity-to-probability map: 1 / (1 + e^(-2x))."""
    return 1.0 / (1.0 + np.exp(-2.0 * np.asarray(v, dtype=float)))


def transfer_v(v):
    """V-shaped velocity-to-probability map: |(2/pi) arctan((pi/2) x)|."""
    return np.abs((2.0 / np.pi) * np.arctan((np.pi / 2.0) * np.asarray(v, dtype=float)))


_TRANSFERS = {"S": transfer_s, "V": transfer_v}


def oracle_competence(pool, x, true_label: int) -> np.ndarray:
    """Ideal competence (M,) of every pool member on one sample: 1 iff the
    member predicts the true label."""
    labels, _ = pool.predict_batch(np.atleast_2d(x))
    return (labels[:, 0] == true_label).astype(int)


def oracle_distance(estimates, ideal) -> float:
    """Distance between competence estimates and the ideal 0/1 competences
    over all (sample, classifier) rows: sqrt of the summed squared
    differences, divided by the row count (normalizer outside the root)."""
    diff = np.asarray(estimates, dtype=float) - np.asarray(ideal, dtype=float)
    return float(np.sqrt((diff ** 2).sum()) / len(diff))


@dataclass
class BpsoConfig:
    swarm_size: int = 20
    max_generations: int = 100
    inertia: float = 1.0
    c1: float = 2.0
    c2: float = 2.0
    stall_limit: int = 5
    transfer: str = "V"
    v_max: float = 6.0
    runs: int = 30
    seed: int = 0

    def validate(self):
        if self.transfer not in _TRANSFERS:
            raise ValueError("transfer must be 'S' or 'V'")
        for name in ("swarm_size", "max_generations", "stall_limit", "runs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.v_max <= 0 or self.inertia <= 0 or self.c1 <= 0 or self.c2 <= 0:
            raise ValueError("inertia, accelerations and v_max must be positive")


@dataclass
class Swarm:
    """The whole swarm as arrays: one row per particle, one column per bit."""

    position: np.ndarray          # (P, D) bool masks
    velocity: np.ndarray          # (P, D)
    best_position: np.ndarray     # (P, D) personal bests
    best_fitness: np.ndarray      # (P,)
    fitness: np.ndarray           # (P,) fitness of the last evaluated positions
    gbest_position: np.ndarray    # (D,)
    gbest_fitness: float = np.inf
    rng: np.random.Generator = None


@dataclass
class Archive:
    """Best mask under validation fitness, per the global-validation scheme."""

    mask: np.ndarray | None = None
    validation_fitness: float = np.inf
    generation: int = -1
    run: int = -1
    trace: list = field(default_factory=list)
    audit: list = field(default_factory=list)


class MaskEvaluator:
    """Trains one selector per mask (cached) and scores masks by the ideal
    competence distance on arbitrary row sets."""

    def __init__(self, train_rows, train_labels, meta_config: MetaTrainConfig | None = None):
        self.train_rows = np.asarray(train_rows, dtype=float)
        self.train_labels = np.asarray(train_labels, dtype=float)
        self.meta_config = meta_config or MetaTrainConfig()
        self._models: dict[bytes, MetaClassifier | None] = {}

    def model_for(self, mask) -> MetaClassifier | None:
        mask = np.asarray(mask, dtype=bool)
        key = mask.tobytes()
        if key not in self._models:
            if not mask.any():
                self._models[key] = None
            else:
                self._models[key] = train_meta(self.train_rows[:, mask],
                                               self.train_labels, self.meta_config)
        return self._models[key]

    def distance(self, mask, rows, labels) -> float:
        mask = np.asarray(mask, dtype=bool)
        model = self.model_for(mask)
        if model is None:
            return np.inf
        delta = model.competence_batch(np.asarray(rows, dtype=float)[:, mask])
        return oracle_distance(delta, labels)


def init_swarm(dim: int, config: BpsoConfig, rng: np.random.Generator) -> Swarm:
    P = config.swarm_size
    pos = rng.random((P, dim)) < 0.5
    return Swarm(position=pos, velocity=np.zeros((P, dim)), best_position=pos.copy(),
                 best_fitness=np.full(P, np.inf), fitness=np.full(P, np.inf),
                 gbest_position=pos[0].copy(), rng=rng)


def step(swarm: Swarm, config: BpsoConfig, fitness_fn) -> bool:
    """One generation: evaluate current positions, update personal and global
    bests on strict improvement, then move every particle.

    ``fitness_fn`` is called once per particle, in row order. The global best
    is the first particle with the lowest fitness, and only replaces the old
    one when strictly better. Velocities use a fresh uniform random vector per
    cognitive and social term and are clamped to [-v_max, v_max]. A bit flips
    when a uniform draw falls below the transfer function of its velocity,
    otherwise it is kept. The draws come as one (P, 3, D) block per
    generation: per particle r1, r2, then the flip draws. Returns True when
    the global best improved this generation.
    """
    transfer = _TRANSFERS[config.transfer]
    pos = swarm.position
    swarm.fitness = np.array([fitness_fn(row) for row in pos], dtype=float)
    better = swarm.fitness < swarm.best_fitness
    swarm.best_fitness = np.where(better, swarm.fitness, swarm.best_fitness)
    swarm.best_position = np.where(better[:, None], pos, swarm.best_position)
    lead = int(np.argmin(swarm.fitness))
    improved = bool(swarm.fitness[lead] < swarm.gbest_fitness)
    if improved:
        swarm.gbest_fitness = float(swarm.fitness[lead])
        swarm.gbest_position = pos[lead].copy()

    r1, r2, draw = np.moveaxis(swarm.rng.random((len(pos), 3, pos.shape[1])), 1, 0)
    posf = pos.astype(float)
    velocity = (config.inertia * swarm.velocity
                + config.c1 * r1 * (swarm.best_position.astype(float) - posf)
                + config.c2 * r2 * (swarm.gbest_position.astype(float) - posf))
    swarm.velocity = np.clip(velocity, -config.v_max, config.v_max)
    swarm.position = pos ^ (draw < transfer(swarm.velocity))
    return improved


def optimize(train_rows, train_labels, opt_rows, opt_labels, val_rows, val_labels,
             config: BpsoConfig | None = None,
             meta_config: MetaTrainConfig | None = None) -> Archive:
    """Full mask search with global validation.

    Per run: a fresh swarm is initialized with Bernoulli(0.5) bits; each
    generation's fitness on the optimization rows drives the personal/global
    bests, every post-move particle is additionally scored on the validation
    rows, and the archive keeps the best-validated mask (the first particle
    with the lowest score, on strict improvement). A run stops when the swarm
    best fails to improve for ``stall_limit`` consecutive generations or at
    the generation cap. The archive with the best validation fitness over all
    runs is returned (ties keep the earlier run).

    The returned archive's ``trace`` holds one row per generation of every
    run (run, generation, gbest fitness, archive validation fitness, mean
    swarm fitness); its ``audit`` holds every validation fitness computed, in
    order.
    """
    config = config or BpsoConfig()
    config.validate()
    dim = np.asarray(train_rows).shape[1]
    evaluator = MaskEvaluator(train_rows, train_labels, meta_config)
    fit_opt = lambda mask: evaluator.distance(mask, opt_rows, opt_labels)

    best = Archive()
    all_trace, all_audit = [], []
    for run in range(config.runs):
        rng = np.random.default_rng([config.seed, run])
        swarm = init_swarm(dim, config, rng)
        archive = Archive(run=run)
        stall = 0
        for gen in range(1, config.max_generations + 1):
            improved = step(swarm, config, fit_opt)
            val = np.array([evaluator.distance(row, val_rows, val_labels)
                            for row in swarm.position], dtype=float)
            all_audit.extend(val.tolist())
            lead = int(np.argmin(val))
            if val[lead] < archive.validation_fitness:
                archive.validation_fitness = float(val[lead])
                archive.mask = swarm.position[lead].copy()
                archive.generation = gen
            all_trace.append((run, gen, swarm.gbest_fitness, archive.validation_fitness,
                              float(np.mean(swarm.fitness))))
            stall = 0 if improved else stall + 1
            if stall >= config.stall_limit:
                break
        if archive.mask is not None and archive.validation_fitness < best.validation_fitness:
            best = archive
    if best.mask is None:
        raise RuntimeError("optimization never produced a valid mask")
    best.trace = all_trace
    best.audit = all_audit
    return best
