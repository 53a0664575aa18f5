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
    "Particle",
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
class Particle:
    position: np.ndarray          # bool mask of length D
    velocity: np.ndarray
    best_position: np.ndarray
    best_fitness: float = np.inf
    fitness: float = np.inf


@dataclass
class Swarm:
    particles: list
    gbest_position: np.ndarray
    gbest_fitness: float = np.inf
    generation: int = 0
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
    particles = []
    for _ in range(config.swarm_size):
        pos = rng.random(dim) < 0.5
        particles.append(Particle(position=pos, velocity=np.zeros(dim),
                                  best_position=pos.copy()))
    return Swarm(particles=particles, gbest_position=particles[0].position.copy(),
                 rng=rng)


def step(swarm: Swarm, config: BpsoConfig, fitness_fn) -> bool:
    """One generation: evaluate current positions, update personal and global
    bests on strict improvement, then move every particle.

    Velocities use a fresh uniform random vector per cognitive and social
    term and are clamped to [-v_max, v_max]. A bit flips when a uniform draw
    falls below the transfer function of its velocity, otherwise it is kept.
    Returns True when the global best improved this generation.
    """
    rng = swarm.rng
    transfer = _TRANSFERS[config.transfer]
    improved = False
    for part in swarm.particles:
        part.fitness = fitness_fn(part.position)
        if part.fitness < part.best_fitness:
            part.best_fitness = part.fitness
            part.best_position = part.position.copy()
        if part.fitness < swarm.gbest_fitness:
            swarm.gbest_fitness = part.fitness
            swarm.gbest_position = part.position.copy()
            improved = True
    for part in swarm.particles:
        pos = part.position.astype(float)
        r1 = rng.random(len(pos))
        r2 = rng.random(len(pos))
        part.velocity = (config.inertia * part.velocity
                         + config.c1 * r1 * (part.best_position.astype(float) - pos)
                         + config.c2 * r2 * (swarm.gbest_position.astype(float) - pos))
        np.clip(part.velocity, -config.v_max, config.v_max, out=part.velocity)
        flip = rng.random(len(pos)) < transfer(part.velocity)
        part.position = np.where(flip, ~part.position, part.position)
    swarm.generation += 1
    return improved


def optimize(train_rows, train_labels, opt_rows, opt_labels, val_rows, val_labels,
             config: BpsoConfig | None = None,
             meta_config: MetaTrainConfig | None = None,
             collect_trace: bool = False, audit: bool = False) -> Archive:
    """Full mask search with global validation.

    Per run: a fresh swarm is initialized with Bernoulli(0.5) bits; each
    generation's fitness on the optimization rows drives the personal/global
    bests, every post-move particle is additionally scored on the validation
    rows, and the archive keeps the best-validated mask. A run stops when the
    swarm best fails to improve for ``stall_limit`` consecutive generations or
    at the generation cap. The archive with the best validation fitness over
    all runs is returned (ties keep the earlier run).

    ``collect_trace`` records per-generation rows (run, generation, gbest
    fitness, archive validation fitness, mean swarm fitness); ``audit``
    records every validation fitness ever computed.
    """
    config = config or BpsoConfig()
    config.validate()
    dim = np.asarray(train_rows).shape[1]
    evaluator = MaskEvaluator(train_rows, train_labels, meta_config)
    fit_opt = lambda mask: evaluator.distance(mask, opt_rows, opt_labels)
    fit_val = lambda mask: evaluator.distance(mask, val_rows, val_labels)

    best = Archive()
    all_trace, all_audit = [], []
    for run in range(config.runs):
        rng = np.random.default_rng([config.seed, run])
        swarm = init_swarm(dim, config, rng)
        archive = Archive(run=run)
        stall = 0
        for gen in range(1, config.max_generations + 1):
            improved = step(swarm, config, fit_opt)
            for part in swarm.particles:
                vf = fit_val(part.position)
                if audit:
                    all_audit.append(vf)
                if vf < archive.validation_fitness:
                    archive.validation_fitness = vf
                    archive.mask = part.position.copy()
                    archive.generation = gen
            if collect_trace:
                mean_fit = float(np.mean([p.fitness for p in swarm.particles]))
                all_trace.append((run, gen, swarm.gbest_fitness,
                                  archive.validation_fitness, mean_fit))
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
