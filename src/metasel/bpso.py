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

from .metaclassifier import MetaTrainConfig, standardize_constants, train_meta

# doubles per scoring block: a block of scored rows holds at most this many
# values, and so does its (rows, masks) buffer of decision values, so nothing
# scoring allocates grows with the row count. Small blocks also keep small
# the BLAS packing buffers, which stay resident once touched.
_SCORE_BLOCK = 2 ** 15
# row sets whose scores an evaluator keeps: the optimization and the
# validation rows of a search
_ROW_SETS = 2

__all__ = [
    "BpsoConfig",
    "Swarm",
    "Archive",
    "transfer_s",
    "transfer_v",
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


def oracle_distance(estimates, ideal) -> float:
    """Distance between competence estimates and the ideal 0/1 competences
    over all (sample, classifier) rows: sqrt of the summed squared
    differences, divided by the row count (normalizer outside the root).
    ``MaskEvaluator`` computes the same quantity for many masks at once."""
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
    competence distance on arbitrary row sets.

    The training half is standardized once; a mask's selector trains on the
    mask's columns of that copy. Each selector is kept only folded into
    weights over the raw meta-features, ``w' = w / std`` and
    ``b' = b - mean . w'``, zero outside its mask, so a batch of masks is
    scored by one product of raw row blocks with the stacked weights and no
    masked or standardized copy of the scored rows is made.

    A mask's distance on a row set is scored once and then read back. Row
    sets are told apart by identity (the evaluator holds on to the last
    ``_ROW_SETS`` of them), so rows must not be changed in place while the
    evaluator is in use.
    """

    def __init__(self, train_rows, train_labels, meta_config: MetaTrainConfig | None = None):
        # column-major, like the copies ``rows[:, mask]`` numpy makes: the
        # column constants and each fit's input are then bit for bit those
        # of ``train_meta(train_rows[:, mask], ...)``
        self.train_z = np.array(train_rows, dtype=float, order="F")
        self.train_labels = np.asarray(train_labels, dtype=float)
        self.meta_config = meta_config or MetaTrainConfig()
        self.mean, self.std = standardize_constants(self.train_z)
        self.train_z -= self.mean
        self.train_z /= self.std
        self._folded: dict[bytes, tuple | None] = {}
        self._scores: list[tuple] = []     # (rows, labels, {mask key: distance}), newest first

    def _fold(self, mask) -> tuple | None:
        """``(w', b')`` of the mask's selector over raw rows, fitted on first
        use; None for the empty mask."""
        key = mask.tobytes()
        if key not in self._folded:
            folded = None
            if mask.any():
                model = train_meta(self.train_z[:, mask], self.train_labels, self.meta_config,
                                   standardized=(self.mean[mask], self.std[mask]))
                weights = np.zeros(len(mask))
                weights[mask] = model.weights / model.feature_std
                folded = (weights, model.bias - model.feature_mean @ weights[mask])
            self._folded[key] = folded
        return self._folded[key]

    def distances(self, masks, rows, labels) -> np.ndarray:
        """Oracle distance of every row of ``masks`` (P, D) on ``rows``.

        Uncached masks are fitted in row order, then every mask not yet
        scored on ``rows`` is scored in one pass over them; ``distance`` is
        still called once per mask and reads its value from that pass.
        """
        masks = np.asarray(masks, dtype=bool)
        self._score(masks, rows, labels)
        return np.array([self.distance(mask, rows, labels) for mask in masks], dtype=float)

    def distance(self, mask, rows, labels) -> float:
        mask = np.asarray(mask, dtype=bool)
        return self._score(mask[None], rows, labels)[mask.tobytes()]

    def _score(self, masks, rows, labels) -> dict:
        """{mask key: distance} on this row set, with every mask of ``masks``
        in it; empty masks are inf."""
        scores = next((s for r, y, s in self._scores if r is rows and y is labels), None)
        if scores is None:
            scores = {}
            self._scores = [(rows, labels, scores)] + self._scores[:_ROW_SETS - 1]
        fresh = {}
        for mask in masks:
            key = mask.tobytes()
            if key in scores or key in fresh:
                continue
            folded = self._fold(mask)
            if folded is None:
                scores[key] = np.inf
            else:
                fresh[key] = folded
        if not fresh:
            return scores
        weights = np.stack([w for w, _ in fresh.values()], axis=1)
        bias = np.array([b for _, b in fresh.values()])
        rows = np.asarray(rows, dtype=float)
        labels = np.asarray(labels)
        sq = np.zeros(len(fresh))
        block = max(1, _SCORE_BLOCK // max(rows.shape[1], len(fresh)))
        out = np.empty((min(block, len(rows)), len(fresh)))
        for start in range(0, len(rows), block):
            # in one buffer, the competence 1 / (1 + exp(-clip(z))) and its
            # squared error against the 0/1 labels of the block
            chunk = rows[start:start + block]
            z = np.matmul(chunk, weights, out=out[:len(chunk)])
            z += bias
            np.clip(z, -35.0, 35.0, out=z)
            np.negative(z, out=z)
            np.exp(z, out=z)
            z += 1.0
            np.reciprocal(z, out=z)
            z -= labels[start:start + block, None]
            np.square(z, out=z)
            sq += z.sum(axis=0)
        scores.update(zip(fresh, (np.sqrt(sq) / len(rows)).tolist()))
        return scores


def init_swarm(dim: int, config: BpsoConfig, rng: np.random.Generator) -> Swarm:
    P = config.swarm_size
    pos = rng.random((P, dim)) < 0.5
    return Swarm(position=pos, velocity=np.zeros((P, dim)), best_position=pos.copy(),
                 best_fitness=np.full(P, np.inf), fitness=np.full(P, np.inf),
                 gbest_position=pos[0].copy(), rng=rng)


def step(swarm: Swarm, config: BpsoConfig, fitness_fn) -> bool:
    """One generation: evaluate current positions, update personal and global
    bests on strict improvement, then move every particle.

    ``fitness_fn`` is called once with the (P, D) positions and returns the
    (P,) fitnesses. The global best
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
    swarm.fitness = np.array(fitness_fn(pos), dtype=float).reshape(len(pos))
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
    fit_opt = lambda masks: evaluator.distances(masks, opt_rows, opt_labels)

    best = Archive()
    all_trace, all_audit = [], []
    for run in range(config.runs):
        rng = np.random.default_rng([config.seed, run])
        swarm = init_swarm(dim, config, rng)
        archive = Archive(run=run)
        stall = 0
        for gen in range(1, config.max_generations + 1):
            improved = step(swarm, config, fit_opt)
            val = evaluator.distances(swarm.position, val_rows, val_labels)
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
