"""Seeded construction of valid (and deliberately broken) problem instances.

Families are carved out of a maximal uniformly positive subspace built as the
graph of a contraction with prescribed norm (``tilt``), and mirrored for the
negative side.  Entry subspaces take wrap-around chunks of a randomly rotated
basis of the part span, so their union always spans it; that makes the
generated verdict true by construction.  Negative modes plant either a
neutral direction inside one entry (construction must reject) or a coverage
deficiency (verification must say no).

Everything is driven by ``numpy.random.default_rng(seed)`` with a fixed draw
order, so a config reproduces its instance bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._numeric import orth_columns
from .core import TOL_RANK
from .errors import InfeasibleConfig
from .frames import VectorFrame, partition_by_sign
from .fusion import WeightedSubspaceFamily, family_from_spans
from .problem_io import parse_problem

PLANTS = ("none", "neutral_entry", "deficient")
KINDS = ("fusion", "frame")


@dataclass(frozen=True)
class GeneratorConfig:
    """Parameters of one generated instance.

    ``tilt`` in [0, 1) is the norm of the graph contraction: 0 gives the
    canonical eigenspaces, values near 1 give nearly neutral spans.  For
    ``kind="frame"`` the entry-dim tuples are ignored and the vector counts
    are used instead; the weight range then scales vector lengths.
    """

    kind: str = "fusion"
    seed: int = 0
    dim: int = 4
    num_positive: int = 2
    entry_dims_positive: tuple[int, ...] = ()
    entry_dims_negative: tuple[int, ...] = ()
    num_vectors_positive: int = 0
    num_vectors_negative: int = 0
    tilt: float = 0.5
    weight_low: float = 0.5
    weight_high: float = 2.0
    plant: str = "none"
    rotate: bool = False

    @property
    def num_negative(self) -> int:
        return self.dim - self.num_positive


def _normalized(cfg: GeneratorConfig) -> GeneratorConfig:
    p, q = cfg.num_positive, cfg.num_negative
    updates: dict = {}
    if cfg.kind == "fusion":
        if not cfg.entry_dims_positive and p > 0:
            updates["entry_dims_positive"] = (1,) * p
        if not cfg.entry_dims_negative and q > 0:
            updates["entry_dims_negative"] = (1,) * q
    elif cfg.kind == "frame":
        if cfg.num_vectors_positive == 0 and p > 0:
            updates["num_vectors_positive"] = p + 1
        if cfg.num_vectors_negative == 0 and q > 0:
            updates["num_vectors_negative"] = q + 1
    return replace(cfg, **updates) if updates else cfg


def validate_config(cfg: GeneratorConfig) -> GeneratorConfig:
    """Fill defaults and reject configurations with no valid instance."""
    if cfg.kind not in KINDS:
        raise InfeasibleConfig(f"kind must be one of {KINDS}, got {cfg.kind!r}")
    if cfg.plant not in PLANTS:
        raise InfeasibleConfig(f"plant must be one of {PLANTS}, got {cfg.plant!r}")
    if cfg.dim < 1:
        raise InfeasibleConfig(f"dimension must be positive, got {cfg.dim}")
    if not 0 <= cfg.num_positive <= cfg.dim:
        raise InfeasibleConfig(
            f"signature ({cfg.num_positive}, {cfg.num_negative}) invalid for dimension {cfg.dim}"
        )
    if not 0.0 <= cfg.tilt < 1.0:
        raise InfeasibleConfig(f"tilt must lie in [0, 1), got {cfg.tilt}")
    if not (0.0 < cfg.weight_low <= cfg.weight_high):
        raise InfeasibleConfig(
            f"weight range ({cfg.weight_low}, {cfg.weight_high}) must be positive and ordered"
        )
    if cfg.seed < 0:
        raise InfeasibleConfig(f"seed must be non-negative, got {cfg.seed}")
    cfg = _normalized(cfg)
    p, q = cfg.num_positive, cfg.num_negative

    if cfg.kind == "fusion":
        for label, dims, part in (("positive", cfg.entry_dims_positive, p),
                                  ("negative", cfg.entry_dims_negative, q)):
            if part == 0 and dims:
                raise InfeasibleConfig(f"{label} entries given but the {label} part is trivial")
            for k in dims:
                if k < 1 or k > part:
                    raise InfeasibleConfig(
                        f"{label} entry dimension {k} outside 1..{part}"
                    )
            if part > 0 and sum(dims) < part:
                raise InfeasibleConfig(
                    f"{label} entry dimensions {dims} cannot cover a part of dimension {part}"
                )
    else:
        if p > 0 and cfg.num_vectors_positive < p:
            raise InfeasibleConfig(
                f"{cfg.num_vectors_positive} positive vectors cannot span a part of dimension {p}"
            )
        if q > 0 and cfg.num_vectors_negative < q:
            raise InfeasibleConfig(
                f"{cfg.num_vectors_negative} negative vectors cannot span a part of dimension {q}"
            )

    if cfg.plant == "neutral_entry":
        if p == 0 or q == 0:
            raise InfeasibleConfig("a neutral direction needs both signs present")
        if cfg.kind == "fusion" and not cfg.entry_dims_positive:
            raise InfeasibleConfig("neutral_entry plant needs at least one positive entry")
    if cfg.plant == "deficient" and p < 2:
        raise InfeasibleConfig("deficient plant needs a positive part of dimension >= 2")
    return cfg


def _contraction(rng: np.random.Generator, rows: int, cols: int, tilt: float) -> np.ndarray:
    if rows == 0 or cols == 0 or tilt == 0.0:
        return np.zeros((rows, cols))
    raw = rng.standard_normal((rows, cols))
    top = np.linalg.norm(raw, 2)
    return raw * (tilt / top)


def _random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    raw = rng.standard_normal((n, n))
    q, r = np.linalg.qr(raw)
    return q * np.sign(np.diag(r))


def _part_bases(cfg: GeneratorConfig, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases of the two graph subspaces in canonical coordinates."""
    n, p, q = cfg.dim, cfg.num_positive, cfg.num_negative
    k_pos = _contraction(rng, q, p, cfg.tilt)
    k_neg = _contraction(rng, p, q, cfg.tilt)
    raw_pos = np.vstack([np.eye(p), k_pos]) if p else np.zeros((n, 0))
    raw_neg = np.vstack([k_neg, np.eye(q)]) if q else np.zeros((n, 0))
    return orth_columns(raw_pos, TOL_RANK), orth_columns(raw_neg, TOL_RANK)


def _chunks(basis: np.ndarray, dims, rng: np.random.Generator,
            usable: int | None = None) -> list[np.ndarray]:
    """Wrap-around chunks of a randomly rotated basis, as row-vector arrays."""
    part = basis.shape[1]
    usable = part if usable is None else usable
    rotation = _random_orthogonal(rng, part)
    rotated = basis @ rotation
    out = []
    start = 0
    for k in dims:
        cols = [(start + t) % usable for t in range(k)]
        out.append(rotated[:, cols].T)
        start = (start + k) % usable
    return out


def gen_problem(cfg: GeneratorConfig) -> dict:
    """Generate a problem document (the JSON-ready dict) for this config."""
    cfg = validate_config(cfg)
    rng = np.random.default_rng(cfg.seed)
    n, p, q = cfg.dim, cfg.num_positive, cfg.num_negative
    basis_pos, basis_neg = _part_bases(cfg, rng)
    signs = [1] * p + [-1] * q

    neutral = None
    if cfg.plant == "neutral_entry":
        # An exactly neutral direction s*u + w inside span{u, w} with u from
        # the positive and w from the negative part: solve the quadratic
        # a s^2 + 2 c s + b = 0 for the self-product coefficients.
        u = basis_pos[:, 0]
        w = basis_neg[:, 0]
        jd = np.diag(np.array(signs, dtype=float))
        a = float(u @ jd @ u)
        b = float(w @ jd @ w)
        c = float(u @ jd @ w)
        s = (-c + np.sqrt(c * c - a * b)) / a
        neutral = s * u + w

    problem: dict = {"dimension": n, "J": {"type": "diagonal", "signs": signs}}

    if cfg.kind == "fusion":
        usable_pos = p - 1 if cfg.plant == "deficient" else None
        pos_rows = _chunks(basis_pos, cfg.entry_dims_positive, rng, usable_pos)
        neg_rows = _chunks(basis_neg, cfg.entry_dims_negative, rng)
        weights = rng.uniform(cfg.weight_low, cfg.weight_high,
                              len(pos_rows) + len(neg_rows))
        if neutral is not None:
            first = pos_rows[0]
            pos_rows[0] = np.vstack([neutral, first[1:]]) if first.shape[0] > 1 else neutral[None, :]
        entries = []
        for rows, w in zip(pos_rows + neg_rows, weights):
            entries.append({"basis": rows, "weight": float(w)})
        problem["family"] = {"entries": entries}
    else:
        m_pos, m_neg = cfg.num_vectors_positive, cfg.num_vectors_negative
        usable_pos = p - 1 if cfg.plant == "deficient" else p

        def draw_vectors(basis, count, usable):
            if count == 0:
                return np.zeros((0, n))
            part = basis.shape[1]
            coeff = np.zeros((part, count))
            for idx in range(count):
                col = rng.standard_normal(part)
                col[usable:] = 0.0
                if idx < usable:  # guarantee coverage of the usable columns
                    col[idx % usable] += 2.0
                coeff[:, idx] = col
            scales = rng.uniform(cfg.weight_low, cfg.weight_high, count)
            return (basis @ coeff * scales).T

        vec_pos = draw_vectors(basis_pos, m_pos, usable_pos)
        vec_neg = draw_vectors(basis_neg, m_neg, q)
        vectors = np.vstack([vec_pos, vec_neg])
        if neutral is not None:
            vectors = np.vstack([neutral[None, :], vectors])
        problem["vectors"] = vectors

    if cfg.rotate:
        rotation = _random_orthogonal(rng, n)
        j = rotation @ np.diag(np.array(signs, dtype=float)) @ rotation.T
        problem["J"] = {"type": "matrix", "rows": 0.5 * (j + j.T)}
        if "family" in problem:
            for entry in problem["family"]["entries"]:
                entry["basis"] = entry["basis"] @ rotation.T
        if "vectors" in problem:
            problem["vectors"] = problem["vectors"] @ rotation.T

    problem["comment"] = (
        f"generated instance: kind={cfg.kind} seed={cfg.seed} dim={n} "
        f"signature=({p},{q}) tilt={cfg.tilt} plant={cfg.plant}"
    )
    return _listify(problem)


def _listify(obj):
    if isinstance(obj, dict):
        return {k: _listify(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return np.atleast_2d(obj).astype(float, copy=False).tolist()
    if isinstance(obj, list):
        return [_listify(v) for v in obj]
    return obj


def gen_family(cfg: GeneratorConfig) -> WeightedSubspaceFamily:
    """Build the weighted family for a fusion config (raises on planted flaws
    that construction is supposed to reject)."""
    cfg = validate_config(cfg)
    if cfg.kind != "fusion":
        raise InfeasibleConfig("gen_family needs a fusion config")
    parsed = parse_problem(gen_problem(cfg))
    return family_from_spans([rows for rows, _ in parsed.entries],
                             [w for _, w in parsed.entries], parsed.space)


def gen_frame(cfg: GeneratorConfig) -> VectorFrame:
    """Build the vector frame for a frame config (raises on planted neutrals)."""
    cfg = validate_config(cfg)
    if cfg.kind != "frame":
        raise InfeasibleConfig("gen_frame needs a frame config")
    parsed = parse_problem(gen_problem(cfg))
    return partition_by_sign(parsed.vectors, parsed.space)
