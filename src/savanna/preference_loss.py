"""DPO and IRPO preference losses over externally supplied log-probabilities.

Pure numeric functions: no model, no backprop.  The IRPO variant adds an
alpha-weighted, length-normalized negative log-likelihood term on the
chosen response to the standard DPO log-sigmoid margin loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterable, Iterator

from . import jsonio


@dataclass
class PairLogps:
    policy_chosen: list[float]
    policy_rejected: list[float]
    ref_chosen: list[float]
    ref_rejected: list[float]

    def __post_init__(self) -> None:
        for name in ("policy_chosen", "policy_rejected", "ref_chosen", "ref_rejected"):
            values = getattr(self, name)
            if len(values) < 1:
                raise ValueError(f"{name} must have at least one entry")
            # A list of finite floats, as JSON writers leave log-probabilities,
            # passes in two C-level passes (its sum is finite if and only if
            # every entry is, unless the sum overflows).  Any other list is
            # checked entry by entry by jsonio's rule for numbers, which names
            # the first entry that fails it.
            if set(map(type, values)) != {float} or not math.isfinite(sum(values)):
                for i, value in enumerate(values):
                    if not jsonio.is_number(value):
                        raise ValueError(f"{name} contains a non-finite log-probability: "
                                         f"{name}[{i}] is not a finite number")
            if max(values) > 0:
                raise ValueError(f"{name} contains a positive log-probability")
        if len(self.policy_chosen) != len(self.ref_chosen):
            raise ValueError("policy_chosen and ref_chosen lengths differ")
        if len(self.policy_rejected) != len(self.ref_rejected):
            raise ValueError("policy_rejected and ref_rejected lengths differ")


# The key table (see jsonio.resolved) of a PairLogps line.  PairLogps checks
# each list's log-probabilities in C-level passes, far cheaper than one
# check per element.
PAIR_LOGPS_KEYS = {f.name: (list, jsonio.REQUIRED) for f in fields(PairLogps)}


@dataclass
class LossParams:
    beta: float = 0.1
    alpha_rpo: float = 1.0

    def __post_init__(self) -> None:
        if self.beta <= 0:
            raise ValueError("beta must be > 0")
        if self.alpha_rpo < 0:
            raise ValueError("alpha_rpo must be >= 0")


def _softplus(x: float) -> float:
    # log(1 + exp(x)), overflow-safe
    if x > 0:
        return x + math.log1p(math.exp(-x))
    return math.log1p(math.exp(x))


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def margin(p: PairLogps) -> float:
    """Scalar preference margin: (chosen log-ratio) - (rejected log-ratio)."""
    return (sum(p.policy_chosen) - sum(p.ref_chosen)) - (
        sum(p.policy_rejected) - sum(p.ref_rejected)
    )


def dpo_loss(p: PairLogps, params: LossParams = LossParams()) -> float:
    """-log sigmoid(beta * margin), numerically stabilized."""
    return _softplus(-params.beta * margin(p))


def nll_chosen(p: PairLogps) -> float:
    """Length-normalized negative log-likelihood of the chosen response."""
    return -sum(p.policy_chosen) / len(p.policy_chosen)


def irpo_loss(p: PairLogps, params: LossParams = LossParams()) -> float:
    """DPO loss plus alpha_rpo times the chosen-response NLL."""
    return dpo_loss(p, params) + params.alpha_rpo * nll_chosen(p)


@dataclass
class PairGradients:
    """Gradients with respect to each per-token log-probability entry."""

    policy_chosen: list[float] = field(default_factory=list)
    policy_rejected: list[float] = field(default_factory=list)
    ref_chosen: list[float] = field(default_factory=list)
    ref_rejected: list[float] = field(default_factory=list)


def loss_gradients(p: PairLogps, params: LossParams = LossParams(),
                   kind: str = "irpo") -> PairGradients:
    """Analytic gradients of ``dpo_loss`` or ``irpo_loss``."""
    if kind not in ("dpo", "irpo"):
        raise ValueError(f"unknown loss kind: {kind!r}")
    z = params.beta * margin(p)
    s = _sigmoid(-z)  # = 1 - sigmoid(z); d(-log sigmoid(z))/dz = -s
    g_pc = -params.beta * s
    if kind == "irpo":
        g_pc -= params.alpha_rpo / len(p.policy_chosen)
    return PairGradients(
        policy_chosen=[g_pc] * len(p.policy_chosen),
        policy_rejected=[params.beta * s] * len(p.policy_rejected),
        ref_chosen=[params.beta * s] * len(p.ref_chosen),
        ref_rejected=[-params.beta * s] * len(p.ref_rejected),
    )


class AuditError(ValueError):
    """The pairs given to :func:`audit_pairs` cannot be audited."""


def audit_pairs(pairs: Iterable[PairLogps], params: LossParams = LossParams()) -> dict:
    """Per-pair DPO/IRPO losses and their means, for offline auditing.

    Raises AuditError when there are no pairs, when a mean overflows, or
    naming the first pair (from 1) whose row is not finite: its entries
    are, but a sum of them overflows.
    """
    rows = []
    for number, p in enumerate(pairs, start=1):
        # dpo_loss and irpo_loss's operations, on each sum taken once.
        m, n = margin(p), nll_chosen(p)
        dpo = _softplus(-params.beta * m)
        row = {"margin": m, "nll_chosen": n, "dpo_loss": dpo,
               "irpo_loss": dpo + params.alpha_rpo * n}
        if not all(map(math.isfinite, row.values())):
            bad = ", ".join(key for key, value in row.items() if not math.isfinite(value))
            raise AuditError(f"pair {number}: {bad} not finite, as a sum of its "
                             f"log-probabilities overflows")
        rows.append(row)
    if not rows:
        raise AuditError("no pairs to audit")
    mean_irpo_loss = sum(r["irpo_loss"] for r in rows) / len(rows)
    if not math.isfinite(mean_irpo_loss):  # no loss is negative, so the DPO mean is no larger
        raise AuditError("the sum of the IRPO losses overflows")
    return {
        "params": {"beta": params.beta, "alpha_rpo": params.alpha_rpo},
        "pairs": rows,
        "mean_dpo_loss": sum(r["dpo_loss"] for r in rows) / len(rows),
        "mean_irpo_loss": mean_irpo_loss,
    }


def read_pair_logps_jsonl(path: str | Path) -> Iterator[PairLogps]:
    """The pairs of a JSONL file, read one line at a time as they are asked
    for, so a consumer such as :func:`audit_pairs` holds one pair at once.
    A malformed line raises ValueError naming the file and line when the
    reading reaches it."""
    yield from jsonio.iter_jsonl(path, lambda obj: PairLogps(
        **jsonio.resolved(obj, PAIR_LOGPS_KEYS)))
