"""Independent re-scoring of every returned search result.

Each solution a search returned is scored again on the *reference*
path — a fresh ``FitnessEvaluator(..., FitnessConfig(fast=False))``:
full BN recalibration plus a full fingerprint pass, none of the
incremental caches — with activation parameters from
``derive_activation_params``.  The score must equal the reported
fitness bitwise.  No expected number is stored anywhere, so a change
that legitimately moves bits on every path still passes.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.numerics import LPParams
from repro.quant import (
    FitnessConfig,
    FitnessEvaluator,
    QuantSolution,
    collect_layer_stats,
    derive_activation_params,
)
from repro.spec import SearchSpec


@dataclass(frozen=True)
class Returned:
    """One result to check: the request, the solution and the fitness
    the program reported for it."""

    spec: SearchSpec
    solution: QuantSolution
    fitness: float
    label: str


def solution_from_record(layers) -> QuantSolution:
    """A result record's ``[[n, es, rs, sf], ...]`` as a solution."""
    return QuantSolution(tuple(
        LPParams(n=int(n), es=int(es), rs=int(rs), sf=float(sf))
        for n, es, rs, sf in layers
    ))


class ReferenceScorer:
    """Reference-path evaluators, one per (model, calibration, fitness)
    triple, built on first use."""

    def __init__(self) -> None:
        self._evaluators: dict = {}

    def _evaluator(self, spec: SearchSpec):
        fitness = dataclasses.replace(spec.fitness or FitnessConfig(),
                                      fast=False)
        key = (spec.model, spec.calib, fitness)
        entry = self._evaluators.get(key)
        if entry is None:
            model = spec.build_model()
            images = spec.build_calib()
            stats = collect_layer_stats(model, images)
            evaluator = FitnessEvaluator(model, images, stats.param_counts,
                                         fitness)
            entry = self._evaluators[key] = (evaluator, stats)
        return entry

    def score(self, spec: SearchSpec, solution: QuantSolution) -> float:
        evaluator, stats = self._evaluator(spec)
        acts = derive_activation_params(solution, stats,
                                        mode=spec.act_sf_mode)
        return evaluator(solution, acts)


def mismatches(returned, scorer: ReferenceScorer | None = None) -> list[str]:
    """Labels of the results whose reference score differs from the
    reported fitness (bitwise)."""
    scorer = scorer or ReferenceScorer()
    bad = []
    for item in returned:
        reference = scorer.score(item.spec, item.solution)
        if reference != item.fitness:
            bad.append(f"{item.label}: reported {item.fitness!r}, "
                       f"reference {reference!r}")
    return bad
