"""Search determinism across executor backends.

The hard guarantee of the parallel population engine: the genetic search
produces a bitwise-identical :class:`SearchHistory` no matter which
backend scores the candidates — serial, thread pool, or process pool —
and no matter how many workers share the batch.  The engine draws all
candidate RNG before any evaluation runs, and every replica's fast path
is bitwise-equal to the reference path, so fan-out must not move a
single bit.
"""

import numpy as np
import pytest

from repro import nn
from repro.data import calibration_batch
from repro.parallel import EvaluatorSpec, ExecutorConfig, PopulationEvaluator
from repro.quant import (
    FitnessConfig,
    FitnessEvaluator,
    LPQConfig,
    LPQEngine,
    collect_layer_stats,
    derive_activation_params,
)
from repro.perf import reset_perf

SEARCH = LPQConfig(
    population=3,
    passes=1,
    cycles=1,
    block_size=2,
    diversity_parents=3,
    hw_widths=(4, 8),
    seed=13,
)


def _search_history(par_setup, executor=None, fast=True):
    """Run the same search; returns (best fitness, history, solution)."""
    model, images, stats = par_setup
    reset_perf()
    if executor is None:
        evaluator = FitnessEvaluator(
            model, images, stats.param_counts, FitnessConfig(fast=fast)
        )

        def evaluate(solution):
            return evaluator(solution, derive_activation_params(solution, stats))

        engine = LPQEngine(evaluate, stats.weight_log_centers, SEARCH)
        solution, fitness = engine.run()
        return fitness, engine.history, solution
    spec = EvaluatorSpec(images=images, model=model, stats=stats)
    with PopulationEvaluator(spec, executor) as evaluator:
        engine = LPQEngine(evaluator, stats.weight_log_centers, SEARCH)
        solution, fitness = engine.run()
    return fitness, engine.history, solution


class TestBackendDeterminism:
    def test_serial_backend_reproduces_closure_path(self, par_setup):
        fit_ref, hist_ref, sol_ref = _search_history(par_setup)
        fit, hist, sol = _search_history(
            par_setup, ExecutorConfig("serial")
        )
        assert fit == fit_ref
        assert hist.best_fitness == hist_ref.best_fitness
        assert hist.mean_bits == hist_ref.mean_bits
        assert sol == sol_ref

    @pytest.mark.parametrize("backend,workers", [
        ("thread", 2),
        ("process", 2),
        ("process", 3),
    ])
    def test_parallel_backend_identical_history(
        self, par_setup, backend, workers
    ):
        fit_ref, hist_ref, sol_ref = _search_history(
            par_setup, ExecutorConfig("serial")
        )
        fit, hist, sol = _search_history(
            par_setup, ExecutorConfig(backend, workers=workers)
        )
        assert fit == fit_ref
        assert hist.best_fitness == hist_ref.best_fitness
        assert hist.mean_bits == hist_ref.mean_bits
        assert sol == sol_ref

    def test_batched_step_matches_reference_path(self, par_setup):
        """The batched GA step must not change the slow path either."""
        fit_fast, hist_fast, _ = _search_history(par_setup, fast=True)
        fit_slow, hist_slow, _ = _search_history(par_setup, fast=False)
        assert fit_fast == fit_slow
        assert hist_fast.best_fitness == hist_slow.best_fitness


class TestLpqQuantizeExecutor:
    def test_lpq_quantize_executor_knob(self):
        """End-to-end: lpq_quantize(executor=...) matches the default."""
        from repro.quant import lpq_quantize

        nn.seed(11)
        from .parmodels import ParBNCNN

        model = ParBNCNN()
        model.eval()
        images = calibration_batch(8, seed=5)
        config = LPQConfig(population=3, passes=1, cycles=1, block_size=3,
                           diversity_parents=2, hw_widths=(4, 8), seed=2)
        res_default = lpq_quantize(model, images, config=config)
        res_process = lpq_quantize(
            model, images, config=config,
            executor=ExecutorConfig("process", workers=2),
        )
        assert res_default.fitness == res_process.fitness
        assert (
            res_default.history.best_fitness
            == res_process.history.best_fitness
        )
        assert res_default.solution == res_process.solution

    def test_lpq_quantize_executor_with_objective(self):
        from repro.quant import lpq_quantize

        nn.seed(11)
        from .parmodels import ParBNCNN

        model = ParBNCNN()
        model.eval()
        images = calibration_batch(8, seed=5)
        config = LPQConfig(population=3, passes=1, cycles=1, block_size=3,
                           diversity_parents=2, hw_widths=(4, 8), seed=2)
        res_default = lpq_quantize(
            model, images, config=config, objective="mse"
        )
        res_thread = lpq_quantize(
            model, images, config=config, objective="mse",
            executor=ExecutorConfig("thread", workers=2),
        )
        assert np.isfinite(res_thread.fitness)
        assert res_default.fitness == res_thread.fitness


class TestPickledSpecFallback:
    """A model the wire codec cannot name — untagged, and its class
    needs constructor arguments — still runs on the process pool, which
    pickles its spec instead; the search stays bitwise-serial on both
    the single-search path and the scheduler's pool."""

    @pytest.fixture(scope="class")
    def mini_setup(self):
        from repro.models import resnet18_mini
        from repro.quant import lpq_quantize

        nn.seed(7)
        model = resnet18_mini()
        model.eval()
        images = calibration_batch(4, seed=5)
        config = LPQConfig(population=3, passes=1, cycles=1, block_size=5,
                           diversity_parents=2, hw_widths=(4, 8), seed=3)
        serial = lpq_quantize(model, images, config=config)
        return model, images, config, serial

    @staticmethod
    def _assert_bitwise(result, serial):
        assert result.fitness == serial.fitness
        assert result.solution == serial.solution
        assert result.history.best_fitness == serial.history.best_fitness
        assert result.history.mean_bits == serial.history.mean_bits

    def test_model_cannot_cross_the_wire(self, mini_setup):
        from repro.spec.wire import encode_job

        model, images, _, serial = mini_setup
        spec = EvaluatorSpec(images=images, model=model, stats=serial.stats)
        with pytest.raises(ValueError, match="constructor argument"):
            encode_job(spec)

    def test_lpq_quantize_process_backend(self, mini_setup):
        from repro.quant import lpq_quantize

        model, images, config, serial = mini_setup
        result = lpq_quantize(
            model, images, config=config,
            executor=ExecutorConfig("process", workers=2),
        )
        self._assert_bitwise(result, serial)

    def test_scheduler_process_pool(self, mini_setup):
        from repro.serve import SearchScheduler

        model, images, config, serial = mini_setup
        scheduler = SearchScheduler(
            executor=ExecutorConfig("process", workers=2)
        )
        scheduler.submit("mini", model, images, config=config)
        self._assert_bitwise(scheduler.run()["mini"], serial)
