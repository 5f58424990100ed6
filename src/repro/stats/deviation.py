"""Deviation functions: pluggable two-sample discrepancy measures for HiCS.

The paper defines the subspace contrast as an average of
``deviation(p̂_s, p̂_{s|C})`` values over Monte Carlo iterations (Definition 5)
and instantiates the deviation with Welch's t-test (HiCS_WT) and the
two-sample Kolmogorov-Smirnov test (HiCS_KS).  This module exposes those two
instantiations plus a registry so that additional deviation functions can be
plugged in without touching the contrast estimator — the ablation benchmark
``bench_ablation_deviation_functions`` exercises exactly that extension point.

A deviation function maps ``(conditional_sample, marginal_sample)`` to a value
in ``[0, 1]`` where 0 means "indistinguishable" and values close to 1 mean
"strongly different distributions".
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ParameterError
from .ks import ks_two_sample_statistic, ks_two_sample_statistic_batch
from .welch import welch_t_test, welch_t_test_batch

__all__ = [
    "DeviationFunction",
    "BatchDeviationFunction",
    "welch_deviation",
    "welch_deviation_batch",
    "ks_deviation",
    "ks_deviation_batch",
    "cramer_von_mises_deviation",
    "mean_shift_deviation",
    "register_deviation_function",
    "get_deviation_function",
    "get_batch_deviation_function",
    "batch_fallback",
    "available_deviation_functions",
]

DeviationFunction = Callable[[np.ndarray, np.ndarray], float]

#: A batched deviation maps ``(conditional_samples, marginal_sample)`` to one
#: deviation value per conditional sample.  The optional ``marginal_sorted``
#: keyword lets callers holding a sorted-index reuse the pre-sorted marginal.
BatchDeviationFunction = Callable[..., np.ndarray]


def welch_deviation(conditional_sample: np.ndarray, marginal_sample: np.ndarray) -> float:
    """HiCS_WT deviation: ``1 - p`` of Welch's two-sample t-test.

    Close to 0 when both samples plausibly share the same mean, close to 1
    when the conditional sample's mean is significantly shifted.
    """
    result = welch_t_test(conditional_sample, marginal_sample)
    return float(min(1.0, max(0.0, result.deviation)))


def ks_deviation(conditional_sample: np.ndarray, marginal_sample: np.ndarray) -> float:
    """HiCS_KS deviation: the two-sample Kolmogorov-Smirnov statistic.

    The supremum distance between the two empirical CDFs, already normalised
    to ``[0, 1]``.
    """
    return float(ks_two_sample_statistic(conditional_sample, marginal_sample))


def cramer_von_mises_deviation(
    conditional_sample: np.ndarray, marginal_sample: np.ndarray
) -> float:
    """An L2 analogue of the KS deviation (Cramér-von Mises style).

    Not part of the original paper; provided as an additional instantiation to
    demonstrate the pluggable deviation registry.  The value is the root mean
    squared difference of the two ECDFs over the merged support, which lies in
    ``[0, 1]`` like the KS statistic but weights persistent differences more
    than a single large jump.
    """
    a = np.sort(np.asarray(conditional_sample, dtype=float).ravel())
    b = np.sort(np.asarray(marginal_sample, dtype=float).ravel())
    if a.size == 0 or b.size == 0:
        raise ParameterError("both samples must be non-empty")
    support = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, support, side="right") / a.size
    cdf_b = np.searchsorted(b, support, side="right") / b.size
    return float(np.sqrt(np.mean((cdf_a - cdf_b) ** 2)))


def mean_shift_deviation(conditional_sample: np.ndarray, marginal_sample: np.ndarray) -> float:
    """A naive deviation: absolute mean difference scaled by the marginal spread.

    Included as a deliberately weak baseline for the deviation ablation.  The
    value is clipped into ``[0, 1]``.
    """
    a = np.asarray(conditional_sample, dtype=float).ravel()
    b = np.asarray(marginal_sample, dtype=float).ravel()
    if a.size == 0 or b.size == 0:
        raise ParameterError("both samples must be non-empty")
    spread = float(np.max(b) - np.min(b))
    if spread <= 0.0:
        return 0.0
    return float(min(1.0, abs(float(np.mean(a)) - float(np.mean(b))) / spread))


def welch_deviation_batch(
    conditional_samples: Sequence[np.ndarray],
    marginal_sample: np.ndarray,
    *,
    marginal_sorted: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Batched HiCS_WT deviation: one Welch test per conditional sample.

    Bit-for-bit equal to calling :func:`welch_deviation` once per sample (the
    per-sample moments are extracted with the identical routine; statistic,
    degrees of freedom and p-values are evaluated with exact array
    arithmetic).  ``marginal_sorted`` is accepted for interface uniformity but
    unused — the Welch test only needs the marginal's moments.
    """
    del marginal_sorted
    _, _, pvalues = welch_t_test_batch(conditional_samples, marginal_sample)
    return np.clip(1.0 - pvalues, 0.0, 1.0)


def ks_deviation_batch(
    conditional_samples: Sequence[np.ndarray],
    marginal_sample: np.ndarray,
    *,
    marginal_sorted: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Batched HiCS_KS deviation: one KS statistic per conditional sample.

    Bit-for-bit equal to calling :func:`ks_deviation` per sample; the marginal
    is sorted once (or never, when ``marginal_sorted`` is provided).
    """
    return ks_two_sample_statistic_batch(
        conditional_samples, marginal_sample, reference_sorted=marginal_sorted
    )


def batch_fallback(scalar_deviation: DeviationFunction) -> BatchDeviationFunction:
    """Lift a scalar deviation function into the batched interface.

    Used for custom / unregistered deviations that have no array-level
    implementation: the scalar function is simply applied per sample, which is
    trivially bit-for-bit equal to one scalar test per iteration while still
    benefiting from the batched slice drawing.
    """

    def batched(
        conditional_samples: Sequence[np.ndarray],
        marginal_sample: np.ndarray,
        *,
        marginal_sorted: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        del marginal_sorted
        return np.array(
            [float(scalar_deviation(s, marginal_sample)) for s in conditional_samples],
            dtype=float,
        )

    batched.__name__ = f"batched_{getattr(scalar_deviation, '__name__', 'deviation')}"
    return batched


_REGISTRY: Dict[str, DeviationFunction] = {}

#: Scalar deviation callable -> its exact array-level implementation.  Keyed
#: by the resolved callable so every registered alias shares the batch path.
_BATCH_REGISTRY: Dict[DeviationFunction, BatchDeviationFunction] = {}


def register_deviation_function(
    name: str,
    func: DeviationFunction,
    *,
    batch: Optional[BatchDeviationFunction] = None,
    overwrite: bool = False,
) -> None:
    """Register a deviation function under a case-insensitive name.

    Parameters
    ----------
    name:
        Registry key (e.g. ``"welch"``).
    func:
        Callable mapping two 1-D samples to a deviation in ``[0, 1]``.
    batch:
        Optional array-level implementation mapping
        ``(conditional_samples, marginal_sample)`` to one deviation per
        sample.  It must reproduce ``func`` bit-for-bit per sample; when
        omitted, the batch contrast engine falls back to applying ``func``
        per sample (:func:`batch_fallback`).
    overwrite:
        Allow replacing an existing entry.  Defaults to False to protect the
        built-in instantiations from accidental shadowing.
    """
    key = name.strip().lower()
    if not key:
        raise ParameterError("deviation function name must be non-empty")
    if key in _REGISTRY and not overwrite:
        raise ParameterError(f"deviation function {name!r} is already registered")
    if not callable(func):
        raise ParameterError("deviation function must be callable")
    if batch is not None and not callable(batch):
        raise ParameterError("batch deviation function must be callable")
    _REGISTRY[key] = func
    if batch is not None:
        _BATCH_REGISTRY[func] = batch


def get_deviation_function(name_or_func) -> DeviationFunction:
    """Resolve a deviation function from a name or pass a callable through.

    Accepted names (case-insensitive): ``"welch"`` / ``"wt"``, ``"ks"`` /
    ``"kolmogorov-smirnov"``, ``"cvm"`` / ``"cramer-von-mises"``,
    ``"mean-shift"``, plus anything added via
    :func:`register_deviation_function`.
    """
    if callable(name_or_func):
        return name_or_func
    if not isinstance(name_or_func, str):
        raise ParameterError(
            "deviation must be a callable or a registered name, got "
            f"{type(name_or_func).__name__}"
        )
    key = name_or_func.strip().lower()
    if key not in _REGISTRY:
        raise ParameterError(
            f"unknown deviation function {name_or_func!r}; available: "
            f"{sorted(_REGISTRY)}"
        )
    return _REGISTRY[key]


def get_batch_deviation_function(name_or_func) -> BatchDeviationFunction:
    """Resolve the array-level implementation of a deviation function.

    Accepts the same inputs as :func:`get_deviation_function`.  When the
    resolved scalar function has a registered batch implementation (the
    built-in Welch and KS deviations do), that implementation is returned;
    otherwise a per-sample fallback wrapper around the scalar function is
    built, which is exact by construction.
    """
    scalar = get_deviation_function(name_or_func)
    batch = _BATCH_REGISTRY.get(scalar)
    if batch is not None:
        return batch
    return batch_fallback(scalar)


def available_deviation_functions() -> Tuple[str, ...]:
    """Names of all registered deviation functions, sorted alphabetically."""
    return tuple(sorted(_REGISTRY))


# Built-in registrations.
register_deviation_function("welch", welch_deviation, batch=welch_deviation_batch)
register_deviation_function("wt", welch_deviation, batch=welch_deviation_batch)
register_deviation_function("t-test", welch_deviation, batch=welch_deviation_batch)
register_deviation_function("ks", ks_deviation, batch=ks_deviation_batch)
register_deviation_function("kolmogorov-smirnov", ks_deviation, batch=ks_deviation_batch)
register_deviation_function("cvm", cramer_von_mises_deviation)
register_deviation_function("cramer-von-mises", cramer_von_mises_deviation)
register_deviation_function("mean-shift", mean_shift_deviation)
