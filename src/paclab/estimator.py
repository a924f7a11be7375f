"""Estimator-style front end: configure once, fit on a signal, read the
resulting matrix and peak as fitted attributes."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .comodulogram import GridSpec, PacMatrix, argmax, compute_matrix, normalize
from .errors import InvalidInputError
from .measures import MeasureConfig
from .signal_core import Signal


class PacAnalyzer:
    """Comodulogram computation with get_params/set_params/fit/transform
    conventions.

    Parameters are stored untouched at construction; validation happens
    in fit. Fitted state lives in trailing-underscore attributes.
    """

    def __init__(
        self,
        method: str = "mca",
        grid: Optional[GridSpec] = None,
        config: Optional[MeasureConfig] = None,
        normalize: bool = True,
        jobs: Optional[int] = None,
        fs: Optional[float] = None,
    ):
        self.method = method
        self.grid = grid
        self.config = config
        self.normalize = normalize
        self.jobs = jobs
        self.fs = fs

    _param_names = ("method", "grid", "config", "normalize", "jobs", "fs")

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names}

    def set_params(self, **params) -> "PacAnalyzer":
        for name, value in params.items():
            if name not in self._param_names:
                raise InvalidInputError(
                    f"unknown parameter {name!r}; valid: {self._param_names}"
                )
            setattr(self, name, value)
        return self

    def _as_signal(self, X) -> Signal:
        if isinstance(X, Signal):
            return X
        if self.fs is None:
            raise InvalidInputError("fs is required when X is a raw array")
        arr = np.asarray(X, dtype=float)
        if arr.ndim != 1:
            raise InvalidInputError("X must be a 1-D sample array or a Signal")
        return Signal(arr, float(self.fs))

    def _matrix(self, x: Signal) -> PacMatrix:
        mat = compute_matrix(
            x,
            method=self.method,
            grid=self.grid,
            cfg=self.config,
            jobs=self.jobs,
        )
        return normalize(mat) if self.normalize else mat

    def fit(self, X, y=None) -> "PacAnalyzer":
        """Compute the comodulogram of X and store it as fitted state."""
        x = self._as_signal(X)
        self.matrix_ = self._matrix(x)
        self.argmax_ = argmax(self.matrix_)
        self.n_samples_in_ = len(x)
        return self

    def transform(self, X) -> np.ndarray:
        """Matrix values for X as a 2-D array (rows follow n, columns m).

        Stateless with respect to fitted attributes: transform never
        overwrites matrix_ from an earlier fit.
        """
        mat = self._matrix(self._as_signal(X))
        return np.array(mat.values, copy=True)

    def fit_transform(self, X, y=None) -> np.ndarray:
        self.fit(X)
        return np.array(self.matrix_.values, copy=True)
