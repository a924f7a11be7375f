"""Synthetic pure-PAC signals: a slow modulator, an amplitude-modulated
fast carrier, and calibrated pink noise."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import InvalidInputError
from .signal_core import Signal, _is_count, power

#: The four stock benchmark pairs (modulating m, modulated n) in Hz.
BENCHMARK_PAIRS = ((8, 45), (12, 45), (20, 45), (30, 45))

#: Stock benchmark calibration: clean deterministic power and noise power.
BENCHMARK_CLEAN_POWER = 630.0
BENCHMARK_NOISE_POWER = 6250.0
BENCHMARK_AMI = 0.25
BENCHMARK_DURATION = 10.0
BENCHMARK_FS = 1000.0


@dataclass(frozen=True)
class SynthesisSpec:
    """Parameters of the pure-PAC generator.

    The deterministic part is
        clean_scale * [sin(2 pi m t) + (0.5 + ami sin(2 pi m t)) cos(2 pi n t)]
    and pink noise of the given power is added on top.
    """

    m: float
    n: float
    ami: float = BENCHMARK_AMI
    duration: float = BENCHMARK_DURATION
    fs: float = BENCHMARK_FS
    noise_power: float = 0.0
    clean_scale: float = 1.0
    seed: Optional[int] = None

    def __post_init__(self):
        if not (0 <= self.ami < math.inf):
            raise InvalidInputError("ami must be nonnegative and finite")
        if not (0 < self.m < self.n < self.fs / 2):
            raise InvalidInputError("need 0 < m < n < fs/2")
        if not (math.isfinite(self.duration) and math.isfinite(self.fs)):
            raise InvalidInputError("duration and fs must be finite")
        if self.duration * self.fs < 2:
            raise InvalidInputError("need at least 2 samples")
        if not (0 <= self.noise_power < math.inf):
            raise InvalidInputError("noise_power must be nonnegative and finite")
        # pink_noise divides the power by its unscaled draw's mean square,
        # which is at least 1/n_samples**2 (its lowest bin has amplitude 1)
        if self.noise_power > sys.float_info.max / self.n_samples / self.n_samples:
            raise InvalidInputError(f"noise_power of {self.noise_power:g} is too large "
                                    f"for {self.n_samples} samples")
        if self.seed is not None and not (_is_count(self.seed) and self.seed >= 0):
            raise InvalidInputError("seed must be an integer >= 0 (or None)")

    @property
    def n_samples(self) -> int:
        return int(round(self.duration * self.fs))


class SynthParts(NamedTuple):
    """Composite signal with its deterministic and noise components."""

    composite: Signal
    clean: Signal
    noise: Signal


def clean_power_unit(ami: float) -> float:
    """Closed-form power of the unscaled deterministic part.

    sin^2 averages to 1/2; (0.5 + ami sin)^2 cos^2 averages to
    (1/4 + ami^2/2) / 2. Total: 0.625 + ami^2 / 4.
    """
    return 0.625 + ami * ami / 4.0


def clean_scale_for(clean_power: Optional[float], ami: float) -> float:
    """Factor that rescales the deterministic part to clean_power; None keeps 1."""
    if clean_power is None:
        return 1.0
    if not (0 <= clean_power < math.inf):
        raise InvalidInputError("clean_power must be nonnegative and finite")
    return math.sqrt(clean_power / clean_power_unit(ami))


def pink_noise(n_samples: int, fs: float, target_power: float, seed=None) -> Signal:
    """1/f noise by spectral synthesis.

    Each positive-frequency bin gets amplitude proportional to 1/sqrt(f)
    and an independent uniform phase; DC is zero; the inverse transform is
    rescaled so the output power hits target_power exactly.
    """
    if not (_is_count(n_samples) and n_samples >= 2):
        raise InvalidInputError("n_samples must be an integer of at least 2")
    if target_power < 0:
        raise InvalidInputError("target_power must be nonnegative")
    rng = np.random.default_rng(seed)
    n_freq = n_samples // 2 + 1
    amp = np.zeros(n_freq)
    amp[1:] = 1.0 / np.sqrt(np.arange(1, n_freq, dtype=float))
    phases = rng.uniform(0.0, 2.0 * np.pi, n_freq)
    spec = amp * np.exp(1j * phases)
    spec[0] = 0.0
    if n_samples % 2 == 0:
        # real signal needs a real Nyquist coefficient
        spec[-1] = np.abs(spec[-1])
    x = np.fft.irfft(spec, n=n_samples)
    if target_power == 0.0:
        return Signal(np.zeros(n_samples), fs)
    power = float(np.mean(x * x))
    ratio = target_power / power
    # at SynthesisSpec's largest noise_power the ratio overflows whenever
    # power rounds below its exact value (|exp(i·phase)| can round to
    # 1 - 2^-53); split, the scale stays finite. The one-step form keeps
    # the bits of every other signal
    scale = math.sqrt(ratio) if ratio < math.inf else math.sqrt(target_power) / math.sqrt(power)
    return Signal(x * scale, fs)


def synth_pac(spec: SynthesisSpec) -> SynthParts:
    """Generate the composite pure-PAC signal plus its two components."""
    t = np.arange(spec.n_samples) / spec.fs
    slow = np.sin(2.0 * np.pi * spec.m * t)
    carrier = (0.5 + spec.ami * slow) * np.cos(2.0 * np.pi * spec.n * t)
    clean = Signal(spec.clean_scale * (slow + carrier), spec.fs)
    if spec.noise_power > 0:
        noise = pink_noise(spec.n_samples, spec.fs, spec.noise_power, spec.seed)
    else:
        noise = Signal(np.zeros(spec.n_samples), spec.fs)
    composite = Signal(clean.samples + noise.samples, spec.fs)
    return SynthParts(composite, clean, noise)


def snr(clean: Signal, noise: Signal) -> float:
    """Power ratio of the deterministic part to the noise part."""
    if len(clean) != len(noise):
        raise InvalidInputError("components must have equal length")
    pn = power(noise)
    if pn == 0.0:
        return math.inf
    return power(clean) / pn


def benchmark_spec(pair: int | tuple, seed=None) -> SynthesisSpec:
    """Stock benchmark preset for one of the four (m, n) pairs.

    `pair` is a 1-based index into BENCHMARK_PAIRS or an explicit (m, n)
    tuple. The signal takes SynthesisSpec's defaults, which are
    BENCHMARK_AMI, BENCHMARK_DURATION and BENCHMARK_FS; its deterministic
    part is rescaled to BENCHMARK_CLEAN_POWER against
    BENCHMARK_NOISE_POWER of pink noise.
    """
    if isinstance(pair, int):
        if not 1 <= pair <= len(BENCHMARK_PAIRS):
            raise InvalidInputError(f"pair index must be 1..{len(BENCHMARK_PAIRS)}")
        m, n = BENCHMARK_PAIRS[pair - 1]
    else:
        m, n = pair
    return SynthesisSpec(
        m=m,
        n=n,
        noise_power=BENCHMARK_NOISE_POWER,
        clean_scale=clean_scale_for(BENCHMARK_CLEAN_POWER, BENCHMARK_AMI),
        seed=seed,
    )
