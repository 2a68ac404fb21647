"""Spectral analysis, alignment, and reconstruction kernels.

Feature matrices are time-major: frames[t] is the feature vector of frame t.
Waveform samples are float64 with a nominal [-1, 1] range.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.fft import dct
from scipy.sparse import csr_array
from scipy.spatial.distance import cdist
from scipy.special import i0

from .errors import (
    DimensionMismatchError,
    EmptySequenceError,
    EmptySignalError,
    InvalidConfigError,
    InvalidRateError,
)

LOG_FLOOR = 1e-10  # added to mel power before the log
MEL_F_MIN = 0.0  # Hz; the mel filters span MEL_F_MIN to the Nyquist frequency
N_CEPSTRA = 13  # mel cepstra c1..c13 that mfcc and mcd keep; c0 is dropped
GRIFFIN_LIM_MOMENTUM = 0.9  # weight of the previous rebuilt spectrum in each phase step
# frames per chunk of stft, istft, log_mel, griffin_lim, spectral_convergence and
# pitch.extract_pitch, whose work buffers then hold a chunk rather than the whole utterance
_CHUNK_FRAMES = 64
# resampling operators kept per process, one per reduced (up, down) pair; one holds about
# 20 taps per output of a period, so a coprime pair such as 22,051 -> 22,050 Hz alone takes 5.6 MB
_RESAMPLE_FILTERS = 4
# the longest filter, 20 * max(up, down) + 1 taps, whose operator is kept; a longer one (a
# 1,000,003 Hz source would make a 240 MB operator) is built for its call and then dropped
_RESAMPLE_CACHED_TAPS = 500_000
# window-matrix entries (128 kB) that resample hands the operator at a time, and the most
# taps an operator holds when one period of outputs needs fewer
_RESAMPLE_BLOCK = 16_384
# samples (128 kB of float64) per block of a whole-signal elementwise pass in wavio and enhance,
# whose work buffers then hold a block rather than the whole signal
BLOCK_SAMPLES = 16_384
# Hann windows, and mel tap sets, kept per process (the most recently used); a run needs one of each
_STFT_TABLES = 4

_FEATURE_KINDS = ("magnitude_spectrogram", "log_mel", "mfcc")


@dataclass(frozen=True)
class Waveform:
    """Mono audio samples with their sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise InvalidConfigError(f"waveform must be 1-D, got shape {samples.shape}")
        # NaN propagates through min and max, and neither allocates a mask
        if len(samples) and not (np.isfinite(samples.min()) and np.isfinite(samples.max())):
            raise InvalidConfigError("waveform contains NaN or infinite samples")
        if self.sample_rate <= 0:
            raise InvalidRateError(f"sample rate must be positive, got {self.sample_rate}")
        object.__setattr__(self, "samples", samples)

    def __len__(self):
        return len(self.samples)

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate


@dataclass(frozen=True)
class StftConfig:
    """Framing parameters for the short-time Fourier transform; the window is periodic Hann."""

    fft_size: int = 1024
    win_length: int = 1024
    hop_length: int = 256

    def __post_init__(self):
        if min(self.fft_size, self.win_length, self.hop_length) <= 0:
            raise InvalidConfigError("fft_size, win_length, and hop_length must be positive")
        if self.win_length > self.fft_size:
            raise InvalidConfigError(
                f"win_length {self.win_length} exceeds fft_size {self.fft_size}"
            )
        if self.hop_length > self.win_length:
            raise InvalidConfigError(
                f"hop_length {self.hop_length} exceeds win_length {self.win_length}"
            )

    @property
    def n_bins(self) -> int:
        return self.fft_size // 2 + 1


@dataclass(frozen=True)
class MelConfig:
    """Mel filterbank parameters on top of an STFT configuration.

    The filters span MEL_F_MIN to half the sample rate of whatever signal is analyzed.
    """

    n_mels: int = 80
    stft: StftConfig = StftConfig()

    def __post_init__(self):
        if self.n_mels < 1:
            raise InvalidConfigError(f"n_mels must be at least 1, got {self.n_mels}")


@dataclass(frozen=True)
class FeatureSeq:
    """Time-major feature matrix with its frame rate and kind tag."""

    frames: np.ndarray
    frame_rate: float
    kind: str

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=np.float64)
        if frames.ndim != 2 or frames.shape[0] < 1 or frames.shape[1] < 1:
            raise EmptySequenceError(
                f"feature matrix must be 2-D and non-empty, got shape {frames.shape}"
            )
        # NaN propagates through min and max, and neither allocates a mask
        if not (np.isfinite(frames.min()) and np.isfinite(frames.max())):
            raise InvalidConfigError("feature matrix contains NaN or infinite entries")
        if self.frame_rate <= 0:
            raise InvalidRateError(f"frame rate must be positive, got {self.frame_rate}")
        if self.kind not in _FEATURE_KINDS:
            raise InvalidConfigError(f"unknown feature kind {self.kind!r}")
        object.__setattr__(self, "frames", frames)

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def dim(self) -> int:
        return self.frames.shape[1]


@dataclass(frozen=True)
class DtwAlignment:
    """Monotone frame-to-frame alignment between two sequences."""

    path: tuple
    total_cost: float


def hann_window(n: int) -> np.ndarray:
    """Periodic Hann window of length n."""
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


@lru_cache(maxsize=_STFT_TABLES)
def _window(n: int) -> np.ndarray:
    """hann_window(n), built once per process and read-only."""
    window = hann_window(n)
    window.flags.writeable = False
    return window


def _n_frames(n_samples: int, win_length: int, hop_length: int) -> int:
    """Number of frames centered on samples 0, hop_length, ... (1 + n_samples // hop_length
    for an even win_length)."""
    pad = win_length // 2
    return 1 + (n_samples + 2 * pad - win_length) // hop_length


def _frame_chunks(samples: np.ndarray, win_length: int, hop_length: int, chunk: int):
    """Yield the centered frames of samples, chunk frames at a time, without padding a copy.

    The signal is reflect-padded by win_length // 2 on each side. A chunk
    whose frames lie inside the signal is a read-only view of it. Only a
    chunk whose frames reach past either end is gathered, and only its own
    span: its samples inside the signal are copied as one slice, and only
    the positions past either end are reflected.
    """
    n = len(samples)
    if n == 0:
        raise EmptySignalError("cannot frame an empty signal")
    pad = win_length // 2
    n_frames = _n_frames(n, win_length, hop_length)
    period = max(2 * (n - 1), 1)  # np.pad's reflection is periodic in the sample index

    def reflected(start, stop):
        idx = np.arange(start, stop) % period
        return samples[np.minimum(idx, period - idx)]

    for t0 in range(0, n_frames, chunk):
        lo = t0 * hop_length - pad
        hi = (min(t0 + chunk, n_frames) - 1) * hop_length - pad + win_length
        span = samples[max(lo, 0) : min(hi, n)]
        if lo < 0 or hi > n:
            span = np.concatenate((reflected(lo, min(hi, 0)), span, reflected(max(lo, n), hi)))
        step = span.strides[0]
        yield as_strided(span, (1 + (len(span) - win_length) // hop_length, win_length),
                         (hop_length * step, step), writeable=False)


def _windowed_chunks(samples, cfg: StftConfig):
    """Yield (t, frames): the frames t (a slice) of samples times the Hann window.

    The analysis half of the STFT kernels. Every chunk is written into one
    buffer, so the caller takes each chunk's rfft before asking for the next.
    """
    window = _window(cfg.win_length)
    n_frames = _n_frames(len(samples), cfg.win_length, cfg.hop_length)
    buf = np.empty((min(n_frames, _CHUNK_FRAMES), cfg.win_length))
    t0 = 0
    for chunk in _frame_chunks(samples, cfg.win_length, cfg.hop_length, _CHUNK_FRAMES):
        yield slice(t0, t0 + len(chunk)), np.multiply(chunk, window, out=buf[: len(chunk)])
        t0 += len(chunk)


def _magnitude_chunks(samples, cfg: StftConfig):
    """Yield (t, magnitudes): |rfft| of the windowed frames t (a slice) of samples.

    Every chunk is written into one buffer, which the caller may overwrite
    before asking for the next.
    """
    n_chunk = min(_n_frames(len(samples), cfg.win_length, cfg.hop_length), _CHUNK_FRAMES)
    spectra = np.empty((n_chunk, cfg.n_bins), complex)
    mags = np.empty((n_chunk, cfg.n_bins))
    for t, chunk in _windowed_chunks(samples, cfg):
        spectrum = np.fft.rfft(chunk, n=cfg.fft_size, axis=1, out=spectra[: len(chunk)])
        yield t, np.abs(spectrum, out=mags[: len(chunk)])


def _chunked_sum_squares(a: np.ndarray) -> float:
    """Sum of a's squared entries: np.sum over each chunk of _CHUNK_FRAMES rows, the
    chunk sums added in increasing row order. No BLAS call, so its bits do not
    depend on the BLAS thread count, and only one chunk of squares is held."""
    total = 0.0
    for t0 in range(0, len(a), _CHUNK_FRAMES):
        chunk = a[t0 : t0 + _CHUNK_FRAMES]
        total += np.sum(chunk * chunk)
    return total


def stft(w: Waveform, cfg: StftConfig = StftConfig()) -> FeatureSeq:
    """Magnitude spectrogram of centered, Hann-windowed frames."""
    spec = np.empty((_n_frames(len(w), cfg.win_length, cfg.hop_length), cfg.n_bins))
    for t, mags in _magnitude_chunks(w.samples, cfg):
        spec[t] = mags
    return FeatureSeq(spec, w.sample_rate / cfg.hop_length, "magnitude_spectrogram")


def istft(spec: np.ndarray, cfg: StftConfig = StftConfig()) -> np.ndarray:
    """Overlap-add inverse of the framing used by stft.

    Accepts a complex (n_frames, n_bins) array and returns
    hop_length * (n_frames - 1) + win_length % 2 samples, undoing the center
    padding: one more than the hops for an odd win_length.
    """
    spec = np.asarray(spec)
    if spec.ndim != 2 or spec.shape[1] != cfg.n_bins:
        raise DimensionMismatchError(
            f"expected (n_frames, {cfg.n_bins}) spectrogram, got {spec.shape}"
        )
    plan = _ola_plan(cfg, len(spec))
    out = np.zeros(plan[0])
    for t0 in range(0, len(spec), _CHUNK_FRAMES):
        _add_frames(spec[t0 : t0 + _CHUNK_FRAMES], cfg, out, t0)
    return _normalized(out, cfg, plan)


def _add_frames(spec: np.ndarray, cfg: StftConfig, out: np.ndarray, t0: int) -> None:
    """Overlap-add the windowed irfft frames of spec, the frames of a spectrogram
    from t0 on, into out, the buffer of its _ola_plan.

    Adding a spectrogram's chunks in increasing t0 sums each sample's frames
    in increasing t, as one overlap-add of the whole array does.
    """
    # irfft computes in the precision of spec, as on the whole array
    frames = np.fft.irfft(spec, n=cfg.fft_size, axis=1)
    windowed = np.multiply(frames[:, : cfg.win_length], _window(cfg.win_length))
    _overlap_add(windowed, cfg.hop_length, out[t0 * cfg.hop_length :])


def _normalized(out: np.ndarray, cfg: StftConfig, plan) -> np.ndarray:
    """The overlap-add buffer out divided in place by the window-squared norm of
    its _ola_plan, silent samples zeroed, without the center padding."""
    _, divisor, silent = plan
    out = out[: len(divisor)]
    np.divide(out, divisor, out=out)
    np.copyto(out, 0.0, where=silent)
    pad = cfg.win_length // 2
    return out[pad : len(out) - pad]


def _overlap_add(frames: np.ndarray, hop_length: int, out: np.ndarray) -> np.ndarray:
    """Add frames[t] into out from sample t * hop_length on.

    out holds a multiple of hop_length samples, at least
    hop_length * (n_frames + ceil(win_length / hop_length) - 1), viewed as
    blocks of hop_length. Piece k of frame t, its samples from k * hop_length
    on, lands on block t + k, so adding the pieces from the last down to the
    first adds each sample's terms in increasing t, the order of a
    frame-by-frame loop.
    """
    n_frames, win_length = frames.shape
    blocks = out.reshape(-1, hop_length)
    for start in reversed(range(0, win_length, hop_length)):
        piece = frames[:, start : start + hop_length]
        k = start // hop_length
        blocks[k : k + n_frames, : piece.shape[1]] += piece
    return out


def _ola_plan(cfg: StftConfig, n_frames: int) -> tuple[int, np.ndarray, np.ndarray]:
    """(buffer samples, divisor, silent mask) of an n_frames overlap-add.

    The window-squared norm depends only on the frame count; divisor and
    silent cover the hop_length * (n_frames - 1) + win_length samples
    before trimming.
    """
    if n_frames < 2:
        raise EmptySequenceError("need at least 2 frames to reconstruct a signal")
    win, hop = cfg.win_length, cfg.hop_length
    n_samples = hop * (n_frames - 1 + -(-win // hop))
    wsq = _window(win) ** 2
    norm = _overlap_add(np.broadcast_to(wsq, (n_frames, win)), hop, np.zeros(n_samples))
    norm = norm[: hop * (n_frames - 1) + win]
    tiny = np.finfo(np.float64).tiny
    return n_samples, np.maximum(norm, tiny), ~(norm > tiny)


def hz_to_mel(f):
    """Map frequency in Hz to mel (2595 * log10(1 + f / 700))."""
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    """Inverse of hz_to_mel."""
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def _mel_edges(sample_rate: int, cfg: MelConfig) -> np.ndarray:
    mel_pts = np.linspace(hz_to_mel(MEL_F_MIN), hz_to_mel(sample_rate / 2.0), cfg.n_mels + 2)
    return mel_to_hz(mel_pts)


def mel_filterbank(sample_rate: int, cfg: MelConfig = MelConfig()) -> np.ndarray:
    """Triangular mel filters sampled at FFT bin frequencies, (n_mels, n_bins)."""
    edges = _mel_edges(sample_rate, cfg)
    left, center, right = edges[:-2], edges[1:-1], edges[2:]
    bin_hz = np.arange(cfg.stft.n_bins) * sample_rate / cfg.stft.fft_size
    tiny = np.finfo(np.float64).tiny
    up = (bin_hz[None, :] - left[:, None]) / np.maximum(center - left, tiny)[:, None]
    down = (right[:, None] - bin_hz[None, :]) / np.maximum(right - center, tiny)[:, None]
    return np.maximum(0.0, np.minimum(up, down))


@lru_cache(maxsize=_STFT_TABLES)
def _mel_taps(sample_rate: int, cfg: MelConfig) -> tuple:
    """(bins, weights, starts, filled): mel_filterbank's nonzero entries, band by band,
    built once per process and read-only.

    Band m's entries are bins[starts[k]:starts[k + 1]] with their weights,
    where m is the k-th band that filled marks as having any; a band with
    none sums to 0.
    """
    fb = mel_filterbank(sample_rate, cfg)
    bands, bins = np.nonzero(fb)  # band-major, bins increasing within a band
    counts = np.bincount(bands, minlength=len(fb))
    filled = counts > 0
    starts = (np.cumsum(counts) - counts)[filled]
    taps = bins, fb[bands, bins], starts, filled
    for table in taps:
        table.flags.writeable = False
    return taps


def log_mel(w: Waveform, cfg: MelConfig = MelConfig()) -> FeatureSeq:
    """Natural-log mel power spectrogram.

    Each chunk of STFT magnitudes is squared and projected straight onto the
    mel bands. The filters are triangles, so a band sums only its few nonzero
    bins, in increasing bin order, with no BLAS call: the bits do not depend
    on the BLAS thread count, and no whole spectrogram is kept.
    """
    scfg = cfg.stft
    bins, weights, starts, filled = _mel_taps(w.sample_rate, cfg)
    mel = np.zeros((_n_frames(len(w), scfg.win_length, scfg.hop_length), cfg.n_mels))
    for t, mags in _magnitude_chunks(w.samples, scfg):
        power = np.square(mags, out=mags)
        taps = np.take(power, bins, axis=1)
        taps *= weights
        # reduceat gives an empty segment its first entry, not 0, so empty bands get none
        mel[t, filled] = np.add.reduceat(taps, starts, axis=1)
    mel += LOG_FLOOR
    return FeatureSeq(np.log(mel, out=mel), w.sample_rate / scfg.hop_length, "log_mel")


def mfcc(w: Waveform, cfg: MelConfig = MelConfig()) -> FeatureSeq:
    """Cepstral coefficients c1..c_N_CEPSTRA of the log-mel frames, c0 excluded."""
    return mel_cepstrum(log_mel(w, cfg))


def check_cepstrum(n_mels: int) -> None:
    """Raise InvalidConfigError unless n_mels bands yield N_CEPSTRA cepstra, c0 excluded."""
    if N_CEPSTRA >= n_mels:
        raise InvalidConfigError(
            f"n_coeffs {N_CEPSTRA} must be smaller than n_mels {n_mels}"
        )


def mel_cepstrum(logm: FeatureSeq) -> FeatureSeq:
    """mfcc from log-mel frames already computed, for callers that need both."""
    if logm.kind != "log_mel":
        raise InvalidConfigError(f"expected log-mel frames, got {logm.kind!r}")
    check_cepstrum(logm.dim)
    coeffs = dct(logm.frames, type=2, norm="ortho", axis=1)[:, 1 : N_CEPSTRA + 1]
    return FeatureSeq(coeffs, logm.frame_rate, "mfcc")


def dtw_align(a, b) -> DtwAlignment:
    """Minimum-cost monotone alignment under Euclidean frame distance.

    Accepts FeatureSeq values or plain (n_frames, dim) arrays. Steps are
    (+1, 0), (0, +1), and (+1, +1); cost is the sum of frame distances over
    every path node including both endpoints. Ties during backtrace prefer
    the diagonal step, then advancing the first sequence.
    """
    a = a.frames if isinstance(a, FeatureSeq) else np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = b.frames if isinstance(b, FeatureSeq) else np.atleast_2d(np.asarray(b, dtype=np.float64))
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise EmptySequenceError("cannot align empty sequences")
    if a.shape[1] != b.shape[1]:
        raise DimensionMismatchError(
            f"feature dimensions differ: {a.shape[1]} vs {b.shape[1]}"
        )
    cost = cdist(a, b)
    n1, n2 = cost.shape
    # The distance matrix becomes the cost grid in place. The edges are
    # running sums, as in a row-by-row fill. Cells with i + j == s depend
    # only on diagonals s-1 and s-2, so each anti-diagonal is one vector
    # step. Cell (i, s-i) sits at flat offset s + i * (n2 - 1), and its
    # neighbours (i-1, j-1), (i-1, j) and (i, j-1) sit n2 + 1, n2 and 1
    # before it.
    np.cumsum(cost[0], out=cost[0])
    np.cumsum(cost[:, 0], out=cost[:, 0])
    flat = cost.reshape(-1)
    step = n2 - 1
    for s in range(2, n1 + n2 - 1):
        lo, hi = max(1, s - step), min(s, n1) - 1
        if lo > hi:
            continue
        first, stop = s + lo * step, s + hi * step + 1
        diag = flat[first - n2 - 1 : stop - n2 - 1 : step]
        up = flat[first - n2 : stop - n2 : step]
        left = flat[first - 1 : stop - 1 : step]
        cells = flat[first:stop:step]
        # The strict comparisons of a scalar fill: ties keep the diagonal,
        # then (i-1, j), and a NaN neighbour never wins. fmin skips a NaN
        # candidate; minimum keeps a NaN best, which the scalar fill keeps.
        best = np.minimum(diag, np.fmin(up, diag))
        best = np.minimum(best, np.fmin(left, best))
        np.add(best, cells, out=cells)
    # Each backtrace step is worked out again from the three neighbours,
    # with the fill's comparisons and tie order.
    i, j = n1 - 1, n2 - 1
    path = [(i, j)]
    while i or j:
        if i and j:
            to = (i - 1, j - 1)
            if cost[i - 1, j] < cost[to]:
                to = (i - 1, j)
            if cost[i, j - 1] < cost[to]:
                to = (i, j - 1)
            i, j = to
        else:
            i, j = max(i - 1, 0), max(j - 1, 0)
        path.append((i, j))
    path.reverse()
    return DtwAlignment(tuple(path), float(cost[n1 - 1, n2 - 1]))


def griffin_lim(
    spec: FeatureSeq, cfg: StftConfig = StftConfig(), n_iters: int = 32, seed: int = 0
) -> Waveform:
    """Reconstruct audio from a magnitude spectrogram by phase iteration.

    Starts from random phases drawn from the seeded generator, then
    alternates resynthesis and reanalysis with GRIFFIN_LIM_MOMENTUM extrapolation,
    keeping the target magnitude throughout. Returns the iterate with the
    smallest relative magnitude gap, so more iterations never reconstruct
    worse for a fixed seed.
    """
    if spec.kind != "magnitude_spectrogram":
        raise InvalidConfigError(f"expected a magnitude spectrogram, got {spec.kind!r}")
    if spec.dim != cfg.n_bins:
        raise DimensionMismatchError(
            f"spectrogram has {spec.dim} bins but the config implies {cfg.n_bins}"
        )
    if n_iters < 1:
        raise InvalidConfigError(f"n_iters must be at least 1, got {n_iters}")
    mag = spec.frames
    if mag.min() < 0:
        raise InvalidConfigError("magnitude spectrogram has negative entries")
    sample_rate = int(round(spec.frame_rate * cfg.hop_length))
    with np.errstate(over="ignore"):
        mag_norm = math.sqrt(_chunked_sum_squares(mag))
    if not np.isfinite(mag_norm):
        raise InvalidConfigError("magnitude spectrogram's norm overflows float64")
    plan = _ola_plan(cfg, len(mag))
    if mag_norm == 0.0:
        return Waveform(_normalized(np.zeros(plan[0]), cfg, plan), sample_rate)
    # Iterate 0 is mag times random phases, drawn chunk by chunk in the order
    # of one whole draw, so no whole phase array is made.
    rng = np.random.default_rng(seed)
    y = np.zeros(plan[0])
    for t0 in range(0, len(mag), _CHUNK_FRAMES):
        t = slice(t0, t0 + _CHUNK_FRAMES)
        phases = np.exp(1j * rng.uniform(-np.pi, np.pi, mag[t].shape))
        _add_frames(np.multiply(mag[t], phases, out=phases), cfg, y, t0)
    y = _normalized(y, cfg, plan)
    # rebuilt is whole; work and step hold one chunk of frames. work holds
    # first |rebuilt| - mag, whose squares the error sums, then the phase
    # divisor. Each step below is the ufunc of the plain expression, with the
    # same operands in the same order, writing through out=, so its bits are
    # those of a fresh array. Until a chunk's rfft overwrites it, rebuilt
    # holds the previous spectrum, so the momentum step is formed in step:
    # shrink * previous first, then rebuilt minus that. The error's chunk
    # sums are added in increasing chunk order, as _chunked_sum_squares adds
    # them. Each pass over iterate k overlap-adds iterate k + 1 into nxt, so
    # at most three signals are alive: the best, this one and the next.
    work = np.empty((min(len(mag), _CHUNK_FRAMES), cfg.n_bins))
    step = np.empty(work.shape, complex)
    rebuilt = np.zeros(mag.shape, complex)
    shrink = GRIFFIN_LIM_MOMENTUM / (1.0 + GRIFFIN_LIM_MOMENTUM)
    best_err = math.inf
    best = None
    for k in range(n_iters + 1):
        nxt = np.zeros(plan[0]) if k < n_iters else None
        gap_sq = 0.0
        for t, chunk in _windowed_chunks(y, cfg):
            buf, new = work[: len(chunk)], step[: len(chunk)]
            np.multiply(shrink, rebuilt[t], out=new)
            np.fft.rfft(chunk, n=cfg.fft_size, axis=1, out=rebuilt[t])
            np.abs(rebuilt[t], out=buf)
            buf -= mag[t]
            gap_sq += np.sum(np.multiply(buf, buf, out=buf))
            if nxt is not None:
                np.subtract(rebuilt[t], new, out=new)
                np.abs(new, out=buf)
                buf += 1e-16
                np.divide(new, buf, out=new)
                _add_frames(np.multiply(mag[t], new, out=new), cfg, nxt, t.start)
        err = math.sqrt(gap_sq) / mag_norm
        if err < best_err:
            best_err = err
            best = y
        if nxt is not None:
            y = _normalized(nxt, cfg, plan)  # iterate k is freed here unless it is best
    return Waveform(best, sample_rate)


def spectral_convergence(target: FeatureSeq, w: Waveform, cfg: StftConfig = StftConfig()) -> float:
    """Relative Frobenius gap between a target magnitude and a waveform's.

    Both norms are square roots of sums of squares taken one chunk of frames
    at a time, as _chunked_sum_squares takes them; w's magnitude is never whole.
    """
    shape = (_n_frames(len(w), cfg.win_length, cfg.hop_length), cfg.n_bins)
    if shape != target.frames.shape:
        raise DimensionMismatchError(
            f"spectrogram shapes differ: {shape} vs {target.frames.shape}"
        )
    gap_sq = 0.0
    with np.errstate(over="ignore"):  # a sum of squares past float64 is inf, without a warning
        for t, mags in _magnitude_chunks(w.samples, cfg):
            mags -= target.frames[t]
            gap_sq += np.sum(np.multiply(mags, mags, out=mags))
        denom = math.sqrt(_chunked_sum_squares(target.frames))
    gap = math.sqrt(gap_sq)
    if denom == 0.0:
        return 0.0 if gap == 0.0 else math.inf
    return gap / denom


def _kaiser_lowpass(max_rate: int) -> np.ndarray:
    """The low-pass FIR that scipy's resample_poly designs for itself when max(up, down) is
    max_rate: firwin(20 * max_rate + 1, 1 / max_rate, window=("kaiser", 5.0)).

    Each step is scipy 1.17's firwin and kaiser step, so the bits are theirs. Two of firwin's
    steps are left out because they change no bit: subtracting the band's zero left edge
    (h - 0.0 is h) and weighting the scale sum by cos(0) = 1. np.i0 would not do: its bits
    differ from scipy.special.i0's.
    """
    numtaps = 20 * max_rate + 1
    cutoff = 1.0 / max_rate
    alpha = 0.5 * (numtaps - 1)
    m = np.arange(numtaps, dtype=np.float64) - alpha
    h = cutoff * np.sinc(cutoff * m)
    h *= i0(5.0 * np.sqrt(1 - (m / alpha) ** 2.0)) / i0(np.float64(5.0))
    h /= np.sum(h)
    return h


@lru_cache(maxsize=_RESAMPLE_FILTERS)
def _resample_operator(up: int, down: int) -> tuple:
    """(op, offset, step): resample_poly(x, up, down) as a sparse matrix over windows of x.

    resample_poly scales the low-pass h by up and delays it by delay = down - half % down
    zeros, where half = 10 * max(up, down). Its output m sums x[j] * h[m * down - j * up]
    over the inputs j, oldest first, into a zeroed sum, and it keeps the outputs from
    first = (half + delay) // down on. Row r of op holds those taps for output
    first + b * op.shape[0] + r, over the window of x that starts at input b * step + offset.
    The rows span q periods of up outputs, with q = ceil(4 * per_phase / down), so that
    consecutive windows share at most about a fifth of their inputs. Where that would give
    op more than _RESAMPLE_BLOCK taps, q is cut, down to one period, so that a large up over
    a small down (1 Hz to 22.05 kHz) does not build q periods of taps. scipy's csr_matvecs
    adds each row's products to a zeroed output in stored order, as resample_poly does.
    A window also reaches zeros past either end of x, and h's leading zeros; each adds ±0
    to a sum that began as +0.0. A float sum is -0.0 only if both addends are, so the sum
    is never -0.0 and adding ±0 changes no bit.
    """
    half = 10 * max(up, down)
    delay = down - half % down
    h = np.concatenate((np.zeros(delay), _kaiser_lowpass(max(up, down)) * up))
    first = (half + delay) // down
    per_phase = -(-len(h) // up)
    q = max(1, min(-(-4 * per_phase // down), _RESAMPLE_BLOCK // (per_phase * up)))
    r = np.arange(q * up)
    newest = (first + r) * down // up  # the last input each output sums
    offset = newest[0] - per_phase + 1
    cols = newest[:, None] - offset - np.arange(per_phase - 1, -1, -1)
    taps = (first + r[:, None]) * down - (cols + offset) * up
    inside = taps < len(h)  # taps >= 0 everywhere, as cols stops at newest
    # int32 indices: 2**31 taps would take 16 GB
    indptr = np.concatenate(([0], np.cumsum(inside.sum(axis=1)))).astype(np.int32)
    indices = cols[inside].astype(np.int32)
    op = csr_array((h[taps[inside]], indices, indptr), shape=(len(r), newest[-1] - offset + 1))
    return op, offset, q * down


def resample(w: Waveform, target_rate: int) -> Waveform:
    """Band-limited resampling with a windowed-sinc polyphase filter, bit for bit
    scipy.signal.resample_poly with the filter it designs for itself.

    The operator depends only on the reduced rate ratio, so each is built once per
    process; the _RESAMPLE_FILTERS most recently used are kept, unless the filter has more
    than _RESAMPLE_CACHED_TAPS taps. It is applied to
    _RESAMPLE_BLOCK window entries at a time, so no whole window matrix is built.
    """
    if target_rate <= 0:
        raise InvalidRateError(f"target rate must be positive, got {target_rate}")
    if len(w) == 0:
        raise EmptySignalError("cannot resample an empty signal")
    if target_rate == w.sample_rate:
        return w
    g = math.gcd(int(target_rate), int(w.sample_rate))
    up, down = int(target_rate) // g, int(w.sample_rate) // g
    build = _resample_operator
    if 20 * max(up, down) + 1 > _RESAMPLE_CACHED_TAPS:
        build = _resample_operator.__wrapped__
    op, offset, step = build(up, down)
    rows, width = op.shape
    x, n = w.samples, len(w)
    n_out = -(-n * up // down)
    n_blocks = -(-n_out // rows)
    out = np.empty(n_blocks * rows)
    per_block = max(1, _RESAMPLE_BLOCK // width)
    for b0 in range(0, n_blocks, per_block):
        nb = min(per_block, n_blocks - b0)
        # the windows of these outputs span inputs [lo, hi), where lo < n and hi > 0
        lo = b0 * step + offset
        hi = lo + (nb - 1) * step + width
        span = x[max(lo, 0) : min(hi, n)]
        if lo < 0 or hi > n:
            span = np.concatenate((np.zeros(max(-lo, 0)), span, np.zeros(max(hi - n, 0))))
        windows = as_strided(span, (width, nb), (span.strides[0], step * span.strides[0]),
                             writeable=False)
        block = op @ np.ascontiguousarray(windows)
        out[b0 * rows : (b0 + nb) * rows].reshape(nb, rows)[...] = block.T
    return Waveform(out[:n_out], target_rate)
