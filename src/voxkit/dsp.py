"""Spectral analysis, alignment, and reconstruction kernels.

Feature matrices are time-major: frames[t] is the feature vector of frame t.
Waveform samples are float64 with a nominal [-1, 1] range.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.fft import dct
from scipy.signal import resample_poly
from scipy.spatial.distance import cdist

from .errors import (
    DimensionMismatchError,
    EmptySequenceError,
    EmptySignalError,
    InvalidConfigError,
    InvalidRateError,
)

DEFAULT_FFT_SIZE = 1024
DEFAULT_WIN_LENGTH = 1024
DEFAULT_HOP_LENGTH = 256
LOG_FLOOR = 1e-10  # added to mel power before the log
MEL_F_MIN = 0.0  # Hz; the mel filters span MEL_F_MIN to the Nyquist frequency
N_CEPSTRA = 13  # mel cepstra c1..c13 that mfcc and mcd keep; c0 is dropped
GRIFFIN_LIM_MOMENTUM = 0.9  # weight of the previous rebuilt spectrum in each phase step

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
        if not np.all(np.isfinite(samples)):
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

    fft_size: int = DEFAULT_FFT_SIZE
    win_length: int = DEFAULT_WIN_LENGTH
    hop_length: int = DEFAULT_HOP_LENGTH

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
    stft: StftConfig = field(default_factory=StftConfig)

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
        if not np.all(np.isfinite(frames)):
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


def _center_pad(samples: np.ndarray, win_length: int) -> np.ndarray:
    """Reflect-pad a signal by win_length // 2 on each side."""
    samples = np.asarray(samples, dtype=np.float64)
    if len(samples) == 0:
        raise EmptySignalError("cannot frame an empty signal")
    return np.pad(samples, win_length // 2, mode="reflect")


def frame_signal(samples: np.ndarray, win_length: int, hop_length: int) -> np.ndarray:
    """Slice a signal into centered frames after reflect padding.

    Padding is win_length // 2 on each side, so frame t is centered on
    sample t * hop_length and the frame count is 1 + len(samples) // hop
    for even window lengths. Returns a read-only strided view of the
    padded signal, not a copy.
    """
    padded = _center_pad(samples, win_length)
    return sliding_window_view(padded, win_length)[::hop_length]


def _stft_complex(samples: np.ndarray, cfg: StftConfig) -> np.ndarray:
    frames = frame_signal(samples, cfg.win_length, cfg.hop_length)
    return np.fft.rfft(frames * hann_window(cfg.win_length), n=cfg.fft_size, axis=1)


def stft(w: Waveform, cfg: StftConfig | None = None) -> FeatureSeq:
    """Magnitude spectrogram of centered, Hann-windowed frames."""
    cfg = cfg or StftConfig()
    spec = np.abs(_stft_complex(w.samples, cfg))
    return FeatureSeq(spec, w.sample_rate / cfg.hop_length, "magnitude_spectrogram")


def istft(spec: np.ndarray, cfg: StftConfig | None = None) -> np.ndarray:
    """Overlap-add inverse of the framing used by stft.

    Accepts a complex (n_frames, n_bins) array and returns
    hop_length * (n_frames - 1) samples, undoing the center padding.
    """
    cfg = cfg or StftConfig()
    spec = np.asarray(spec)
    if spec.ndim != 2 or spec.shape[1] != cfg.n_bins:
        raise DimensionMismatchError(
            f"expected (n_frames, {cfg.n_bins}) spectrogram, got {spec.shape}"
        )
    n_samples, divisor, silent = _ola_plan(cfg, spec.shape[0])
    frames = np.fft.irfft(spec, n=cfg.fft_size, axis=1)[:, : cfg.win_length]
    frames = frames * hann_window(cfg.win_length)
    out = _overlap_add(frames, cfg.hop_length, np.zeros(n_samples))
    return _ola_normalize(out, divisor, silent, cfg.win_length)


def _overlap_add(frames: np.ndarray, hop_length: int, out: np.ndarray) -> np.ndarray:
    """Add frames[t] into the zeroed out from sample t * hop_length on.

    out holds hop_length * (n_frames + ceil(win_length / hop_length) - 1)
    samples, viewed as blocks of hop_length. Chunk k of frame t lands on
    block t + k, so adding the chunks from the last down to the first adds
    each sample's terms in increasing t, the order of a frame-by-frame loop.
    """
    n_frames, win_length = frames.shape
    blocks = out.reshape(-1, hop_length)
    for start in reversed(range(0, win_length, hop_length)):
        chunk = frames[:, start : start + hop_length]
        k = start // hop_length
        blocks[k : k + n_frames, : chunk.shape[1]] += chunk
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
    wsq = hann_window(win) ** 2
    norm = _overlap_add(np.broadcast_to(wsq, (n_frames, win)), hop, np.zeros(n_samples))
    norm = norm[: hop * (n_frames - 1) + win]
    tiny = np.finfo(np.float64).tiny
    return n_samples, np.maximum(norm, tiny), ~(norm > tiny)


def _ola_normalize(
    out: np.ndarray, divisor: np.ndarray, silent: np.ndarray, win_length: int
) -> np.ndarray:
    """Divide an overlap-add sum by the window norm in place, zero where the
    norm vanishes, and return the view without the center padding."""
    out = out[: len(divisor)]
    np.divide(out, divisor, out=out)
    np.copyto(out, 0.0, where=silent)
    pad = win_length // 2
    return out[pad : len(out) - pad]


def hz_to_mel(f):
    """Map frequency in Hz to mel (2595 * log10(1 + f / 700))."""
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    """Inverse of hz_to_mel."""
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def _mel_edges(sample_rate: int, cfg: MelConfig) -> np.ndarray:
    mel_pts = np.linspace(hz_to_mel(MEL_F_MIN), hz_to_mel(sample_rate / 2.0), cfg.n_mels + 2)
    return mel_to_hz(mel_pts)


def mel_center_frequencies(sample_rate: int, cfg: MelConfig | None = None) -> np.ndarray:
    """Center frequency in Hz of each triangular mel filter."""
    cfg = cfg or MelConfig()
    return _mel_edges(sample_rate, cfg)[1:-1]


def mel_filterbank(sample_rate: int, cfg: MelConfig | None = None) -> np.ndarray:
    """Triangular mel filters sampled at FFT bin frequencies, (n_mels, n_bins)."""
    cfg = cfg or MelConfig()
    edges = _mel_edges(sample_rate, cfg)
    left, center, right = edges[:-2], edges[1:-1], edges[2:]
    bin_hz = np.arange(cfg.stft.n_bins) * sample_rate / cfg.stft.fft_size
    tiny = np.finfo(np.float64).tiny
    up = (bin_hz[None, :] - left[:, None]) / np.maximum(center - left, tiny)[:, None]
    down = (right[:, None] - bin_hz[None, :]) / np.maximum(right - center, tiny)[:, None]
    return np.maximum(0.0, np.minimum(up, down))


def log_mel(w: Waveform, cfg: MelConfig | None = None) -> FeatureSeq:
    """Natural-log mel power spectrogram."""
    cfg = cfg or MelConfig()
    spec = stft(w, cfg.stft)
    power = spec.frames**2
    fb = mel_filterbank(w.sample_rate, cfg)
    return FeatureSeq(np.log(power @ fb.T + LOG_FLOOR), spec.frame_rate, "log_mel")


def mfcc(w: Waveform, cfg: MelConfig | None = None) -> FeatureSeq:
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
    d = cdist(a, b)
    n1, n2 = d.shape
    move = np.zeros((n1, n2), dtype=np.int8)  # 0 diagonal, 1 from (i-1,j), 2 from (i,j-1)
    move[0, 1:] = 2
    move[1:, 0] = 1
    # Cells with i + j == s depend only on diagonals s-1 and s-2, so each
    # anti-diagonal is one vector step, written over diagonal s-2 once its
    # candidates are read. Diagonals are indexed by i; cell (i, s-i) sits
    # at flat offset s + i * (n2 - 1) of a row-major n1 x n2 matrix. The
    # edges are running sums, as in a row-by-row fill.
    first_row = np.cumsum(d[0])
    first_col = np.cumsum(d[:, 0])
    d_flat = d.reshape(-1)
    move_flat = move.reshape(-1)
    step = n2 - 1
    older, prev = np.empty(n1), np.empty(n1)
    for s in range(n1 + n2 - 1):
        lo, hi = max(1, s - step), min(s, n1) - 1
        if lo <= hi:
            diag, up, left = older[lo - 1 : hi], prev[lo - 1 : hi], prev[lo : hi + 1]
            # The strict comparisons of a scalar fill: ties keep the
            # diagonal, then (i-1, j). np.argmin keeps that order too, but
            # takes NaN as the minimum where the scalar fill never moves to it.
            from_up = up < diag
            best = np.where(from_up, up, diag)
            from_left = left < best
            best = np.where(from_left, left, best)
            cells = slice(s + lo * step, s + hi * step + 1, step)
            np.add(best, d_flat[cells], out=older[lo : hi + 1])
            move_flat[cells] = np.where(from_left, 2, from_up)
        if s < n2:
            older[0] = first_row[s]
        if s < n1:
            older[s] = first_col[s]
        older, prev = prev, older
    total_cost = prev[n1 - 1]
    i, j = n1 - 1, n2 - 1
    path = [(i, j)]
    while i or j:
        m = move[i, j]
        if m == 0:
            i, j = i - 1, j - 1
        elif m == 1:
            i -= 1
        else:
            j -= 1
        path.append((i, j))
    path.reverse()
    return DtwAlignment(tuple(path), float(total_cost))


def griffin_lim(
    spec: FeatureSeq,
    cfg: StftConfig | None = None,
    n_iters: int = 32,
    seed: int = 0,
) -> Waveform:
    """Reconstruct audio from a magnitude spectrogram by phase iteration.

    Starts from random phases drawn from the seeded generator, then
    alternates resynthesis and reanalysis with GRIFFIN_LIM_MOMENTUM extrapolation,
    keeping the target magnitude throughout. Returns the iterate with the
    smallest relative magnitude gap, so more iterations never reconstruct
    worse for a fixed seed.
    """
    cfg = cfg or StftConfig()
    if spec.kind != "magnitude_spectrogram":
        raise InvalidConfigError(f"expected a magnitude spectrogram, got {spec.kind!r}")
    if spec.dim != cfg.n_bins:
        raise DimensionMismatchError(
            f"spectrogram has {spec.dim} bins but the config implies {cfg.n_bins}"
        )
    if n_iters < 1:
        raise InvalidConfigError(f"n_iters must be at least 1, got {n_iters}")
    mag = spec.frames
    if np.any(mag < 0):
        raise InvalidConfigError("magnitude spectrogram has negative entries")
    sample_rate = int(round(spec.frame_rate * cfg.hop_length))
    mag_norm = np.linalg.norm(mag)
    if mag_norm == 0.0:
        return Waveform(istft(mag.astype(np.complex128), cfg), sample_rate)
    rng = np.random.default_rng(seed)
    angles = np.exp(1j * rng.uniform(-np.pi, np.pi, mag.shape))
    window = hann_window(cfg.win_length)
    n_samples, divisor, silent = _ola_plan(cfg, len(mag))
    # Every array is allocated here, once. Each step below is the ufunc of
    # the plain expression, with the same operands in the same order,
    # writing through out=, so its bits are those of a fresh array. angles
    # is overwritten by mag * angles; the momentum step is formed in
    # prev_rebuilt, and the two complex buffers then trade places.
    ifft_frames = np.empty((len(mag), cfg.fft_size))
    frames = np.empty((len(mag), cfg.win_length))
    rebuilt, prev_rebuilt = np.empty_like(angles), np.zeros_like(angles)
    scratch = np.empty(mag.shape)
    # best stays a view of the signal buffer it was found in; the next
    # iterations write into the other one.
    signal, spare = np.empty(n_samples), np.empty(n_samples)
    shrink = GRIFFIN_LIM_MOMENTUM / (1.0 + GRIFFIN_LIM_MOMENTUM)
    best_err = math.inf
    best = None
    for k in range(n_iters + 1):
        np.multiply(mag, angles, out=angles)
        np.fft.irfft(angles, n=cfg.fft_size, axis=1, out=ifft_frames)
        np.multiply(ifft_frames[:, : cfg.win_length], window, out=frames)
        signal.fill(0.0)
        _overlap_add(frames, cfg.hop_length, signal)
        y = _ola_normalize(signal, divisor, silent, cfg.win_length)
        np.multiply(frame_signal(y, cfg.win_length, cfg.hop_length), window, out=frames)
        np.fft.rfft(frames, n=cfg.fft_size, axis=1, out=rebuilt)
        np.abs(rebuilt, out=scratch)
        scratch -= mag
        err = np.linalg.norm(scratch) / mag_norm
        if err < best_err:
            best_err = err
            best = y
            signal, spare = spare, signal
        if k == n_iters:
            break
        np.multiply(shrink, prev_rebuilt, out=prev_rebuilt)
        np.subtract(rebuilt, prev_rebuilt, out=prev_rebuilt)
        rebuilt, prev_rebuilt = prev_rebuilt, rebuilt
        np.abs(rebuilt, out=scratch)
        scratch += 1e-16
        np.divide(rebuilt, scratch, out=angles)
    return Waveform(best, sample_rate)


def spectral_convergence(target: FeatureSeq, w: Waveform, cfg: StftConfig | None = None) -> float:
    """Relative Frobenius gap between a target magnitude and a waveform's."""
    cfg = cfg or StftConfig()
    mag = stft(w, cfg).frames
    if mag.shape != target.frames.shape:
        raise DimensionMismatchError(
            f"spectrogram shapes differ: {mag.shape} vs {target.frames.shape}"
        )
    denom = np.linalg.norm(target.frames)
    gap = np.linalg.norm(mag - target.frames)
    if denom == 0.0:
        return 0.0 if gap == 0.0 else math.inf
    return float(gap / denom)


def resample(w: Waveform, target_rate: int) -> Waveform:
    """Band-limited resampling with a windowed-sinc polyphase filter."""
    if target_rate <= 0:
        raise InvalidRateError(f"target rate must be positive, got {target_rate}")
    if len(w) == 0:
        raise EmptySignalError("cannot resample an empty signal")
    if target_rate == w.sample_rate:
        return w
    g = math.gcd(int(target_rate), int(w.sample_rate))
    out = resample_poly(w.samples, int(target_rate) // g, int(w.sample_rate) // g)
    return Waveform(out, target_rate)
