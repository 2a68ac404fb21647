"""Independent reference implementations used to pin down the library.

Everything here favors obviousness over speed: exhaustive path walks,
recursive prefix definitions, per-frame loops over plain Python ints.
"""

import math
import unicodedata
import warnings
from bisect import bisect_right
from functools import lru_cache

import numpy as np
import scipy.io.wavfile
from numpy.lib.stride_tricks import sliding_window_view
from scipy.signal import resample_poly
from scipy.spatial.distance import cdist

from voxkit.dsp import LOG_FLOOR, mel_filterbank
from voxkit.pitch import F0_MAX, F0_MIN, VOICING_THRESHOLD


def dtw_min_cost_by_enumeration(dist):
    """Minimum summed cost over every monotone unit-step path, walked
    one path at a time. Feasible only for tiny inputs."""
    n1, n2 = dist.shape
    best = [float("inf")]

    def walk(i, j, acc):
        acc += dist[i, j]
        if acc >= best[0]:
            return
        if i == n1 - 1 and j == n2 - 1:
            best[0] = acc
            return
        if i + 1 < n1 and j + 1 < n2:
            walk(i + 1, j + 1, acc)
        if i + 1 < n1:
            walk(i + 1, j, acc)
        if j + 1 < n2:
            walk(i, j + 1, acc)

    walk(0, 0, 0.0)
    return best[0]


def edit_distance_recursive(ref, hyp):
    """Classic prefix recursion for Levenshtein distance."""

    @lru_cache(maxsize=None)
    def d(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        sub = d(i - 1, j - 1) + (ref[i - 1] != hyp[j - 1])
        ins = d(i, j - 1) + 1
        dele = d(i - 1, j) + 1
        return min(sub, ins, dele)

    return d(len(ref), len(hyp))


def edit_counts_recursive(ref, hyp):
    """(n_sub, n_del, n_ins) of one optimal alignment, resolving ties as
    match, then substitution, then insertion, then deletion."""

    @lru_cache(maxsize=None)
    def d(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        return min(
            d(i - 1, j - 1) + (ref[i - 1] != hyp[j - 1]),
            d(i, j - 1) + 1,
            d(i - 1, j) + 1,
        )

    i, j = len(ref), len(hyp)
    n_sub = n_del = n_ins = 0
    while i > 0 or j > 0:
        here = d(i, j)
        if i > 0 and j > 0 and ref[i - 1] == hyp[j - 1] and here == d(i - 1, j - 1):
            i -= 1
            j -= 1
        elif i > 0 and j > 0 and here == d(i - 1, j - 1) + 1:
            n_sub += 1
            i -= 1
            j -= 1
        elif j > 0 and here == d(i, j - 1) + 1:
            n_ins += 1
            j -= 1
        else:
            n_del += 1
            i -= 1
    return n_sub, n_del, n_ins


def edit_distance_two_rows(ref, hyp):
    """Second independent distance check, rolling-array formulation."""
    prev = list(range(len(hyp) + 1))
    for i in range(1, len(ref) + 1):
        cur = [i] + [0] * len(hyp)
        for j in range(1, len(hyp) + 1):
            cur[j] = min(
                prev[j - 1] + (ref[i - 1] != hyp[j - 1]),
                cur[j - 1] + 1,
                prev[j] + 1,
            )
        prev = cur
    return prev[len(hyp)]


def edit_distance_matrix_loop(ref, hyp):
    """The full Wagner-Fischer grid of prefix distances, one cell at a time.

    metrics.edit_counts holds the same grid as bit vectors of the
    differences between neighbouring cells; edit_counts_backtrace walks
    this one.
    """
    n, m = len(ref), len(hyp)
    dist = np.zeros((n + 1, m + 1), dtype=np.int64)
    dist[:, 0] = np.arange(n + 1)
    dist[0, :] = np.arange(m + 1)
    for i in range(1, n + 1):
        prev = dist[i - 1]
        row = dist[i]
        ref_c = ref[i - 1]
        for j in range(1, m + 1):
            row[j] = min(
                prev[j - 1] + (ref_c != hyp[j - 1]),
                row[j - 1] + 1,
                prev[j] + 1,
            )
    return dist


def normalize_text(text):
    """metrics.normalize_text by its definition: NFC, lowercase, each character whose
    Unicode category starts with P dropped, whitespace runs collapsed to one space."""
    text = unicodedata.normalize("NFC", text).lower()
    text = "".join(c for c in text if not unicodedata.category(c).startswith("P"))
    return " ".join(text.split())


def edit_counts_backtrace(ref, hyp, dist):
    """(n_sub, n_del, n_ins) backtraced over dist, the grid of edit_distance_matrix_loop,
    preferring the diagonal (a match or a substitution), then insertion, then deletion."""
    n_sub = n_del = n_ins = 0
    i, j = len(ref), len(hyp)
    while i or j:
        if i and j and dist[i, j] == dist[i - 1, j - 1] + (ref[i - 1] != hyp[j - 1]):
            n_sub += ref[i - 1] != hyp[j - 1]
            i -= 1
            j -= 1
        elif j and dist[i, j] == dist[i, j - 1] + 1:
            n_ins += 1
            j -= 1
        else:
            n_del += 1
            i -= 1
    return n_sub, n_del, n_ins


def f0_error_counts(ref_f0, ref_voiced, hyp_f0, hyp_voiced):
    """Frame-by-frame tallies behind the pitch metrics, in plain ints.

    Returns (n_frames, n_covoiced, n_gross, n_voicing_disagreements).
    A gross error needs both frames voiced and |hyp - ref| > 0.2 * ref.
    """
    n = len(ref_f0)
    n_covoiced = n_gross = n_disagree = 0
    for k in range(n):
        rv = bool(ref_voiced[k])
        hv = bool(hyp_voiced[k])
        if rv != hv:
            n_disagree += 1
        if rv and hv:
            n_covoiced += 1
            if abs(float(hyp_f0[k]) - float(ref_f0[k])) > 0.2 * float(ref_f0[k]):
                n_gross += 1
    return n, n_covoiced, n_gross, n_disagree


def random_pitch_track_pair(rng, n_frames):
    """Random voiced/unvoiced tracks with controlled gross-error rates."""
    ref_voiced = rng.random(n_frames) < 0.6
    hyp_voiced = np.where(
        rng.random(n_frames) < 0.75, ref_voiced, rng.random(n_frames) < 0.5
    )
    ref_f0 = np.where(ref_voiced, rng.uniform(80.0, 400.0, n_frames), 0.0)
    # around a third of co-voiced frames deviate well past 20 percent
    wild = rng.random(n_frames) < 0.35
    factor = np.where(wild, rng.uniform(1.5, 2.5, n_frames), rng.uniform(0.85, 1.15, n_frames))
    hyp_f0 = np.where(hyp_voiced, np.maximum(ref_f0 * factor, 60.0), 0.0)
    return ref_f0, ref_voiced, hyp_f0, hyp_voiced


def dtw_row_major(a, b):
    """(path, total_cost) from the scalar row-by-row DTW fill.

    The same recurrence and tie order as dsp.dtw_align, one cell at a
    time: ties prefer the diagonal step, then advancing the first sequence.
    """
    d = cdist(np.atleast_2d(a), np.atleast_2d(b))
    n1, n2 = d.shape
    cost = np.empty((n1, n2))
    move = np.zeros((n1, n2), dtype=np.int8)
    cost[0, 0] = d[0, 0]
    for j in range(1, n2):
        cost[0, j] = cost[0, j - 1] + d[0, j]
        move[0, j] = 2
    for i in range(1, n1):
        cost[i, 0] = cost[i - 1, 0] + d[i, 0]
        move[i, 0] = 1
    for i in range(1, n1):
        for j in range(1, n2):
            best = cost[i - 1, j - 1]
            m = 0
            if cost[i - 1, j] < best:
                best = cost[i - 1, j]
                m = 1
            if cost[i, j - 1] < best:
                best = cost[i, j - 1]
                m = 2
            cost[i, j] = best + d[i, j]
            move[i, j] = m
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
    return tuple(reversed(path)), float(cost[n1 - 1, n2 - 1])


def _cmnd_one_frame(frame, lag_max, window):
    shifted = sliding_window_view(frame, window)[: lag_max + 1]
    d = ((shifted[0][None, :] - shifted) ** 2).sum(axis=1)
    out = np.ones(lag_max + 1)
    csum = np.cumsum(d[1:])
    nz = csum > 0.0
    lags = np.arange(1, lag_max + 1, dtype=np.float64)
    out[1:][nz] = d[1:][nz] * lags[nz] / csum[nz]
    return out


def cmnd_per_frame(samples, sr, cfg):
    """(cmnd, lag_min, lag_max): one row of lags 0..lag_max per materialized frame.

    Each frame's lag-k difference is one contiguous sum of squared
    differences, the definition that pitch.extract_pitch computes by FFT.
    """
    lag_max = int(sr / F0_MIN)
    lag_min = max(2, math.ceil(sr / F0_MAX))
    window = cfg.win_length - lag_max
    pad = cfg.win_length // 2
    padded = np.pad(np.asarray(samples, dtype=np.float64), pad, mode="reflect")
    n_frames = 1 + (len(padded) - cfg.win_length) // cfg.hop_length
    cmnd = np.empty((n_frames, lag_max + 1))
    for t in range(n_frames):
        start = t * cfg.hop_length
        cmnd[t] = _cmnd_one_frame(padded[start : start + cfg.win_length].copy(), lag_max, window)
    return cmnd, lag_min, lag_max


def yin_energies_blocks(frames, window):
    """e(k), the sum of frames[:, k : k + window] ** 2 for lags k = 0..size - window.

    Each frame's squares are zero-padded to whole blocks of window samples,
    and every block takes a reversed and a forward cumulative sum; e(k) is
    the suffix of k's block plus the prefix of the next block up to
    k + window - 1, and 0.0 for a k on a block boundary.
    """
    n, size = frames.shape
    lag_max = size - window
    n_blocks = -(-size // window)
    sq = np.zeros((n, n_blocks * window))
    np.square(frames, out=sq[:, :size])
    blocks = sq.reshape(n, n_blocks, window)
    energy = np.cumsum(blocks[:, :, ::-1], axis=2)[:, :, ::-1].reshape(n, -1)[:, : lag_max + 1]
    head = np.cumsum(blocks, axis=2).reshape(n, -1)[:, window - 1 : size]
    head[:, ::window] = 0.0
    energy += head
    return energy


def pitch_decisions_loop(cmnd, sr, lag_min, lag_max):
    """(f0, voiced, denom) from the per-frame scalar decision on CMND rows.

    The first lag under the threshold, walked down while the next lag is
    lower, else the argmin; then a parabolic shift clamped to half a lag.
    denom is the parabola's curvature at the chosen lag, NaN where the
    frame is unvoiced by the threshold or the lag is lag_max.
    """
    n_frames = len(cmnd)
    f0 = np.zeros(n_frames)
    voiced = np.zeros(n_frames, dtype=bool)
    denoms = np.full(n_frames, np.nan)
    for t in range(n_frames):
        row = cmnd[t]
        region = row[lag_min : lag_max + 1]
        below = np.flatnonzero(region < VOICING_THRESHOLD)
        if len(below):
            k = int(below[0]) + lag_min
            while k + 1 <= lag_max and row[k + 1] < row[k]:
                k += 1
        else:
            k = int(np.argmin(region)) + lag_min
        if row[k] >= VOICING_THRESHOLD:
            continue
        shift = 0.0
        if k < lag_max:
            y0, y1, y2 = row[k - 1], row[k], row[k + 1]
            denom = y0 - 2.0 * y1 + y2
            denoms[t] = denom
            if abs(denom) > 1e-12:
                shift = min(0.5, max(-0.5, 0.5 * (y0 - y2) / denom))
        freq = sr / (k + shift)
        if F0_MIN <= freq <= F0_MAX:
            voiced[t] = True
            f0[t] = freq
    return f0, voiced, denoms


def frame_signal_gather(samples, win_length, hop_length):
    """Centered frames gathered through an (n_frames, win_length) index array."""
    padded = np.pad(np.asarray(samples, dtype=np.float64), win_length // 2, mode="reflect")
    n_frames = 1 + (len(padded) - win_length) // hop_length
    idx = np.arange(win_length)[None, :] + hop_length * np.arange(n_frames)[:, None]
    return padded[idx]


def _hann(n):
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def stft_complex_gather(samples, cfg):
    frames = frame_signal_gather(samples, cfg.win_length, cfg.hop_length)
    return np.fft.rfft(frames * _hann(cfg.win_length), n=cfg.fft_size, axis=1)


def log_mel_dense(samples, sample_rate, cfg):
    """log(|stft|**2 @ mel_filterbank.T + LOG_FLOOR): every band weighs every bin of
    the whole spectrogram in one matrix product."""
    power = np.abs(stft_complex_gather(samples, cfg.stft)) ** 2
    return np.log(power @ mel_filterbank(sample_rate, cfg).T + LOG_FLOOR)


def istft_frame_loop(spec, cfg):
    """Inverse STFT adding one windowed frame at a time into the output.

    The same arithmetic as dsp.istft: irfft, window, per-frame
    overlap-add of the frames and of the squared window, then a guarded
    division and the center padding trimmed off.
    """
    frames = np.fft.irfft(spec, n=cfg.fft_size, axis=1)[:, : cfg.win_length]
    window = _hann(cfg.win_length)
    frames = frames * window
    n_frames = frames.shape[0]
    out_len = cfg.hop_length * (n_frames - 1) + cfg.win_length
    out = np.zeros(out_len)
    norm = np.zeros(out_len)
    wsq = window**2
    for t in range(n_frames):
        start = t * cfg.hop_length
        out[start : start + cfg.win_length] += frames[t]
        norm[start : start + cfg.win_length] += wsq
    tiny = np.finfo(np.float64).tiny
    out = np.where(norm > tiny, out / np.maximum(norm, tiny), 0.0)
    pad = cfg.win_length // 2
    return out[pad : out_len - pad]


def griffin_lim_loop(mag, cfg, n_iters, seed, momentum):
    """(samples, best_k) of momentum Griffin-Lim built from whole-array expressions.

    The same iteration as dsp.griffin_lim on a nonzero magnitude, each
    step a fresh array; best_k is the iteration whose signal is returned.
    """
    mag_norm = np.linalg.norm(mag)
    rng = np.random.default_rng(seed)
    angles = np.exp(1j * rng.uniform(-np.pi, np.pi, mag.shape))
    prev_rebuilt = np.zeros_like(angles)
    shrink = momentum / (1.0 + momentum)
    best_err = math.inf
    best = best_k = None
    for k in range(n_iters + 1):
        y = istft_frame_loop(mag * angles, cfg)
        rebuilt = stft_complex_gather(y, cfg)
        err = np.linalg.norm(np.abs(rebuilt) - mag) / mag_norm
        if err < best_err:
            best_err = err
            best, best_k = y, k
        if k == n_iters:
            break
        step = rebuilt - shrink * prev_rebuilt
        prev_rebuilt = rebuilt
        angles = step / (np.abs(step) + 1e-16)
    return best, best_k


def histogram_if_chain(values, edges):
    """(counts, n_below, n_above, n_pos_inf, n_neg_inf, n_absent) of values,
    each classified by its own if-chain, with counts over [edges[i], edges[i+1])."""
    counts = [0] * (len(edges) - 1)
    below = above = pos_inf = neg_inf = absent = 0
    for v in values:
        if v is None:
            absent += 1
        elif math.isinf(v):
            if v > 0:
                pos_inf += 1
            else:
                neg_inf += 1
        elif v < edges[0]:
            below += 1
        elif v >= edges[-1]:
            above += 1
        else:
            counts[bisect_right(edges, v) - 1] += 1
    return tuple(counts), below, above, pos_inf, neg_inf, absent


def read_wav_scipy(path):
    """(rate, float64 samples) of a mono 16-bit PCM or 32-bit float WAV, decoded by
    scipy.io.wavfile and scaled as voxkit scales them: int16 by 1/32768, float32 as is.
    scipy warns about a chunk id it does not know; here it skips it quietly."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.io.wavfile.WavFileWarning)
        rate, data = scipy.io.wavfile.read(path)
    assert data.ndim == 1 and data.dtype in (np.int16, np.float32), data.dtype
    return rate, data.astype(np.float64) / (32768.0 if data.dtype == np.int16 else 1.0)


def resample_poly_scipy(samples, rate, target_rate):
    """samples at rate resampled to target_rate by scipy.signal.resample_poly, with the
    Kaiser-windowed filter it designs itself; it reduces target_rate / rate by their gcd."""
    return resample_poly(samples, target_rate, rate)


def write_wav_scipy(path, rate, samples):
    """scipy.io.wavfile.write: samples' dtype picks the format, its shape the channels."""
    scipy.io.wavfile.write(path, rate, samples)
