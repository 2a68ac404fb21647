"""Deterministic synthetic corpora and the CLI command of each workload.

Everything here depends on numpy and the standard library only, never on
voxkit, so the inputs stay the same whatever the program under test does.
A workload's inputs are a pure function of its seed.

Sizes are stratified rather than drawn freely: with n utterances, one
duration (or warp, SNR, CER, text length) is drawn inside each of n equal
slices of the range and the slices are shuffled. The total work of a run
then barely depends on the seed, which keeps throughput comparable across
seeds while the content still changes.
"""

import math
import wave
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SR = 22050
CURATE_RATES = (16000, 22050, 24000, 44100)
CURATE_MIN_SNR = 15.0
CURATE_MAX_CER = 0.10
VOCODE_ITERS = 32
HOP = 256  # the CLI's default --hop; vocode output length is a multiple of it

WORDS = (
    "the a of and to in is was for on that with as by at from his her they "
    "quick brown fox jumps over lazy dog while rain falls green hills seven "
    "birds sing near old stone bridge morning light across quiet river valley "
    "people gather market square evening bells ring distant tower children "
    "laugh garden summer wind carries scent fresh bread open window winter "
    "snow covers narrow streets travelers warm hands small fire stories told"
).split()
LETTERS = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class Size:
    """How many utterances a workload has and over which ranges they vary."""

    n: int
    duration_s: tuple
    text_chars: tuple = (60, 250)
    n_identity: int = 0  # eval: pairs whose hypothesis is the reference itself
    n_truncated: int = 0  # curate: WAVs cut to their 44-byte header
    n_all_zero: int = 0  # curate: digital silence


SIZES = {
    "eval": Size(n=6, duration_s=(3.0, 8.0), n_identity=1),
    "curate": Size(n=100, duration_s=(1.0, 6.0), n_truncated=3, n_all_zero=2),
    "vocode": Size(n=6, duration_s=(2.0, 5.0)),
}
TINY_SIZES = {
    "eval": Size(n=2, duration_s=(1.0, 1.5), text_chars=(30, 60), n_identity=1),
    "curate": Size(n=8, duration_s=(0.6, 1.0), text_chars=(30, 60), n_truncated=1, n_all_zero=1),
    "vocode": Size(n=2, duration_s=(0.5, 1.0)),
}


@dataclass
class Corpus:
    """A generated workload: where its inputs are and what the checks expect."""

    workload: str
    seed: int
    root: Path  # directory the CLI runs in; every path below is relative to it
    argv: list  # CLI arguments without --out-dir/--workers
    workers: int
    ids: list
    texts: dict = field(default_factory=dict)  # id -> (reference, hypothesis)
    edits: dict = field(default_factory=dict)  # id -> (normalized ref length, edit distance)
    identity: set = field(default_factory=set)
    malformed: set = field(default_factory=set)
    samples: dict = field(default_factory=dict)  # id -> input length at 22050 Hz
    properties: dict = field(default_factory=dict)


def stratified(rng, n, lo, hi):
    """One uniform draw inside each of n equal slices of [lo, hi), shuffled."""
    values = lo + (hi - lo) * (np.arange(n) + rng.random(n)) / n
    return [float(v) for v in rng.permutation(values)]


# ------------------------------------------------------------------ signals


def _score(rng, duration_s):
    """Segment list (kind, seconds, params) summing exactly to duration_s.

    Syllables are harmonic with an f0 glide, some are preceded by an
    unvoiced burst, words are separated by short pauses and phrases by
    pauses longer than the 300 ms the VAD stage caps them at.
    """
    base_f0 = float(rng.uniform(95.0, 210.0))
    lead = float(rng.uniform(0.15, 0.35))
    trail = float(rng.uniform(0.15, 0.35))
    middle = []
    total = 0.0
    target = max(duration_s - lead - trail, 0.2)
    while total < target:
        if rng.random() < 0.3:
            middle.append(("unvoiced", float(rng.uniform(0.04, 0.12)), float(rng.uniform(0.05, 0.15))))
        f_start = base_f0 * float(rng.uniform(0.85, 1.2))
        f_end = base_f0 * float(rng.uniform(0.85, 1.2))
        middle.append(("voiced", float(rng.uniform(0.12, 0.35)), (f_start, f_end, float(rng.uniform(0.2, 0.4)))))
        r = rng.random()
        if r < 0.12:
            middle.append(("silence", float(rng.uniform(0.35, 0.6)), None))
        elif r < 0.6:
            middle.append(("silence", float(rng.uniform(0.04, 0.15)), None))
        total = sum(seg[1] for seg in middle)
    scale = target / total
    middle = [(kind, secs * scale, params) for kind, secs, params in middle]
    return [("silence", lead, None)] + middle + [("silence", trail, None)]


def _envelope(n, sr, ramp_s=0.02):
    env = np.ones(n)
    k = min(n // 2, int(ramp_s * sr))
    if k:
        ramp = np.sin(0.5 * np.pi * np.arange(k) / k) ** 2
        env[:k] = ramp
        env[n - k :] = ramp[::-1]
    return env


def render(score, sr, rng, time_scale=1.0, f0_scale=1.0):
    """Synthesize a score; time_scale stretches it, f0_scale shifts its pitch."""
    pieces = []
    for kind, secs, params in score:
        n = max(1, int(round(secs * time_scale * sr)))
        if kind == "silence":
            pieces.append(np.zeros(n))
        elif kind == "unvoiced":
            burst = np.diff(rng.standard_normal(n + 1))
            pieces.append(params * burst / np.sqrt(np.mean(burst**2)) * _envelope(n, sr))
        else:
            f_start, f_end, amp = params
            f0 = f0_scale * np.linspace(f_start, f_end, n)
            phase = 2.0 * np.pi * np.cumsum(f0) / sr + rng.uniform(0, 2 * np.pi)
            n_harm = max(1, int(4500.0 / max(f_start, f_end) / f0_scale))
            tone = sum(np.sin(k * phase) / k for k in range(1, n_harm + 1))
            pieces.append(amp * tone / np.max(np.abs(tone)) * _envelope(n, sr))
    return np.concatenate(pieces)


def write_wav(path, samples, sr):
    """16-bit mono PCM through the standard library."""
    pcm = np.round(np.clip(samples, -1.0, 1.0) * 32767.0).astype("<i2")
    with wave.open(str(path), "wb") as out:
        out.setnchannels(1)
        out.setsampwidth(2)
        out.setframerate(sr)
        out.writeframes(pcm.tobytes())


def write_truncated_wav(path, n_samples, sr):
    """A RIFF header announcing n_samples of 16-bit audio, with no data."""
    data_bytes = 2 * n_samples
    header = b"RIFF" + (36 + data_bytes).to_bytes(4, "little") + b"WAVE"
    header += b"fmt " + (16).to_bytes(4, "little")
    header += (1).to_bytes(2, "little") + (1).to_bytes(2, "little")
    header += sr.to_bytes(4, "little") + (2 * sr).to_bytes(4, "little")
    header += (2).to_bytes(2, "little") + (16).to_bytes(2, "little")
    header += b"data" + data_bytes.to_bytes(4, "little")
    Path(path).write_bytes(header)


# -------------------------------------------------------------------- texts


def make_sentence(rng, n_chars):
    words = []
    while len(" ".join(words)) < n_chars:
        words.append(WORDS[rng.integers(len(WORDS))])
    return " ".join(words)


def normalize(text):
    """The CLI's text normalization, for the lowercase ASCII texts made here."""
    return " ".join(text.lower().split())


def levenshtein(a, b):
    """Plain two-row edit distance: the oracle the CER outputs are checked against."""
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def add_text(corpus, utt, text, hyp_text):
    corpus.texts[utt] = (text, hyp_text)
    ref, hyp = normalize(text), normalize(hyp_text)
    corpus.edits[utt] = (len(ref), levenshtein(ref, hyp))


def corrupt(rng, text, cer_target):
    """Apply round(cer_target * len) random letter edits to text."""
    chars = list(text)
    for _ in range(int(round(cer_target * len(text)))):
        op = rng.integers(3)
        pos = int(rng.integers(len(chars))) if chars else 0
        if op == 0 and chars:
            chars[pos] = LETTERS[rng.integers(26)]
        elif op == 1 and chars:
            del chars[pos]
        else:
            chars.insert(pos, LETTERS[rng.integers(26)])
    return "".join(chars)


def write_manifest(path, rows):
    """rows: (id, audio, duration_s, text, hyp_text) with empty optional cells."""
    lines = ["# source: Raw", "id\taudio\tduration_s\ttext\thyp_text\tsnr_db\tcer\tspeaker"]
    for utt, audio, duration, text, hyp in rows:
        lines.append(f"{utt}\t{audio}\t{duration!r}\t{text}\t{hyp}\t\t\tspk{int(utt[1:]) % 4}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------- workloads


def _quantiles(values):
    q = np.quantile(np.asarray(values, dtype=float), [0.0, 0.25, 0.5, 0.75, 1.0])
    return [round(float(v), 4) for v in q]


def build_eval(root, seed, size):
    rng = np.random.default_rng([seed, 1])
    d = root / "corpus"
    (d / "ref").mkdir(parents=True)
    (d / "hyp").mkdir()
    durations = stratified(rng, size.n, *size.duration_s)
    warps = stratified(rng, size.n, 0.85, 1.15)
    # The longest pair sets the largest DTW grid, hence the peak memory; giving it
    # the warp closest to 1 keeps that peak nearly independent of the seed.
    longest, mid = int(np.argmax(durations)), int(np.argmin(np.abs(np.subtract(warps, 1.0))))
    warps[longest], warps[mid] = warps[mid], warps[longest]
    shifts = stratified(rng, size.n, 0.9, 1.1)
    lengths = stratified(rng, size.n, *size.text_chars)
    cers = stratified(rng, size.n, 0.0, 0.3)
    identity = {f"u{k:03d}" for k in rng.choice(size.n, size.n_identity, replace=False)}
    c = Corpus("eval", seed, root, [], 1, [], identity=identity)
    ref_rows, hyp_rows, audio_s, frames = [], [], 0.0, []
    for k in range(size.n):
        utt = f"u{k:03d}"
        score = _score(rng, durations[k])
        ref = render(score, SR, rng)
        hyp = ref if utt in identity else render(score, SR, rng, warps[k], shifts[k])
        write_wav(d / "ref" / f"{utt}.wav", ref, SR)
        write_wav(d / "hyp" / f"{utt}.wav", hyp, SR)
        text = make_sentence(rng, int(lengths[k]))
        hyp_text = text if utt in identity else corrupt(rng, text, cers[k])
        ref_rows.append((utt, f"ref/{utt}.wav", len(ref) / SR, text, ""))
        hyp_rows.append((utt, f"hyp/{utt}.wav", len(hyp) / SR, "", hyp_text))
        c.ids.append(utt)
        add_text(c, utt, text, hyp_text)
        audio_s += (len(ref) + len(hyp)) / SR
        frames.append((1 + len(ref) // HOP, 1 + len(hyp) // HOP))
    write_manifest(d / "ref.tsv", ref_rows)
    write_manifest(d / "hyp.tsv", hyp_rows)
    c.argv = ["metrics", "--ref-manifest", "corpus/ref.tsv", "--hyp-manifest", "corpus/hyp.tsv"]
    c.properties = {
        "audio_s": audio_s,
        "utterances": size.n,
        "identity_pairs": size.n_identity,
        "duration_quantiles_s": _quantiles([r[2] for r in ref_rows]),  # references
        # mcd and msd each align one n1 x n2 frame grid per pair
        "dtw_cells": 2 * sum(a * b for a, b in frames),
        "transcript_chars": sum(len(t) + len(h) for t, h in c.texts.values()),
        "source_rates": {str(SR): 2 * size.n},
    }
    return c


def build_curate(root, seed, size):
    rng = np.random.default_rng([seed, 2])
    d = root / "corpus"
    (d / "raw").mkdir(parents=True)
    (d / "enh").mkdir()
    durations = stratified(rng, size.n, *size.duration_s)
    snrs = stratified(rng, size.n, 5.0, 30.0)
    lengths = stratified(rng, size.n, *size.text_chars)
    cers = stratified(rng, size.n, 0.0, 0.25)
    rates = [int(r) for r in rng.permutation(np.resize(CURATE_RATES, size.n))]
    bad = rng.choice(size.n, size.n_truncated + size.n_all_zero, replace=False)
    truncated = {f"u{k:03d}" for k in bad[: size.n_truncated]}
    all_zero = {f"u{k:03d}" for k in bad[size.n_truncated :]}
    c = Corpus("curate", seed, root, [], 2, [], malformed=truncated | all_zero)
    rows, audio_s = [], 0.0
    for k in range(size.n):
        utt = f"u{k:03d}"
        sr = rates[k]
        clean = render(_score(rng, durations[k]), sr, rng)
        if utt in all_zero:
            clean = np.zeros_like(clean)
            noisy = clean
        else:
            noise = rng.standard_normal(len(clean))
            noise *= math.sqrt(np.mean(clean**2) / 10 ** (snrs[k] / 10.0) / np.mean(noise**2))
            noisy = clean + noise
        if utt in truncated:
            write_truncated_wav(d / "raw" / f"{utt}.wav", len(noisy), sr)
        else:
            write_wav(d / "raw" / f"{utt}.wav", noisy, sr)
        write_wav(d / "enh" / f"{utt}.enhanced.wav", clean, sr)
        text = make_sentence(rng, int(lengths[k]))
        hyp_text = corrupt(rng, text, cers[k])
        rows.append((utt, f"raw/{utt}.wav", len(noisy) / sr, text, hyp_text))
        c.ids.append(utt)
        add_text(c, utt, text, hyp_text)
        audio_s += len(noisy) / sr
    write_manifest(d / "manifest.tsv", rows)
    c.argv = [
        "preprocess", "--manifest", "corpus/manifest.tsv", "--stages", "DN,VAD-2,FLT,VN",
        "--fill", "comfort_noise", "--enhanced-dir", "corpus/enh",
        "--min-snr", repr(CURATE_MIN_SNR), "--max-cer", repr(CURATE_MAX_CER),
    ]
    rate_mix = {str(r): rates.count(r) for r in CURATE_RATES}
    c.properties = {
        "audio_s": audio_s,
        "utterances": size.n,
        "malformed": {"truncated": sorted(truncated), "all_zero": sorted(all_zero)},
        "duration_quantiles_s": _quantiles([r[2] for r in rows]),
        "dtw_cells": 0,
        "transcript_chars": sum(len(t) + len(h) for t, h in c.texts.values()),
        "edit_cells": sum(len(t) * len(h) for t, h in c.texts.values()),
        "source_rates": rate_mix,
        "target_snr_db_range": [5.0, 30.0],
        "target_cer_range": [0.0, 0.25],
    }
    return c


def build_vocode(root, seed, size):
    rng = np.random.default_rng([seed, 3])
    d = root / "corpus"
    (d / "wav").mkdir(parents=True)
    durations = stratified(rng, size.n, *size.duration_s)
    c = Corpus("vocode", seed, root, [], 1, [])
    rows, audio_s = [], 0.0
    for k in range(size.n):
        utt = f"u{k:03d}"
        samples = render(_score(rng, durations[k]), SR, rng)
        write_wav(d / "wav" / f"{utt}.wav", samples, SR)
        rows.append((utt, f"wav/{utt}.wav", len(samples) / SR, "", ""))
        c.ids.append(utt)
        c.samples[utt] = len(samples)
        audio_s += len(samples) / SR
    write_manifest(d / "manifest.tsv", rows)
    c.argv = ["vocode", "--manifest", "corpus/manifest.tsv", "--iters", str(VOCODE_ITERS)]
    c.properties = {
        "audio_s": audio_s,
        "utterances": size.n,
        "duration_quantiles_s": _quantiles([r[2] for r in rows]),
        "dtw_cells": 0,
        "transcript_chars": 0,
        "stft_frames": sum(1 + n // HOP for n in c.samples.values()),
        "griffin_lim_iters": VOCODE_ITERS,
        "source_rates": {str(SR): size.n},
    }
    return c


BUILDERS = {"eval": build_eval, "curate": build_curate, "vocode": build_vocode}


def build(workload, seed, root, tiny=False):
    """Generate a workload's inputs under root/corpus and describe them."""
    size = (TINY_SIZES if tiny else SIZES)[workload]
    return BUILDERS[workload](Path(root), seed, size)
