import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from voxkit import corpus, dsp, wavio

SR = 22050

WORDS = (
    "the quick brown fox jumps over a lazy dog while rain falls on "
    "green hills and seven birds sing near the old stone bridge"
).split()


def sine(freq, duration_s, sr=SR, amp=0.5, phase=0.0):
    t = np.arange(int(round(duration_s * sr))) / sr
    return amp * np.sin(2 * np.pi * freq * t + phase)


def noise(duration_s, sr=SR, rms_db=-55.0, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(int(round(duration_s * sr)))
    return x * (10 ** (rms_db / 20.0)) / np.sqrt(np.mean(x**2))


def speechlike(n_samples, sr, seed):
    """Harmonic glide with noise, its first third exact digital silence."""
    rng = np.random.default_rng(seed)
    t = np.arange(n_samples) / sr
    f0 = rng.uniform(90.0, 300.0)
    phase = 2 * np.pi * f0 * (t + 0.2 * t**2)
    x = 0.3 * np.sin(phase) + 0.1 * np.sin(2 * phase) + 0.01 * rng.standard_normal(n_samples)
    x[: n_samples // 3] = 0.0
    return x


def peak_bytes(fn, *args):
    """The tracemalloc peak of fn(*args), in bytes."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class _FailingFile:
    """A file that raises error at its fail_at-th write, or at close if fail_at is "close"."""

    def __init__(self, f, error, fail_at):
        self.f, self.error, self.fail_at, self.writes = f, error, fail_at, 0

    def write(self, data):
        self.writes += 1
        if self.writes == self.fail_at:
            raise self.error
        return self.f.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.f.close()
        if self.fail_at == "close":
            raise self.error


def failing_open(name, error, fail_at=2):
    """A stand-in for open: a file called name opened for writing raises error at its
    fail_at-th write, or at close if fail_at is "close"; any other file opens as usual."""
    def fake_open(path, mode="r", *args, **kwargs):
        f = open(path, mode, *args, **kwargs)
        return _FailingFile(f, error, fail_at) if "w" in mode and Path(path).name == name else f

    return fake_open


def make_text_pair(rng, n_words, max_cer=0.3):
    """Reference text plus a hypothesis with seeded character edits."""
    ref_words = [WORDS[rng.integers(len(WORDS))] for _ in range(n_words)]
    ref = " ".join(ref_words)
    hyp = list(ref)
    n_edits = rng.integers(0, max(1, int(max_cer * len(ref))) + 1)
    alphabet = "abcdefghijklmnopqrstuvwxyz"
    for _ in range(n_edits):
        op = rng.integers(3)
        pos = rng.integers(len(hyp)) if hyp else 0
        if op == 0 and hyp:
            hyp[pos] = alphabet[rng.integers(26)]
        elif op == 1 and hyp:
            del hyp[pos]
        else:
            hyp.insert(pos, alphabet[rng.integers(26)])
    return ref, "".join(hyp)


def build_utterance(seed, sr=SR):
    """Silence-padded tone burst over a noise floor, optionally with an
    internal gap, mixed with noise at a known SNR.

    Returns (noisy, clean, target_snr_db). The clean part doubles as the
    externally enhanced signal, so the residual is exactly the added noise.
    """
    rng = np.random.default_rng(seed)
    f0 = float(rng.uniform(120.0, 400.0))
    amp = float(rng.uniform(0.15, 0.4))
    pad_s = float(rng.uniform(0.25, 0.5))
    speech_s = float(rng.uniform(0.5, 1.0))
    pieces = [np.zeros(int(pad_s * sr)), sine(f0, speech_s, sr, amp)]
    if rng.random() < 0.5:
        gap_s = float(rng.uniform(0.15, 0.8))
        pieces.append(np.zeros(int(gap_s * sr)))
        pieces.append(sine(f0 * 1.25, speech_s * 0.6, sr, amp))
    pieces.append(np.zeros(int(pad_s * sr)))
    clean = np.concatenate(pieces)

    snr_db = float(rng.uniform(5.0, 35.0))
    speech_power = np.mean(clean**2)
    noise_power = speech_power / (10 ** (snr_db / 10.0))
    floor = rng.standard_normal(len(clean))
    floor *= np.sqrt(noise_power) / np.sqrt(np.mean(floor**2))
    noisy = np.clip(clean + floor, -1.0, 1.0)
    return noisy, clean, snr_db


def build_corpus(root, n_utterances, seed=0, sr=SR, with_enhanced=True):
    """Write a synthetic noisy corpus: raw wavs, enhanced wavs, manifest."""
    raw_dir = root / "raw"
    raw_dir.mkdir(parents=True, exist_ok=True)
    enh_dir = root / "enh"
    if with_enhanced:
        enh_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed + 1000)
    records = []
    for k in range(n_utterances):
        noisy, clean, _ = build_utterance(seed * 10007 + k, sr)
        utterance_id = f"utt{k:03d}"
        wavio.write_wav(raw_dir / f"{utterance_id}.wav", dsp.Waveform(noisy, sr))
        if with_enhanced:
            wavio.write_wav(
                enh_dir / f"{utterance_id}.enhanced.wav", dsp.Waveform(clean, sr)
            )
        ref, hyp = make_text_pair(rng, int(rng.integers(3, 9)))
        records.append(
            corpus.UtteranceRecord(
                utterance_id=utterance_id,
                audio_path=f"raw/{utterance_id}.wav",
                duration_s=len(noisy) / sr,
                text=ref,
                hyp_text=hyp,
                speaker=f"spk{k % 5}",
            )
        )
    manifest = corpus.Manifest(tuple(records), "Raw")
    corpus.save_manifest(manifest, root / "manifest.tsv")
    return root / "manifest.tsv"


@pytest.fixture(scope="session")
def tone_waveform():
    return dsp.Waveform(sine(440.0, 1.0), SR)


@pytest.fixture(scope="session")
def synthetic_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    return build_corpus(root, 100, seed=0)
