"""End-to-end curation: synthesize a noisy corpus, then clean and filter
it with the command-line pipeline.

Run:  python3 demos/05_pipeline.py
"""

import tempfile
from pathlib import Path

import numpy as np

from voxkit import Manifest, UtteranceRecord, Waveform, save_manifest, write_wav
from voxkit.cli import main as voxkit_main

SR = 22050

PHRASES = [
    ("a cold wind crossed the harbor", "a cold wind crossd the harbor"),
    ("seven ships sailed before dawn", "sevn ships sailed before dawn"),
    ("the lantern flickered twice", "the lantern flickered twice"),
    ("rain kept falling all night", "rain kept fallin all nigt"),
    ("she counted the stone steps", "she counted the stone stups"),
    ("the old bridge held firm", "the old bride hel frm"),
]


def build_corpus(root: Path, n_utterances: int, seed: int = 0) -> Path:
    """Tone bursts padded with silence, buried in noise at varied SNR."""
    raw = root / "raw"
    enh = root / "enh"
    raw.mkdir(parents=True)
    enh.mkdir(parents=True)
    rng = np.random.default_rng(seed)
    records = []
    for k in range(n_utterances):
        pad = np.zeros(int(rng.uniform(0.3, 0.6) * SR))
        t = np.arange(int(rng.uniform(0.6, 1.2) * SR)) / SR
        burst = 0.3 * np.sin(2 * np.pi * rng.uniform(130, 360) * t)
        clean = np.concatenate([pad, burst, pad])

        snr_db = rng.uniform(5.0, 35.0)
        floor = rng.standard_normal(len(clean))
        floor *= np.sqrt(np.mean(clean**2) / 10 ** (snr_db / 10)) / np.sqrt(np.mean(floor**2))
        noisy = np.clip(clean + floor, -1, 1)

        name = f"utt{k:02d}"
        write_wav(raw / f"{name}.wav", Waveform(noisy, SR))
        write_wav(enh / f"{name}.enhanced.wav", Waveform(clean, SR))
        text, hyp = PHRASES[k % len(PHRASES)]
        records.append(UtteranceRecord(
            utterance_id=name,
            audio_path=f"raw/{name}.wav",
            duration_s=len(noisy) / SR,
            text=text,
            hyp_text=hyp,
            speaker=f"spk{k % 3}",
        ))
    manifest_path = root / "manifest.tsv"
    save_manifest(Manifest(tuple(records)), manifest_path)
    return manifest_path


def main():
    with tempfile.TemporaryDirectory(prefix="voxkit-pipeline-") as tmp:
        root = Path(tmp)
        manifest = build_corpus(root, 12)
        print(f"synthesized 12 noisy utterances under {root}\n")

        print("== preprocess: denoise, trim, filter, normalize ==")
        voxkit_main([
            "preprocess",
            "--manifest", str(manifest),
            "--out-dir", str(root / "clean"),
            "--stages", "DN,VAD-2,FLT,VN",
            "--enhanced-dir", str(root / "enh"),
        ])

        print("\n== report on the curated corpus ==")
        voxkit_main(["report", "--manifest", str(root / "clean" / "manifest.tsv")])

        print("\nartifacts, removed when the demo ends:")
        for name in ("manifest.tsv", "dropped.tsv", "errors.tsv"):
            print(f"  {root / 'clean' / name}")


if __name__ == "__main__":
    main()
