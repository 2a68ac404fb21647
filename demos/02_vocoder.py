"""Phase reconstruction demo: rebuild a waveform from magnitudes alone.

Run:  python3 demos/02_vocoder.py
"""

import tempfile
from pathlib import Path

import numpy as np

from voxkit import StftConfig, Waveform, griffin_lim, stft, write_wav

SR = 22050


def chirp(duration_s=1.0):
    """A rising tone makes reconstruction artifacts easy to hear."""
    t = np.arange(int(duration_s * SR)) / SR
    freq = 220.0 + 440.0 * t
    return Waveform(0.4 * np.sin(2 * np.pi * np.cumsum(freq) / SR), SR)


def main():
    w = chirp()
    cfg = StftConfig()
    target = stft(w, cfg)
    print(f"target: {target.frames.shape[0]} frames of "
          f"{target.frames.shape[1]} magnitude bins (phase discarded)")

    print(f"{'iterations':>10}  {'convergence error':>18}")
    rebuilt = None
    for n_iters in (1, 2, 4, 8, 16, 32, 64):
        # the gap is griffin_lim's own measure of the iterate it returns:
        # spectral_convergence(target, rebuilt, cfg), with no second analysis
        rebuilt, gap = griffin_lim(target, cfg, n_iters=n_iters, seed=0)
        print(f"{n_iters:>10}  {gap:>18.4f}")

    with tempfile.TemporaryDirectory(prefix="voxkit-vocoder-") as tmp:
        out_dir = Path(tmp)
        write_wav(out_dir / "original.wav", w)
        write_wav(out_dir / "rebuilt.wav", rebuilt)
        print(f"wrote original.wav and rebuilt.wav to {out_dir} (removed when the demo ends)")


if __name__ == "__main__":
    main()
