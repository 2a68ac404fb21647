"""Speech corpus preprocessing and synthesis evaluation toolkit.

Each exported name is loaded from its submodule on first use (PEP 562), so
importing one submodule, such as voxkit.corpus, loads only what it imports.
"""

import importlib

__version__ = "0.1.0"

# Each submodule and the names voxkit exports from it.
_EXPORTS = {
    "corpus": (
        "FilterConfig",
        "FilterResult",
        "Manifest",
        "UtteranceRecord",
        "apply_filter",
        "load_manifest",
        "save_manifest",
        "summarize",
    ),
    "dsp": (
        "FeatureSeq",
        "MelConfig",
        "StftConfig",
        "Waveform",
        "dtw_align",
        "griffin_lim",
        "istft",
        "log_mel",
        "mel_filterbank",
        "mfcc",
        "resample",
        "spectral_convergence",
        "stft",
    ),
    "enhance": (
        "DryWetConfig",
        "SilencePolicy",
        "VadConfig",
        "dry_wet_mix",
        "estimate_snr",
        "normalize_volume",
        "trim_and_compress",
        "vad_label",
    ),
    "errors": (
        "AllSilenceError",
        "AllZeroError",
        "ClippingWarning",
        "EmptyReferenceError",
        "InvalidConfigError",
        "ParseError",
        "TrackLengthWarning",
        "VoxkitError",
    ),
    "metrics": (
        "CerReport", "F0MetricReport", "cer", "f0_metrics", "mcd", "msd", "normalize_text",
    ),
    "pitch": ("PitchTrack", "align_tracks", "extract_pitch"),
    "serialize": (),
    "wavio": ("read_wav", "write_wav"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

# voxkit.errors resolves too, but `from voxkit import *` binds only its names.
__all__ = sorted(_SOURCE.keys() | _EXPORTS.keys() - {"errors"})


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _SOURCE:
        return getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
