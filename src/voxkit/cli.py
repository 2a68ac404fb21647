"""Command-line entry points for corpus preprocessing and evaluation.

Per-utterance work runs in a pool of stateless workers; results are merged
in manifest order, so any worker count produces byte-identical outputs.
Per-utterance failures are tabulated in errors.tsv and the run continues.
Only main maps a run's outcome to its exit code: 0, 1 for a runtime error, 2 for a usage error.
"""

import argparse
import gc
import os
import sys
import tokenize
import warnings
import zlib
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, suppress
from dataclasses import asdict, replace
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import corpus, dsp, enhance, metrics, pitch, wavio
from .errors import (
    ClippingWarning, InvalidConfigError, TrackLengthWarning, TruncatedWavWarning, VoxkitError,
)
from .serialize import json_value, write_json, write_tsv

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

ALL_STAGES = ("DN", "VAD-0", "VAD-1", "VAD-2", "VAD-3", "VN", "FLT")
ENHANCED_SUFFIX = ".enhanced.wav"
NAME_MAX = 255  # bytes in one file name, on the file systems voxkit writes to

METRIC_CHOICES = tuple(metrics.METRIC_COLUMNS)
# Warnings about one utterance; the runner prints them with its id.
UTTERANCE_WARNINGS = (ClippingWarning, TrackLengthWarning, TruncatedWavWarning)


def derive_seed(base_seed: int, utterance_id: str) -> int:
    """Per-utterance seed, independent of worker count and schedule."""
    return zlib.crc32(f"{base_seed}:{utterance_id}".encode("utf-8"))


def _run_utterances(func, items: dict, args, cfg, stage: str):
    """Map func(id, item, args, cfg, stage) over items.

    The map runs in up to --workers processes, never more than one per utterance. func returns
    its value. stage is a _Stage whose label starts at the given one; a failure that func
    raises gives the value None and one error row for stage.label, and func may contain a
    failure of its own with stage.contain. Once all items are done, the UTTERANCE_WARNINGS
    each raised go to stderr as `warning: <id>: <Category>: <message>` lines. Returns
    ({id: value}, rows of (id, stage, message)); all three are in item order.

    The map runs with the heap frozen (gc.freeze), unless the caller froze it already. The
    objects the import left then take no part in a collection, here or in a forked worker:
    no full collection walks them, and no worker copies their pages by writing to their GC
    headers. Objects made during the map are collected as before.
    """
    attempt = partial(_attempt, func, stage, args, cfg)
    workers = min(args.workers, len(items))
    freeze = not gc.get_freeze_count()
    if freeze:
        gc.freeze()
    try:
        if workers <= 1:
            results = [attempt(item) for item in items.items()]
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(attempt, items.items()))
    finally:
        if freeze:
            gc.unfreeze()
    values, error_rows = {}, []
    for utterance_id, (value, errors, caught) in zip(items, results):
        values[utterance_id] = value
        error_rows += [(utterance_id, s, message) for s, message in errors]
        for line in caught:
            print(_sanitize(f"warning: {utterance_id}: {line}"), file=sys.stderr)
    return values, error_rows


class _Stage:
    """The label of the stage one utterance is in, and the (stage, message) row of each failure."""

    def __init__(self, label: str):
        self.label = label
        self.errors = []

    @contextmanager
    def contain(self, label=None):
        """Turn a failure raised in the block into one error row for label, or for self.label
        as it is then; the work goes on after the block."""
        try:
            yield
        # A header that claims a huge size (a .npy shape) asks for more memory than
        # the machine has; only that input fails.
        except (VoxkitError, OSError, MemoryError) as exc:
            self.errors.append((label or self.label, str(exc)))


def _attempt(func, label, args, cfg, named_item):
    """(value, errors, caught): func's value or None, its error rows, its UTTERANCE_WARNINGS.

    Other warnings are shown once func returns, and the warning filters apply to all of them.
    """
    utterance_id, item = named_item
    stage, value = _Stage(label), None
    with warnings.catch_warnings(record=True) as log, stage.contain():
        value = func(utterance_id, item, args, cfg, stage)
    caught = []
    for w in log:
        if issubclass(w.category, UTTERANCE_WARNINGS):
            caught.append(f"{w.category.__name__}: {w.message}")
        else:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno, w.file, w.line)
    return value, tuple(stage.errors), tuple(caught)


def _out_wav(out_dir, utterance_id: str) -> Path:
    """<out_dir>/<id>.wav, for an id that is one plain path component of UTF-8 text.

    Any other id would name a file outside out_dir or break a TSV cell, so it is an error.
    A lone surrogate is how Python decodes a file-name byte that is not UTF-8. An id too
    long for a file name is an error here too, so the write and the discard agree on it.
    """
    if utterance_id in (".", "..") or any(
        c in "/\\\0\t\n\r" or "\ud800" <= c <= "\udfff" for c in utterance_id
    ):
        raise InvalidConfigError(f"utterance id {utterance_id!r} is not a plain file name")
    name = f"{utterance_id}.wav"
    size = len(name.encode("utf-8"))
    if size > NAME_MAX:
        raise InvalidConfigError(
            f"utterance id is too long for a file name: {size} bytes with .wav, over {NAME_MAX}"
        )
    return Path(out_dir) / name


def _discard_wav(out_dir, utterance_id: str) -> None:
    """Remove <out_dir>/<id>.wav if present; an id _out_wav rejects has none, and a directory
    there stays, for the write to fail on as that utterance's error row."""
    with suppress(InvalidConfigError, FileNotFoundError, IsADirectoryError):
        _out_wav(out_dir, utterance_id).unlink()


def _file_key(path):
    """(st_dev, st_ino) of the file path names, directly or through a link, or if there is no
    such file yet, path resolved; None for a path with a NUL byte, which names no file."""
    try:
        st = os.stat(path)
    except OSError:
        return os.path.realpath(path)
    except ValueError:
        return None
    return st.st_dev, st.st_ino


class UsageError(Exception):
    """A run refused before it writes a file; main prints it as a usage error. It is no
    VoxkitError, so neither _Stage.contain nor main's runtime handler catches it."""


def _sanitize(message: str) -> str:
    """message as one TSV cell or line: tabs and line breaks become spaces, and a
    file-name byte that is not UTF-8, decoded as a lone surrogate, is written \\xNN."""
    message = message.encode("utf-8", "surrogateescape").decode("utf-8", "backslashreplace")
    return message.replace("\t", " ").replace("\n", " ").replace("\r", " ")


def _finish(paths: dict, error_rows, wrote: str) -> None:
    """End a per-utterance command: its errors.tsv from paths, then the `wrote ...` line."""
    cells = [(_sanitize(name), stage, _sanitize(error)) for name, stage, error in error_rows]
    write_tsv(paths["errors.tsv"], ("id", "stage", "error"), cells)
    print(_sanitize(f"wrote {wrote} ({len(error_rows)} errors)"))


def _audio_files(manifest, manifest_path) -> list:
    return [corpus.resolve_audio_path(r, manifest_path) for r in manifest]


def _input_audio(record, manifest_path, out_dir, **changes):
    """record with changes, its audio cell the path from the real out_dir to the input audio's
    name in its real directory; a path with a NUL byte names no file, and is taken as written."""
    audio = corpus.resolve_audio_path(record, manifest_path)
    with suppress(ValueError):  # realpath's error for a NUL byte
        audio, out_dir = Path(os.path.realpath(audio.parent), audio.name), os.path.realpath(out_dir)
    return replace(record, audio_path=os.path.relpath(audio, out_dir), **changes)


def _print_stage_table(rows) -> None:
    width = max(len(label) for label, _, _ in rows)
    width = max(width, len("stage"))
    print(f"{'stage':<{width}}  {'hours':>10}  {'utterances':>10}")
    for label, hours, count in rows:
        print(f"{label:<{width}}  {hours:>10.2f}  {count:>10d}")


def _load(path, sample_rate: int) -> dsp.Waveform:
    return dsp.resample(wavio.read_wav(path), sample_rate)


def _enhanced_path(audio: Path, enhanced_dir) -> Path:
    """The <stem>.enhanced.wav of audio under enhanced_dir."""
    return Path(enhanced_dir) / (audio.stem + ENHANCED_SUFFIX)


def _load_enhanced(audio: Path, args) -> dsp.Waveform:
    return _load(_enhanced_path(audio, args.enhanced_dir), args.sample_rate)


def _comma_list(flag: str, text: str, choices: tuple) -> tuple:
    """The items of a non-empty comma list, each one from choices."""
    items = tuple(s.strip() for s in text.split(",") if s.strip())
    if not items or not all(s in choices for s in items):
        raise InvalidConfigError(f"{flag} must be a comma list from {choices}, got {text!r}")
    return items


def _under(directory, *names) -> dict:
    return {name: Path(directory) / name for name in names}


# The files each command writes besides <id>.wav, by name or by the flag that names them, from
# its args and configured stages. The writers take their paths from here; _configure checks them.
OUTPUTS = {
    "preprocess": lambda args, stages: _under(
        args.out_dir, "manifest.tsv", "errors.tsv", *(("dropped.tsv",) if "FLT" in stages else ())
    ),
    "vad": lambda args, _: _under(args.out_dir, "manifest.tsv", "errors.tsv"),
    "metrics": lambda args, _: _under(args.out_dir, *metrics.REPORT_FILES, "errors.tsv"),
    "snr": lambda args, _: _under(args.out_dir, "manifest.tsv", "errors.tsv"),
    "vocode": lambda args, _: _under(args.out_dir, "roundtrip.tsv", "errors.tsv"),
    "filter": lambda args, _: _under(args.out_dir, "kept.tsv", "dropped.tsv"),
    "report": lambda args, _: {} if args.json is None else {"--json": Path(args.json)},
}


def _reads(manifests, audio, enhanced_dir=None) -> dict:
    """{kind: paths}: the manifests given, audio, and each audio file's twin in enhanced_dir."""
    enhanced = [_enhanced_path(a, enhanced_dir) for a in audio] if enhanced_dir else []
    return {"manifest": [m for m in manifests if m], "audio file": audio, "enhanced file": enhanced}


# The files each command reads, by kind, from its args, configured stages and `audio`, the audio
# or .npy file of each utterance, which is empty until the manifests are read or --spec-dir listed.
INPUTS = {
    "preprocess": lambda args, stages, audio: _reads(
        [args.manifest], audio, args.enhanced_dir if "DN" in stages else None
    ),
    "vad": lambda args, _, audio: _reads([args.manifest], audio),
    "metrics": lambda args, _, audio: _reads([args.ref_manifest, args.hyp_manifest], audio),
    "snr": lambda args, _, audio: _reads([args.manifest], audio, args.enhanced_dir),
    "vocode": lambda args, _, audio: _reads([args.manifest], audio),
    "filter": lambda args, _, audio: _reads([args.manifest], audio),
    "report": lambda args, _, audio: _reads([args.manifest], audio),
}


def _refusal(args, cfg, audio, ids=()) -> None:
    """Raise a UsageError saying why, if the run would write over a file it reads or over a
    directory; if it would not, make the directory of each of cfg["outputs"] and remove each
    file the run will write, so that each is written as a new file, never through a link.

    The run reads what INPUTS declares, given audio, and writes cfg["outputs"] and, for each
    of ids, <out-dir>/<id>.wav, which it deletes again for a failed or dropped utterance. No
    output may be an input, directly or through a link, nor a declared output a directory.
    An input that does not exist yet counts too: the run could make it before it reads it.
    """
    inputs = INPUTS[args.command](args, cfg.get("stages", ()), audio)
    taken = {key: kind for kind, paths in inputs.items() for key in map(_file_key, paths) if key}
    for path in cfg["outputs"].values():
        if (key := _file_key(path)) in taken:
            raise UsageError(f"writing {path} would overwrite an input {taken[key]}")
        if path.is_dir():
            raise UsageError(f"cannot write {path}, which is a directory")
    clashes = []
    for utterance_id in ids:
        with suppress(InvalidConfigError):  # an id _out_wav refuses gets an error row instead
            if _file_key(_out_wav(args.out_dir, utterance_id)) in taken:
                clashes.append(utterance_id)
    if clashes:
        raise UsageError(f"--out-dir would overwrite the input audio of {clashes}")
    for path in cfg["outputs"].values():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.unlink(missing_ok=True)
    for utterance_id in ids:
        _discard_wav(args.out_dir, utterance_id)


def _configure(args) -> dict:
    """Every config the command uses, by name, built from args alone: no file is touched.

    A command has only the flags it reads, so they pick its configs. The checks on
    --sample-rate run only for the stages and metrics that will run. Each command checks
    its files with _refusal once its manifests are read or --spec-dir listed.
    """
    for flag in ("workers", "iters", "sample_rate"):
        value = getattr(args, flag, 1)
        if value < 1:
            raise InvalidConfigError(f"--{flag.replace('_', '-')} must be at least 1, got {value}")
    cfg = {"stages": (f"VAD-{args.aggressiveness}",)} if "aggressiveness" in args else {}
    if "stages" in args:
        cfg["stages"] = _comma_list("--stages", args.stages, ALL_STAGES)
        if cfg["stages"].count("FLT") > 1:  # a second FLT would lose the first one's drops
            raise InvalidConfigError(f"--stages may name FLT only once, got {args.stages!r}")
        try:
            cfg["DN"] = enhance.DryWetConfig(args.dry)
        except InvalidConfigError as exc:  # name the flag; DryWetConfig names its field
            raise InvalidConfigError(f"--dry: {exc}") from None
    if ("stages" in cfg or "iters" in args) and args.sample_rate > wavio.MAX_WRITE_RATE:
        raise InvalidConfigError(  # these commands write every WAV at --sample-rate
            f"--sample-rate {args.sample_rate} does not fit a 16-bit WAV header; "
            f"the most is {wavio.MAX_WRITE_RATE} Hz"
        )
    if "flt" in args:
        cfg["FLT"] = corpus.FilterConfig(args.min_snr, args.max_cer, args.flt)
    if "fill" in args:
        cfg["silence"] = enhance.SilencePolicy(fill=args.fill)
        vad = enhance.VadConfig(energy_threshold_db=args.energy_threshold_db)
        for name in cfg["stages"]:
            if name.startswith("VAD-"):
                cfg[name] = replace(vad, aggressiveness=int(name[4:]))
    if "spec_dir" in args and (args.manifest is None) == (args.spec_dir is None):
        raise InvalidConfigError("pass exactly one of --manifest (round trip) or --spec-dir")
    if "fft" in args:
        cfg["stft"] = dsp.StftConfig(args.fft, args.win, args.hop)
    if "iters" in args and 2 * args.hop > args.win:
        # Overlap-add divides by the summed squared windows, which nears 0 with less overlap.
        raise InvalidConfigError(
            f"vocode needs --hop at most half of --win, got --hop {args.hop} and --win {args.win}"
        )
    if "mels" in args:
        chosen = _comma_list("--which", args.which, METRIC_CHOICES)
        cfg["which"] = which = tuple(m for m in METRIC_CHOICES if m in chosen)  # report order
        cfg["mel"] = dsp.MelConfig(args.mels, stft=cfg["stft"])
        if "mcd" in which:
            dsp.check_cepstrum(args.mels)
        if "f0" in which:
            pitch.lags(args.sample_rate, args.win)
    cfg["outputs"] = OUTPUTS[args.command](args, cfg.get("stages", ()))
    return cfg


# ---------------------------------------------------------------- preprocess


def _preprocess_one(utterance_id, record, args, cfg, stage):
    """Run one record through the audio stages into <out-dir>/<id>.wav.

    Returns (record with DN's snr_db and FLT's CER, durations): the input
    duration, then one duration per stage; FLT's repeats the one before it.
    """
    out_path = _out_wav(args.out_dir, utterance_id)
    audio = corpus.resolve_audio_path(record, args.manifest)
    w = _load(audio, args.sample_rate)
    durations = [w.duration_s]
    snr_db = record.snr_db
    for name in cfg["stages"]:
        if name != "FLT":  # a failed WAV write is charged to the last audio stage
            stage.label = name
        if name == "DN":
            # Without --enhanced-dir, DN uses the identity enhancer.
            enhanced = w if args.enhanced_dir is None else _load_enhanced(audio, args)
            snr_db = enhance.estimate_snr(w, enhanced)
            w = enhance.dry_wet_mix(w, enhanced, cfg["DN"])
        elif name.startswith("VAD-"):
            labels = enhance.vad_label(w, cfg[name])
            seed = derive_seed(args.seed, utterance_id)
            w = enhance.trim_and_compress(w, labels, cfg["silence"], seed=seed)
        elif name == "VN":
            w = enhance.normalize_volume(w)
        durations.append(w.duration_s)
    wavio.write_wav(out_path, w)
    cer = record.cer
    if "FLT" in cfg["stages"] and cer is None and record.text and record.hyp_text:
        with stage.contain("FLT"):
            cer = metrics.cer(record.text, record.hyp_text).cer
    return replace(record, snr_db=snr_db, cer=cer), durations


def cmd_preprocess(args, cfg) -> None:
    """Run stages over --manifest into --out-dir; `vad` runs its one VAD stage here."""
    manifest = corpus.load_manifest(args.manifest)
    out_dir, paths = Path(args.out_dir), cfg["outputs"]
    stages = cfg["stages"]
    records = {r.utterance_id: r for r in manifest}
    _refusal(args, cfg, _audio_files(manifest, args.manifest), records)
    results, error_rows = _run_utterances(_preprocess_one, records, args, cfg, "load")
    error_rows.sort(key=lambda row: row[1] == "FLT")  # FLT's CER rows after all audio rows

    # Walk the chain: position k is after the first k stages, and tags[k] is its manifest tag.
    source = [] if manifest.source_tag == "Raw" else [manifest.source_tag]
    tags = ["+".join(source + list(stages[:k])) or "Raw" for k in range(len(stages) + 1)]
    alive = [i for i, result in results.items() if result is not None]  # in manifest order
    table, filter_result = [], None
    for k, stage in enumerate(("Raw",) + stages):
        if stage == "FLT":
            # FLT sees the input audio cells, so dropped.tsv points at the input audio.
            inputs = tuple(
                _input_audio(record, args.manifest, out_dir, duration_s=durations[k])
                for record, durations in map(results.get, alive)
            )
            filter_result = corpus.apply_filter(corpus.Manifest(inputs, tags[k - 1]), cfg["FLT"])
            alive = filter_result.kept.ids()
        hours = sum(durations[k] for _, durations in map(results.get, alive)) / 3600.0
        table.append(("+".join(stages[:k]) or "Raw", hours, len(alive)))

    # FLT's drops leave no processed audio behind. (A failed utterance has none: write_wav
    # removes a file it fails to finish.)
    for utterance_id in records.keys() - set(alive):
        _discard_wav(out_dir, utterance_id)

    outputs = tuple(
        replace(record, audio_path=f"{record.utterance_id}.wav", duration_s=durations[-1])
        for record, durations in map(results.get, alive)
    )
    corpus.save_manifest(corpus.Manifest(outputs, tags[-1]), paths["manifest.tsv"])
    if filter_result is not None:
        corpus.save_dropped_report(filter_result, paths["dropped.tsv"])

    _print_stage_table(table)
    _finish(paths, error_rows, f"{len(alive)} utterances to {paths['manifest.tsv']}")


# ------------------------------------------------------------------- metrics


def _metric_cells(name, ref, hyp, audio, log_mels, stft_cfg) -> dict:
    """The report cells of one metric; log_mels() gives mcd and msd their shared input."""
    columns = metrics.METRIC_COLUMNS[name]
    if name == "mcd":
        return {columns[0]: metrics.mcd_from_log_mel(*log_mels())[0]}
    if name == "msd":
        ref_logm, hyp_logm = log_mels()
        return {columns[0]: metrics.dtw_rmse(ref_logm.frames, hyp_logm.frames)[0]}
    if name == "f0":
        tracks = pitch.align_tracks(*(pitch.extract_pitch(w, stft_cfg) for w in audio))
        report = metrics.f0_metrics(*tracks)  # gpe is None when no frame is voiced in both
    elif not hyp.hyp_text:
        raise VoxkitError("hyp_text is missing")
    else:
        report = metrics.cer(ref.text, hyp.hyp_text)
    return {column: getattr(report, column) for column in columns}


def _metrics_one(utterance_id, pair, args, cfg, stage):
    """One row of metric values; each metric that fails gets its own error row.

    A failed log_mel_pair is raised again for msd, so it gives one row
    each for mcd and msd.
    """
    ref, hyp = pair
    audio = None
    if any(m in cfg["which"] for m in ("mcd", "msd", "f0")):
        audio = (
            _load(corpus.resolve_audio_path(ref, args.ref_manifest), args.sample_rate),
            _load(corpus.resolve_audio_path(hyp, args.hyp_manifest), args.sample_rate),
        )
    log_mels = cache(lambda: metrics.log_mel_pair(*audio, cfg["mel"]))
    row = {}
    for name in cfg["which"]:
        with stage.contain(name):
            row.update(_metric_cells(name, ref, hyp, audio, log_mels, cfg["stft"]))
    return row


def cmd_metrics(args, cfg) -> None:
    ref_manifest = corpus.load_manifest(args.ref_manifest)
    hyp_manifest = corpus.load_manifest(args.hyp_manifest)
    ref_ids = set(ref_manifest.ids())
    hyp_ids = set(hyp_manifest.ids())
    if ref_ids != hyp_ids:
        only_ref = sorted(ref_ids - hyp_ids)
        only_hyp = sorted(hyp_ids - ref_ids)
        raise UsageError(
            "manifests do not cover the same utterances; "
            f"only in reference: {only_ref}; only in hypothesis: {only_hyp}"
        )

    audio = _audio_files(ref_manifest, args.ref_manifest)
    _refusal(args, cfg, audio + _audio_files(hyp_manifest, args.hyp_manifest))
    out_dir, paths = Path(args.out_dir), cfg["outputs"]
    pairs = {ref.utterance_id: (ref, hyp) for ref, hyp in zip(ref_manifest, hyp_manifest)}
    rows, error_rows = _run_utterances(_metrics_one, pairs, args, cfg, "audio")
    means = metrics.write_report({i: row or {} for i, row in rows.items()}, out_dir)

    for name in cfg["which"]:
        columns = metrics.METRIC_COLUMNS[name]
        values = [means[c] for c in columns]
        if name != "cer":
            for column, value in zip(columns, values):
                print(f"{column.upper()}: " + ("n/a" if value is None else f"{value:.4f}"))
        elif values[0] is None:
            print("CER (S/D/I): n/a")
        else:
            print("CER (S/D/I): {:.1f} ({:.1f}/{:.1f}/{:.1f})".format(*(100 * v for v in values)))
    _finish(paths, error_rows, f"{len(rows)} rows to {paths['report.tsv']}")


# ----------------------------------------------------------------------- snr


def _snr_one(utterance_id, audio, args, cfg, stage):
    return enhance.estimate_snr(_load(audio, args.sample_rate), _load_enhanced(audio, args))


def cmd_snr(args, cfg) -> None:
    manifest = corpus.load_manifest(args.manifest)
    audio = {r.utterance_id: corpus.resolve_audio_path(r, args.manifest) for r in manifest}
    _refusal(args, cfg, audio.values())
    paths = cfg["outputs"]
    snrs, error_rows = _run_utterances(_snr_one, audio, args, cfg, "snr")
    records = tuple(
        _input_audio(record, args.manifest, args.out_dir, snr_db=snrs[record.utterance_id])
        for record in manifest
        if snrs[record.utterance_id] is not None
    )
    corpus.save_manifest(corpus.Manifest(records, manifest.source_tag), paths["manifest.tsv"])
    _finish(paths, error_rows, f"{len(records)} utterances to {paths['manifest.tsv']}")


# -------------------------------------------------------------------- vocode


def _load_spectrogram(path) -> np.ndarray:
    """A real-valued array from a .npy file; anything else is an InvalidConfigError."""
    # The file is closed here even when np.load opens an .npz archive. A
    # garbled .npy header reaches np.load's literal parser, which raises
    # SyntaxError, TypeError or TokenError as well as ValueError.
    with open(path, "rb") as fh:
        try:
            frames = np.load(fh, allow_pickle=False)
        except tokenize.TokenError as exc:  # its args are (message, (line, column))
            raise InvalidConfigError(f"{path}: {exc.args[0]}") from None
        except (ValueError, EOFError, SyntaxError, TypeError) as exc:
            raise InvalidConfigError(f"{path}: {exc}") from None
    if not isinstance(frames, np.ndarray):
        raise InvalidConfigError(f"{path}: expected a single .npy array")
    if frames.dtype.kind not in "biuf":
        raise InvalidConfigError(
            f"{path}: expected a real-valued spectrogram, got dtype {frames.dtype}"
        )
    return frames


def _vocode_one(name, source, args, cfg, stage):
    """Rebuild audio into <out-dir>/<name>.wav; returns its spectral convergence.

    source is a .npy magnitude spectrogram, or with --manifest a WAV whose
    STFT makes the round trip.
    """
    out_path = _out_wav(args.out_dir, name)
    stft_cfg = cfg["stft"]
    if args.spec_dir is None:
        target = dsp.stft(_load(source, args.sample_rate), stft_cfg)
    else:
        frames = _load_spectrogram(source)
        rate = args.sample_rate / stft_cfg.hop_length
        target = dsp.FeatureSeq(frames, rate, "magnitude_spectrogram")
    seed = derive_seed(args.seed, name)
    rebuilt, gap = dsp.griffin_lim(target, stft_cfg, n_iters=args.iters, seed=seed)
    wavio.write_wav(out_path, rebuilt)
    return gap


def cmd_vocode(args, cfg) -> None:
    if args.manifest is not None:
        manifest = corpus.load_manifest(args.manifest)
        sources = {r.utterance_id: corpus.resolve_audio_path(r, args.manifest) for r in manifest}
    else:
        spec_paths = sorted(Path(args.spec_dir).glob("*.npy"))
        if not spec_paths:
            raise UsageError(f"no .npy spectrograms found in {args.spec_dir}")
        sources = {path.stem: path for path in spec_paths}
    out_dir, paths = Path(args.out_dir), cfg["outputs"]
    _refusal(args, cfg, sources.values(), sources)
    gaps, error_rows = _run_utterances(_vocode_one, sources, args, cfg, "vocode")

    done = {name: gap for name, gap in gaps.items() if gap is not None}
    write_tsv(paths["roundtrip.tsv"], ("id", "spectral_convergence"), done.items())
    if done:
        print(f"mean spectral convergence: {sum(done.values()) / len(done):.4f}")
    _finish(paths, error_rows, f"{len(done)} files to {out_dir}")


# ----------------------------------------------------------- filter / report


def cmd_filter(args, cfg) -> None:
    manifest = corpus.load_manifest(args.manifest)
    _refusal(args, cfg, _audio_files(manifest, args.manifest))
    out_dir, paths = Path(args.out_dir), cfg["outputs"]
    records = tuple(_input_audio(r, args.manifest, out_dir) for r in manifest)
    result = corpus.apply_filter(corpus.Manifest(records, manifest.source_tag), cfg["FLT"])
    corpus.save_manifest(result.kept, paths["kept.tsv"])
    corpus.save_dropped_report(result, paths["dropped.tsv"])
    kept_stats = corpus.summarize(result.kept)
    dropped_stats = corpus.summarize(result.dropped)
    print(f"kept {kept_stats.n_utterances} utterances ({kept_stats.total_hours:.2f} h)")
    print(
        f"dropped {dropped_stats.n_utterances} utterances "
        f"({dropped_stats.total_hours:.2f} h)"
    )


def _histogram_dict(histogram) -> dict:
    return {name.removeprefix("n_"): value for name, value in asdict(histogram).items()}


def _print_histogram(name: str, histogram) -> None:
    edges = histogram.edges
    labels = [f"< {edges[0]:g}", *(f"[{lo:g}, {hi:g})" for lo, hi in zip(edges, edges[1:]))]
    labels += [f">= {edges[-1]:g}", "inf", "-inf", "absent"]
    counts = [histogram.n_below, *histogram.counts, histogram.n_above, histogram.n_pos_inf]
    counts += [histogram.n_neg_inf, histogram.n_absent]
    print(f"{name} histogram:")
    for label, count in zip(labels, counts):
        if count:
            print(f"  {label}: {count}")


def cmd_report(args, cfg) -> None:
    manifest = corpus.load_manifest(args.manifest)
    _refusal(args, cfg, _audio_files(manifest, args.manifest))
    stats = corpus.summarize(manifest)
    if json_path := cfg["outputs"].get("--json"):
        write_json(json_path, {
            "source": manifest.source_tag,
            "utterances": stats.n_utterances,
            "hours": json_value(stats.total_hours),
            "per_speaker": stats.per_speaker,
            "snr_db": _histogram_dict(stats.snr),
            "cer": _histogram_dict(stats.cer),
        })
    print(f"source: {manifest.source_tag}")
    print(f"utterances: {stats.n_utterances}")
    print(f"hours: {stats.total_hours:.2f}")
    for speaker in sorted(stats.per_speaker):
        label = speaker if speaker else "(unspecified)"
        print(f"speaker {label}: {stats.per_speaker[speaker]}")
    _print_histogram("snr_db", stats.snr)
    _print_histogram("cer", stats.cer)


# --------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voxkit",
        description="Speech corpus preprocessing and synthesis evaluation.",
    )
    exact = partial(argparse.ArgumentParser, allow_abbrev=False)  # so --out is no --out-dir
    sub = parser.add_subparsers(dest="command", required=True, parser_class=exact)
    # Each flag is declared once, in the parent parser of the commands that read it.
    parents = (argparse.ArgumentParser(add_help=False) for _ in range(7))
    inputs, out, pool, seed, stft, vad, flt = parents
    inputs.add_argument("--manifest", required=True, help="input manifest TSV")
    out.add_argument("--out-dir", required=True, help="directory for the command's outputs")
    pool.add_argument("--workers", type=int, default=1, help="worker processes (default 1)")
    pool.add_argument(
        "--sample-rate", type=int, default=22050, help="working sample rate (default 22050)"
    )
    seed.add_argument("--seed", type=int, default=0, help="base random seed (default 0)")
    stft.add_argument("--fft", type=int, default=1024, help="FFT size (default 1024)")
    stft.add_argument("--win", type=int, default=1024, help="window length (default 1024)")
    stft.add_argument("--hop", type=int, default=256, help="hop length (default 256)")
    vad.add_argument(
        "--fill",
        choices=["zeros", "comfort_noise"],
        default="zeros",
        help="fill for compressed silence (default zeros)",
    )
    vad.add_argument(
        "--energy-threshold-db",
        type=float,
        default=-45.0,
        help="VAD energy threshold in dBFS (default -45)",
    )
    flt.add_argument("--min-snr", type=float, default=15.0, help="SNR floor in dB (default 15)")
    flt.add_argument("--max-cer", type=float, default=0.10, help="CER ceiling (default 0.10)")
    flt.add_argument(
        "--flt",
        choices=["snr+cer", "cer"],
        default="snr+cer",
        help="which fields the filter checks (default snr+cer)",
    )

    p = sub.add_parser(
        "preprocess",
        parents=[inputs, out, pool, seed, vad, flt],
        help="run enhancement/VAD/filter/normalize stages over a corpus",
    )
    p.add_argument(
        "--stages",
        default="DN,VAD-1,FLT,VN",
        help=f"comma list from {ALL_STAGES} (default DN,VAD-1,FLT,VN)",
    )
    p.add_argument(
        "--enhanced-dir",
        help="directory of <name>.enhanced.wav files; omitted, the identity enhancer is used",
    )
    p.add_argument("--dry", type=float, default=0.01, help="dry share in the mix (default 0.01)")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser(
        "metrics", parents=[out, pool, stft], help="evaluate hypothesis audio against references"
    )
    p.add_argument("--ref-manifest", required=True, help="reference manifest TSV")
    p.add_argument("--hyp-manifest", required=True, help="hypothesis manifest TSV")
    p.add_argument(
        "--which",
        default="mcd,msd,f0,cer",
        help=f"comma list from {METRIC_CHOICES} (default all)",
    )
    p.add_argument("--mels", type=int, default=80, help="mel bands (default 80)")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser(
        "vad", parents=[inputs, out, pool, seed, vad], help="trim and compress silence"
    )
    p.add_argument(
        "--aggressiveness", type=int, choices=[0, 1, 2, 3], default=1, help="default 1"
    )
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser(
        "snr", parents=[inputs, out, pool], help="estimate SNR against enhanced audio"
    )
    p.add_argument("--enhanced-dir", required=True, help="directory of <name>.enhanced.wav files")
    p.set_defaults(func=cmd_snr)

    p = sub.add_parser(
        "vocode",
        parents=[out, pool, seed, stft],
        help="reconstruct audio from magnitude spectrograms",
    )
    p.add_argument("--manifest", help="round-trip the audio in this manifest")
    p.add_argument("--spec-dir", help="reconstruct from .npy magnitude spectrograms")
    p.add_argument("--iters", type=int, default=32, help="phase iterations (default 32)")
    p.set_defaults(func=cmd_vocode)

    p = sub.add_parser(
        "filter", parents=[inputs, out, flt], help="split a manifest by quality thresholds"
    )
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("report", parents=[inputs], help="summarize a manifest")
    p.add_argument("--json", help="also write the summary as JSON here")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _configure(args)  # its InvalidConfigError is a usage error, a command's is not
        try:
            args.func(args, cfg)
        except (VoxkitError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
    except (InvalidConfigError, UsageError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
