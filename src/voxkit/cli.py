"""Command-line entry points for corpus preprocessing and evaluation.

Per-utterance work runs in a pool of stateless workers; results are merged
in manifest order, so any worker count produces byte-identical outputs.
Per-utterance failures are tabulated in errors.tsv and the run continues.
"""

import argparse
import os
import sys
import tokenize
import warnings
import zlib
from concurrent.futures import ProcessPoolExecutor
from contextlib import suppress
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


def _run_utterances(func, items: dict, args, cfg, stage: str, out_dir: Path):
    """Make out_dir, then map func(id, item, args, cfg, stage) over items.

    The map runs in up to --workers processes, never more than one per utterance. func returns
    (value, errors), errors being (stage, message) rows. stage is a one-item list naming the
    stage func is in, starting at the given label; a VoxkitError, OSError or MemoryError that
    func raises gives the value None and one error row for that stage. Once all items are done,
    the UTTERANCE_WARNINGS each raised go to stderr as `warning: <id>: <Category>: <message>`
    lines. Returns ({id: value}, rows of (id, stage, message)); all three are in item order.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    attempt = partial(_attempt, func, stage, args, cfg)
    workers = min(args.workers, len(items))
    if workers <= 1:
        results = [attempt(item) for item in items.items()]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(attempt, items.items()))
    values, error_rows = {}, []
    for utterance_id, (value, errors, caught) in zip(items, results):
        values[utterance_id] = value
        error_rows += [(utterance_id, s, message) for s, message in errors]
        for line in caught:
            print(_sanitize(f"warning: {utterance_id}: {line}"), file=sys.stderr)
    return values, error_rows


def _attempt(func, label, args, cfg, named_item):
    """(value, errors, caught): func's result and the UTTERANCE_WARNINGS it raised.

    Other warnings are shown once func returns, and the warning filters apply to all of them.
    """
    utterance_id, item = named_item
    stage = [label]
    with warnings.catch_warnings(record=True) as log:
        try:
            value, errors = func(utterance_id, item, args, cfg, stage)
        # A header that claims a huge size (a .npy shape, a WAV rate to resample
        # from) asks for more memory than the machine has; only that input fails.
        except (VoxkitError, OSError, MemoryError) as exc:
            value, errors = None, ((stage[0], str(exc)),)
    caught = []
    for w in log:
        if issubclass(w.category, UTTERANCE_WARNINGS):
            caught.append(f"{w.category.__name__}: {w.message}")
        else:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno, w.file, w.line)
    return value, errors, tuple(caught)


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
    """Remove <out_dir>/<id>.wav if present; an id _out_wav rejects has none."""
    with suppress(InvalidConfigError, FileNotFoundError):
        _out_wav(out_dir, utterance_id).unlink()


def _file_id(path):
    """(st_dev, st_ino) of the file path names, directly or through a link; None if none."""
    with suppress(OSError, ValueError):  # a missing file; a NUL byte in the name
        st = os.stat(path)
        return st.st_dev, st.st_ino


def _overwritten_inputs(out_dir, inputs: dict) -> list:
    """The ids whose <out_dir>/<id>.wav is already an input file, directly or through a link.

    inputs maps each id to its input path. Writing such a WAV would destroy that input, and
    discarding it for a failed or dropped utterance would delete it. An id that _out_wav
    rejects writes nothing; it gets its error row.
    """
    taken = {_file_id(path) for path in inputs.values()} - {None}
    clashes = []
    for utterance_id in inputs:
        with suppress(InvalidConfigError):
            if _file_id(_out_wav(out_dir, utterance_id)) in taken:
                clashes.append(utterance_id)
    return clashes


def _manifest_clash(outputs, *manifests):
    """A usage error message if one of the output paths is an input manifest, directly or
    through a link; else None."""
    taken = {_file_id(path) for path in manifests} - {None}
    for path in outputs:
        if _file_id(path) in taken:
            return f"writing {path} would overwrite an input manifest"
    return None


def _usage(message: str) -> int:
    print(f"usage error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _sanitize(message: str) -> str:
    """message as one TSV cell or line: tabs and line breaks become spaces, and a
    file-name byte that is not UTF-8, decoded as a lone surrogate, is written \\xNN."""
    message = message.encode("utf-8", "surrogateescape").decode("utf-8", "backslashreplace")
    return message.replace("\t", " ").replace("\n", " ").replace("\r", " ")


def _write_errors(path, rows) -> None:
    cells = [(_sanitize(name), stage, _sanitize(error)) for name, stage, error in rows]
    write_tsv(path, ("id", "stage", "error"), cells)


def _finish(out_dir: Path, error_rows, wrote: str) -> int:
    """End a per-utterance command: <out_dir>/errors.tsv, then the `wrote ...` line."""
    _write_errors(out_dir / "errors.tsv", error_rows)
    print(_sanitize(f"wrote {wrote} ({len(error_rows)} errors)"))
    return EXIT_OK


def _input_audio(record, manifest_path, out_dir, **changes):
    """record with changes, its audio cell pointing from out_dir at its input audio."""
    audio = os.path.relpath(corpus.resolve_audio_path(record, manifest_path), out_dir)
    return replace(record, audio_path=audio, **changes)


def _print_stage_table(rows) -> None:
    width = max(len(label) for label, _, _ in rows)
    width = max(width, len("stage"))
    print(f"{'stage':<{width}}  {'hours':>10}  {'utterances':>10}")
    for label, hours, count in rows:
        print(f"{label:<{width}}  {hours:>10.2f}  {count:>10d}")


def _load(path, sample_rate: int) -> dsp.Waveform:
    return dsp.resample(wavio.read_wav(path), sample_rate)


def _load_enhanced(audio: Path, args) -> dsp.Waveform:
    """The <stem>.enhanced.wav of audio under --enhanced-dir."""
    return _load(Path(args.enhanced_dir) / (audio.stem + ENHANCED_SUFFIX), args.sample_rate)


def _comma_list(flag: str, text: str, choices: tuple) -> tuple:
    """The items of a non-empty comma list, each one from choices."""
    items = tuple(s.strip() for s in text.split(",") if s.strip())
    if not items or not all(s in choices for s in items):
        raise InvalidConfigError(f"{flag} must be a comma list from {choices}, got {text!r}")
    return items


def _configure(args) -> dict:
    """Every config the command uses, by name, built before any input is read or output written.

    A command has only the flags it reads, so they pick its configs. The checks on
    --sample-rate run only for the stages and metrics that will run.
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
    if "flt" in args:
        cfg["FLT"] = corpus.FilterConfig(args.min_snr, args.max_cer, args.flt)
    if "fill" in args:
        cfg["silence"] = enhance.SilencePolicy(fill=args.fill)
        vad = enhance.VadConfig(energy_threshold_db=args.energy_threshold_db)
        for name in cfg["stages"]:
            if name.startswith("VAD-"):
                cfg[name] = replace(vad, aggressiveness=int(name[4:]))
    if "out" in args and Path(args.out).name == "errors.tsv":
        raise InvalidConfigError("--out must not be named errors.tsv, which snr writes beside it")
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
        cfg["which"] = which = _comma_list("--which", args.which, METRIC_CHOICES)
        cfg["mel"] = dsp.MelConfig(args.mels, stft=cfg["stft"])
        if "mcd" in which:
            dsp.check_cepstrum(args.mels)
        if "f0" in which:
            pitch.lags(args.sample_rate, args.win)
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
            stage[0] = name
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
    cer, errors = record.cer, ()
    if "FLT" in cfg["stages"] and cer is None and record.text and record.hyp_text:
        try:
            cer = metrics.cer(record.text, record.hyp_text).cer
        except VoxkitError as exc:
            errors = (("FLT", str(exc)),)
    return (replace(record, snr_db=snr_db, cer=cer), durations), errors


def cmd_preprocess(args, cfg) -> int:
    """Run stages over --manifest into --out-dir; `vad` runs its one VAD stage here."""
    manifest = corpus.load_manifest(args.manifest)
    out_dir = Path(args.out_dir)
    stages = cfg["stages"]
    outputs = ("manifest.tsv", "errors.tsv") + (("dropped.tsv",) if "FLT" in stages else ())
    if clash := _manifest_clash((out_dir / name for name in outputs), args.manifest):
        return _usage(clash)
    records = {r.utterance_id: r for r in manifest}
    inputs = {i: corpus.resolve_audio_path(r, args.manifest) for i, r in records.items()}
    if clashes := _overwritten_inputs(out_dir, inputs):
        return _usage(f"--out-dir would overwrite the input audio of {clashes}")
    results, error_rows = _run_utterances(_preprocess_one, records, args, cfg, "load", out_dir)
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

    # Failed and dropped utterances leave no processed audio behind.
    for utterance_id in records.keys() - set(alive):
        _discard_wav(out_dir, utterance_id)

    outputs = tuple(
        replace(record, audio_path=f"{record.utterance_id}.wav", duration_s=durations[-1])
        for record, durations in map(results.get, alive)
    )
    corpus.save_manifest(corpus.Manifest(outputs, tags[-1]), out_dir / "manifest.tsv")
    if filter_result is not None:
        corpus.save_dropped_report(filter_result, out_dir / "dropped.tsv")

    _print_stage_table(table)
    wrote = f"{len(alive)} utterances to {out_dir / 'manifest.tsv'}"
    return _finish(out_dir, error_rows, wrote)


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
    row, errors = {}, []
    for name in METRIC_CHOICES:
        if name in cfg["which"]:
            try:
                row.update(_metric_cells(name, ref, hyp, audio, log_mels, cfg["stft"]))
            except VoxkitError as exc:
                errors.append((name, str(exc)))
    return row, tuple(errors)


def cmd_metrics(args, cfg) -> int:
    which = cfg["which"]
    ref_manifest = corpus.load_manifest(args.ref_manifest)
    hyp_manifest = corpus.load_manifest(args.hyp_manifest)
    ref_ids = set(ref_manifest.ids())
    hyp_ids = set(hyp_manifest.ids())
    if ref_ids != hyp_ids:
        only_ref = sorted(ref_ids - hyp_ids)
        only_hyp = sorted(hyp_ids - ref_ids)
        return _usage(
            "manifests do not cover the same utterances; "
            f"only in reference: {only_ref}; only in hypothesis: {only_hyp}"
        )

    out_dir = Path(args.out_dir)
    outputs = (out_dir / name for name in ("report.tsv", "report.json", "errors.tsv"))
    if clash := _manifest_clash(outputs, args.ref_manifest, args.hyp_manifest):
        return _usage(clash)
    hyp_by_id = {r.utterance_id: r for r in hyp_manifest}
    pairs = {r.utterance_id: (r, hyp_by_id[r.utterance_id]) for r in ref_manifest}
    rows, error_rows = _run_utterances(_metrics_one, pairs, args, cfg, "audio", out_dir)
    means = metrics.write_report({i: row or {} for i, row in rows.items()}, out_dir)

    for name, columns in metrics.METRIC_COLUMNS.items():
        if name not in which:
            continue
        values = [means[c] for c in columns]
        if name != "cer":
            for column, value in zip(columns, values):
                print(f"{column.upper()}: " + ("n/a" if value is None else f"{value:.4f}"))
        elif values[0] is None:
            print("CER (S/D/I): n/a")
        else:
            print("CER (S/D/I): {:.1f} ({:.1f}/{:.1f}/{:.1f})".format(*(100 * v for v in values)))
    return _finish(out_dir, error_rows, f"{len(rows)} rows to {out_dir / 'report.tsv'}")


# ----------------------------------------------------------------------- snr


def _snr_one(utterance_id, audio, args, cfg, stage):
    return enhance.estimate_snr(_load(audio, args.sample_rate), _load_enhanced(audio, args)), ()


def cmd_snr(args, cfg) -> int:
    manifest = corpus.load_manifest(args.manifest)
    out_path = Path(args.out)
    if clash := _manifest_clash((out_path, out_path.parent / "errors.tsv"), args.manifest):
        return _usage(clash)
    audio = {r.utterance_id: corpus.resolve_audio_path(r, args.manifest) for r in manifest}
    snrs, error_rows = _run_utterances(_snr_one, audio, args, cfg, "snr", out_path.parent)
    records = tuple(
        _input_audio(record, args.manifest, out_path.parent, snr_db=snrs[record.utterance_id])
        for record in manifest
        if snrs[record.utterance_id] is not None
    )
    corpus.save_manifest(corpus.Manifest(records, manifest.source_tag), out_path)
    return _finish(out_path.parent, error_rows, f"{len(records)} utterances to {out_path}")


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
    rebuilt = dsp.griffin_lim(target, stft_cfg, n_iters=args.iters, seed=seed)
    gap = dsp.spectral_convergence(target, rebuilt, stft_cfg)
    wavio.write_wav(out_path, rebuilt)
    return gap, ()


def cmd_vocode(args, cfg) -> int:
    if args.manifest is not None:
        manifest = corpus.load_manifest(args.manifest)
        sources = {r.utterance_id: corpus.resolve_audio_path(r, args.manifest) for r in manifest}
    else:
        spec_paths = sorted(Path(args.spec_dir).glob("*.npy"))
        if not spec_paths:
            return _usage(f"no .npy spectrograms found in {args.spec_dir}")
        sources = {path.stem: path for path in spec_paths}
    out_dir = Path(args.out_dir)
    outputs = (out_dir / "roundtrip.tsv", out_dir / "errors.tsv")
    if args.manifest is not None and (clash := _manifest_clash(outputs, args.manifest)):
        return _usage(clash)
    if clashes := _overwritten_inputs(out_dir, sources):
        return _usage(f"--out-dir would overwrite the input audio of {clashes}")
    gaps, error_rows = _run_utterances(_vocode_one, sources, args, cfg, "vocode", out_dir)

    done = {name: gap for name, gap in gaps.items() if gap is not None}
    write_tsv(out_dir / "roundtrip.tsv", ("id", "spectral_convergence"), done.items())
    if done:
        print(f"mean spectral convergence: {sum(done.values()) / len(done):.4f}")
    return _finish(out_dir, error_rows, f"{len(done)} files to {out_dir}")


# ----------------------------------------------------------- filter / report


def cmd_filter(args, cfg) -> int:
    manifest = corpus.load_manifest(args.manifest)
    out_dir = Path(args.out_dir)
    if clash := _manifest_clash((out_dir / "kept.tsv", out_dir / "dropped.tsv"), args.manifest):
        return _usage(clash)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = tuple(_input_audio(r, args.manifest, out_dir) for r in manifest)
    result = corpus.apply_filter(corpus.Manifest(records, manifest.source_tag), cfg["FLT"])
    corpus.save_manifest(result.kept, out_dir / "kept.tsv")
    corpus.save_dropped_report(result, out_dir / "dropped.tsv")
    kept_stats = corpus.summarize(result.kept)
    dropped_stats = corpus.summarize(result.dropped)
    print(f"kept {kept_stats.n_utterances} utterances ({kept_stats.total_hours:.2f} h)")
    print(
        f"dropped {dropped_stats.n_utterances} utterances "
        f"({dropped_stats.total_hours:.2f} h)"
    )
    return EXIT_OK


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


def cmd_report(args, cfg) -> int:
    manifest = corpus.load_manifest(args.manifest)
    stats = corpus.summarize(manifest)
    print(f"source: {manifest.source_tag}")
    print(f"utterances: {stats.n_utterances}")
    print(f"hours: {stats.total_hours:.2f}")
    for speaker in sorted(stats.per_speaker):
        label = speaker if speaker else "(unspecified)"
        print(f"speaker {label}: {stats.per_speaker[speaker]}")
    _print_histogram("snr_db", stats.snr)
    _print_histogram("cer", stats.cer)
    if args.json is not None:
        payload = {
            "source": manifest.source_tag,
            "utterances": stats.n_utterances,
            "hours": json_value(stats.total_hours),
            "per_speaker": stats.per_speaker,
            "snr_db": _histogram_dict(stats.snr),
            "cer": _histogram_dict(stats.cer),
        }
        write_json(args.json, payload)
    return EXIT_OK


# --------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voxkit",
        description="Speech corpus preprocessing and synthesis evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Each flag is declared once, in the parent parser of the commands that read it.
    parents = (argparse.ArgumentParser(add_help=False) for _ in range(6))
    inputs, pool, seed, stft, vad, flt = parents
    inputs.add_argument("--manifest", required=True, help="input manifest TSV")
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
        parents=[inputs, pool, seed, vad, flt],
        help="run enhancement/VAD/filter/normalize stages over a corpus",
    )
    p.add_argument("--out-dir", required=True, help="directory for processed audio and manifests")
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
        "metrics", parents=[pool, stft], help="evaluate hypothesis audio against references"
    )
    p.add_argument("--ref-manifest", required=True, help="reference manifest TSV")
    p.add_argument("--hyp-manifest", required=True, help="hypothesis manifest TSV")
    p.add_argument(
        "--which",
        default="mcd,msd,f0,cer",
        help=f"comma list from {METRIC_CHOICES} (default all)",
    )
    p.add_argument("--out-dir", required=True, help="directory for report.tsv/report.json")
    p.add_argument("--mels", type=int, default=80, help="mel bands (default 80)")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("vad", parents=[inputs, pool, seed, vad], help="trim and compress silence")
    p.add_argument("--out-dir", required=True, help="directory for trimmed audio")
    p.add_argument(
        "--aggressiveness", type=int, choices=[0, 1, 2, 3], default=1, help="default 1"
    )
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("snr", parents=[inputs, pool], help="estimate SNR against enhanced audio")
    p.add_argument(
        "--enhanced-dir", required=True, help="directory of <name>.enhanced.wav files"
    )
    p.add_argument("--out", required=True, help="output manifest path")
    p.set_defaults(func=cmd_snr)

    p = sub.add_parser(
        "vocode", parents=[pool, seed, stft], help="reconstruct audio from magnitude spectrograms"
    )
    p.add_argument("--manifest", help="round-trip the audio in this manifest")
    p.add_argument("--spec-dir", help="reconstruct from .npy magnitude spectrograms")
    p.add_argument("--out-dir", required=True, help="directory for reconstructed audio")
    p.add_argument("--iters", type=int, default=32, help="phase iterations (default 32)")
    p.set_defaults(func=cmd_vocode)

    p = sub.add_parser(
        "filter", parents=[inputs, flt], help="split a manifest by quality thresholds"
    )
    p.add_argument("--out-dir", required=True, help="directory for kept.tsv/dropped.tsv")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("report", parents=[inputs], help="summarize a manifest")
    p.add_argument("--json", help="also write the summary as JSON here")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _configure(args)
    except InvalidConfigError as exc:
        return _usage(str(exc))
    try:
        return args.func(args, cfg)
    except (VoxkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
