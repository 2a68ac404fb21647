"""Command-line entry points for corpus preprocessing and evaluation.

Per-utterance work runs in a pool of stateless workers; results are merged
in manifest order, so any worker count produces byte-identical outputs.
Per-utterance failures are tabulated in errors.tsv and the run continues.
"""

import argparse
import json
import os
import sys
import tokenize
import zlib
from concurrent.futures import ProcessPoolExecutor
from contextlib import suppress
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from . import corpus, dsp, enhance, metrics, pitch, wavio
from .errors import InvalidConfigError, VoxkitError
from .serialize import format_field, json_value

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

AUDIO_STAGES = ("DN", "VAD-0", "VAD-1", "VAD-2", "VAD-3", "VN")
ALL_STAGES = AUDIO_STAGES + ("FLT",)
ENHANCED_SUFFIX = ".enhanced.wav"

METRIC_CHOICES = ("mcd", "msd", "f0", "cer")


def derive_seed(base_seed: int, utterance_id: str) -> int:
    """Per-utterance seed, independent of worker count and schedule."""
    return zlib.crc32(f"{base_seed}:{utterance_id}".encode("utf-8"))


def _map_ordered(func, jobs, workers: int) -> list:
    """Apply func over jobs, preserving job order in the results."""
    if workers <= 1:
        return [func(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(func, jobs, chunksize=1))


def _run_utterances(func, items: dict, workers: int, *context, stage: str):
    """Map func(id, item, *context, stage) over items, in their order.

    func returns (value, errors), errors being (stage, message) rows.
    stage is a one-item list naming the stage func is in, starting at the
    given label; a VoxkitError or OSError that func raises gives the value
    None and one error row for that stage. Returns ({id: value}, rows of
    (id, stage, message)).
    """
    results = _map_ordered(partial(_attempt, func, stage, context), items.items(), workers)
    values, error_rows = {}, []
    for utterance_id, (value, errors) in zip(items, results):
        values[utterance_id] = value
        error_rows += [(utterance_id, s, message) for s, message in errors]
    return values, error_rows


def _attempt(func, label, context, named_item):
    utterance_id, item = named_item
    stage = [label]
    try:
        return func(utterance_id, item, *context, stage)
    except (VoxkitError, OSError) as exc:
        return None, ((stage[0], str(exc)),)


def _out_wav(out_dir, utterance_id: str) -> Path:
    """<out_dir>/<id>.wav, for an id that is one plain path component.

    Any other id would name a file outside out_dir, so it is an error.
    """
    if utterance_id in (".", "..") or any(c in utterance_id for c in "/\\\0"):
        raise InvalidConfigError(f"utterance id {utterance_id!r} is not a plain file name")
    return Path(out_dir) / f"{utterance_id}.wav"


def _discard_wav(out_dir, utterance_id: str) -> None:
    """Remove <out_dir>/<id>.wav if present; an id _out_wav rejects has none."""
    with suppress(InvalidConfigError, FileNotFoundError):
        _out_wav(out_dir, utterance_id).unlink()


def _usage(message: str) -> int:
    print(f"usage error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _sanitize(message: str) -> str:
    return message.replace("\t", " ").replace("\n", " ").replace("\r", " ")


def _write_errors(path, rows) -> None:
    lines = ["id\tstage\terror"]
    for utterance_id, stage, message in rows:
        lines.append(f"{utterance_id}\t{stage}\t{_sanitize(message)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _relative_audio_cell(record, manifest_path, out_dir) -> str:
    """Rewrite a record's audio path relative to the output directory."""
    resolved = corpus.resolve_audio_path(record, manifest_path)
    return os.path.relpath(resolved, out_dir)


def _print_stage_table(rows) -> None:
    width = max(len(label) for label, _, _ in rows)
    width = max(width, len("stage"))
    print(f"{'stage':<{width}}  {'hours':>10}  {'utterances':>10}")
    for label, hours, count in rows:
        print(f"{label:<{width}}  {hours:>10.2f}  {count:>10d}")


def _load(path, sample_rate: int) -> dsp.Waveform:
    return dsp.resample(wavio.read_wav(path), sample_rate)


# ---------------------------------------------------------------- preprocess


def _preprocess_one(utterance_id, record, args, stages, stage):
    """Run one record through the audio stages into <out-dir>/<id>.wav.

    Returns (updated record, durations): the input duration, then the
    duration after each audio stage. FLT's CER is filled in here too.
    """
    out_path = _out_wav(args.out_dir, utterance_id)
    audio = corpus.resolve_audio_path(record, args.manifest)
    w = _load(audio, args.sample_rate)
    durations = [w.duration_s]
    snr_db = record.snr_db
    for name in stages:
        if name == "FLT":
            continue
        stage[0] = name
        if name == "DN":
            if args.enhanced_dir is None:
                enhanced = w  # identity enhancer
            else:
                enhanced_path = Path(args.enhanced_dir) / (audio.stem + ENHANCED_SUFFIX)
                enhanced = _load(enhanced_path, args.sample_rate)
            snr_db = enhance.estimate_snr(w, enhanced)
            w = enhance.dry_wet_mix(w, enhanced, enhance.DryWetConfig(args.dry))
        elif name.startswith("VAD-"):
            cfg = enhance.VadConfig(
                energy_threshold_db=args.energy_threshold_db,
                aggressiveness=int(name[4:]),
            )
            labels = enhance.vad_label(w, cfg)
            w = enhance.trim_and_compress(
                w,
                labels,
                enhance.SilencePolicy(fill=args.fill),
                seed=derive_seed(args.seed, utterance_id),
            )
        else:  # VN
            w = enhance.normalize_volume(w)
        durations.append(w.duration_s)
    wavio.write_wav(out_path, w)
    cer, errors = record.cer, ()
    if "FLT" in stages and cer is None and record.text and record.hyp_text:
        try:
            cer = metrics.cer(record.text, record.hyp_text).cer
        except VoxkitError as exc:
            errors = (("FLT", str(exc)),)
    updated = corpus.with_updates(
        record, audio_path=out_path.name, duration_s=w.duration_s, snr_db=snr_db, cer=cer
    )
    return (updated, tuple(durations)), errors


def _parse_stages(text: str):
    stages = tuple(s.strip() for s in text.split(",") if s.strip())
    if not stages:
        return None
    for s in stages:
        if s not in ALL_STAGES:
            return None
    return stages


def cmd_preprocess(args) -> int:
    stages = _parse_stages(args.stages)
    if stages is None:
        return _usage(f"--stages must be a comma list from {ALL_STAGES}, got {args.stages!r}")
    if not 0.0 <= args.dry <= 1.0:
        return _usage(f"--dry must lie in [0, 1], got {args.dry}")
    return _preprocess(args, stages)


def cmd_vad(args) -> int:
    return _preprocess(args, (f"VAD-{args.aggressiveness}",))


def _preprocess(args, stages) -> int:
    """Run stages over --manifest into --out-dir.

    Only DN reads --dry and --enhanced-dir, and only FLT reads the filter
    flags, so `vad`, which has neither stage, has none of these flags.
    """
    if args.workers < 1:
        return _usage(f"--workers must be at least 1, got {args.workers}")
    manifest = corpus.load_manifest(args.manifest)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = {r.utterance_id: r for r in manifest}
    results, error_rows = _run_utterances(
        _preprocess_one, records, args.workers, args, stages, stage="load"
    )
    error_rows.sort(key=lambda row: row[1] == "FLT")  # FLT's CER rows after all audio rows
    updated, durations = {}, {}
    for utterance_id, result in results.items():
        if result is not None:
            updated[utterance_id], durations[utterance_id] = result

    # Walk the chain to build the retained-hours table and apply FLT.
    def hours(ids, column):
        return sum(durations[i][column] for i in ids) / 3600.0

    current_ids = sorted(updated)
    table = [("Raw", hours(current_ids, 0), len(current_ids))]
    column = 0
    filter_result = None
    for k, stage in enumerate(stages):
        if stage == "FLT":
            cfg = corpus.FilterConfig(
                min_snr_db=args.min_snr, max_cer=args.max_cer, mode=args.flt
            )
            filter_result = corpus.apply_filter(
                corpus.Manifest(tuple(updated[i] for i in current_ids), "working"), cfg
            )
            current_ids = [r.utterance_id for r in filter_result.kept]
        else:
            column += 1
        table.append(("+".join(stages[: k + 1]), hours(current_ids, column), len(current_ids)))

    # Failed and dropped utterances leave no processed audio behind.
    kept = set(current_ids)
    for utterance_id in records:
        if utterance_id not in kept:
            _discard_wav(out_dir, utterance_id)

    tag_parts = ([] if manifest.source_tag == "Raw" else [manifest.source_tag]) + list(stages)
    out_manifest = corpus.Manifest(
        tuple(updated[i] for i in current_ids), "+".join(tag_parts)
    )
    corpus.save_manifest(out_manifest, out_dir / "manifest.tsv")
    if filter_result is not None:
        # Dropped rows keep their input audio cells; the processed files are removed.
        dropped_records = tuple(
            corpus.with_updates(
                record,
                audio_path=_relative_audio_cell(
                    records[record.utterance_id], args.manifest, out_dir
                ),
            )
            for record in filter_result.dropped
        )
        dropped = replace(
            filter_result,
            dropped=corpus.Manifest(dropped_records, filter_result.dropped.source_tag),
        )
        corpus.save_dropped_report(dropped, out_dir / "dropped.tsv")
    _write_errors(out_dir / "errors.tsv", error_rows)

    _print_stage_table(table)
    print(
        f"wrote {len(current_ids)} utterances to {out_dir / 'manifest.tsv'}"
        f" ({len(error_rows)} errors)"
    )
    return EXIT_OK


# ------------------------------------------------------------------- metrics


def _metrics_one(utterance_id, pair, args, which, mel_cfg, stage):
    """One row of metric values; each metric that fails gets its own error row."""
    ref, hyp = pair
    row = {}
    errors = []
    if any(m in which for m in ("mcd", "msd", "f0")):
        ref_w = _load(corpus.resolve_audio_path(ref, args.ref_manifest), args.sample_rate)
        hyp_w = _load(corpus.resolve_audio_path(hyp, args.hyp_manifest), args.sample_rate)
    spectral = [m for m in ("mcd", "msd") if m in which]
    if spectral:
        try:
            ref_logm, hyp_logm = metrics.log_mel_pair(ref_w, hyp_w, mel_cfg)
        except VoxkitError as exc:
            errors.extend((m, str(exc)) for m in spectral)
            spectral = []
    if "mcd" in spectral:
        try:
            row["mcd"], _ = metrics.mcd_from_log_mel(ref_logm, hyp_logm)
        except VoxkitError as exc:
            errors.append(("mcd", str(exc)))
    if "msd" in spectral:
        try:
            row["msd"], _ = metrics.dtw_rmse(ref_logm.frames, hyp_logm.frames)
        except VoxkitError as exc:
            errors.append(("msd", str(exc)))
    if "f0" in which:
        try:
            cfg = pitch.PitchConfig(frame_length=args.win, hop_length=args.hop)
            ref_track = pitch.extract_pitch(ref_w, cfg)
            hyp_track = pitch.extract_pitch(hyp_w, cfg)
            ref_track, hyp_track = pitch.align_tracks(ref_track, hyp_track)
            report = metrics.f0_metrics(ref_track, hyp_track)
            row["gpe"] = report.gpe  # stays absent when no co-voiced frames
            row["vde"] = report.vde
            row["ffe"] = report.ffe
        except VoxkitError as exc:
            errors.append(("f0", str(exc)))
    if "cer" in which:
        if not hyp.hyp_text:
            errors.append(("cer", "hyp_text is missing"))
        else:
            try:
                report = metrics.cer(ref.text, hyp.hyp_text)
                row["cer"] = report.cer
                row["substitutions"] = report.substitutions
                row["deletions"] = report.deletions
                row["insertions"] = report.insertions
            except VoxkitError as exc:
                errors.append(("cer", str(exc)))
    return row, tuple(errors)


def cmd_metrics(args) -> int:
    which = tuple(s.strip() for s in args.which.split(",") if s.strip())
    if not which or any(m not in METRIC_CHOICES for m in which):
        return _usage(f"--which must be a comma list from {METRIC_CHOICES}, got {args.which!r}")
    if args.workers < 1:
        return _usage(f"--workers must be at least 1, got {args.workers}")

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

    hyp_by_id = {r.utterance_id: r for r in hyp_manifest}
    pairs = {r.utterance_id: (r, hyp_by_id[r.utterance_id]) for r in ref_manifest}
    stft_cfg = dsp.StftConfig(fft_size=args.fft, win_length=args.win, hop_length=args.hop)
    mel_cfg = dsp.MelConfig(n_mels=args.mels, stft=stft_cfg)
    rows, error_rows = _run_utterances(
        _metrics_one, pairs, args.workers, args, which, mel_cfg, stage="audio"
    )

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    reports = [
        metrics.UtteranceReport(utterance_id=i, **(row or {})) for i, row in rows.items()
    ]
    metrics.write_report_tsv(reports, out_dir / "report.tsv")
    metrics.write_report_json(reports, out_dir / "report.json")
    _write_errors(out_dir / "errors.tsv", error_rows)

    means = metrics.report_means(reports)
    for name in ("mcd", "msd", "gpe", "vde", "ffe"):
        if name in which or (name in ("gpe", "vde", "ffe") and "f0" in which):
            value = means[name]
            print(f"{name.upper()}: {value:.4f}" if value is not None else f"{name.upper()}: n/a")
    if "cer" in which:
        if means["cer"] is None:
            print("CER (S/D/I): n/a")
        else:
            print(
                "CER (S/D/I): "
                f"{100 * means['cer']:.1f} "
                f"({100 * means['substitutions']:.1f}"
                f"/{100 * means['deletions']:.1f}"
                f"/{100 * means['insertions']:.1f})"
            )
    print(f"wrote {len(reports)} rows to {out_dir / 'report.tsv'} ({len(error_rows)} errors)")
    return EXIT_OK


# ----------------------------------------------------------------------- snr


def _snr_one(utterance_id, audio, args, stage):
    noisy = _load(audio, args.sample_rate)
    enhanced = _load(Path(args.enhanced_dir) / (audio.stem + ENHANCED_SUFFIX), args.sample_rate)
    return enhance.estimate_snr(noisy, enhanced), ()


def cmd_snr(args) -> int:
    if args.workers < 1:
        return _usage(f"--workers must be at least 1, got {args.workers}")
    manifest = corpus.load_manifest(args.manifest)
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    audio = {r.utterance_id: corpus.resolve_audio_path(r, args.manifest) for r in manifest}
    snrs, error_rows = _run_utterances(_snr_one, audio, args.workers, args, stage="snr")
    records = tuple(
        corpus.with_updates(
            record,
            audio_path=_relative_audio_cell(record, args.manifest, out_path.parent),
            snr_db=snrs[record.utterance_id],
        )
        for record in manifest
        if snrs[record.utterance_id] is not None
    )
    corpus.save_manifest(corpus.Manifest(records, manifest.source_tag), out_path)
    _write_errors(out_path.parent / "errors.tsv", error_rows)
    print(f"wrote {len(records)} utterances to {out_path} ({len(error_rows)} errors)")
    return EXIT_OK


# -------------------------------------------------------------------- vocode


def _load_spectrogram(path) -> np.ndarray:
    """A real-valued array from a .npy file; anything else is an InvalidConfigError."""
    # The file is closed here even when np.load opens an .npz archive. A
    # garbled .npy header reaches np.load's literal parser, which raises
    # SyntaxError, TypeError or TokenError as well as ValueError.
    with open(path, "rb") as fh:
        try:
            frames = np.load(fh, allow_pickle=False)
        except (ValueError, EOFError, SyntaxError, TypeError, tokenize.TokenError) as exc:
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
    if args.spec_dir is None:
        target = dsp.stft(_load(source, args.sample_rate), cfg)
    else:
        frames = _load_spectrogram(source)
        target = dsp.FeatureSeq(frames, args.sample_rate / cfg.hop_length, "magnitude_spectrogram")
    rebuilt = dsp.griffin_lim(target, cfg, n_iters=args.iters, seed=derive_seed(args.seed, name))
    gap = dsp.spectral_convergence(target, rebuilt, cfg)
    wavio.write_wav(out_path, rebuilt)
    return gap, ()


def cmd_vocode(args) -> int:
    if args.workers < 1:
        return _usage(f"--workers must be at least 1, got {args.workers}")
    if (args.manifest is None) == (args.spec_dir is None):
        return _usage("pass exactly one of --manifest (round trip) or --spec-dir")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.manifest is not None:
        manifest = corpus.load_manifest(args.manifest)
        sources = {r.utterance_id: corpus.resolve_audio_path(r, args.manifest) for r in manifest}
    else:
        spec_paths = sorted(Path(args.spec_dir).glob("*.npy"))
        if not spec_paths:
            return _usage(f"no .npy spectrograms found in {args.spec_dir}")
        sources = {path.stem: path for path in spec_paths}
    cfg = dsp.StftConfig(fft_size=args.fft, win_length=args.win, hop_length=args.hop)
    gaps, error_rows = _run_utterances(
        _vocode_one, sources, args.workers, args, cfg, stage="vocode"
    )

    lines = ["id\tspectral_convergence"]
    lines += [f"{name}\t{format_field(gap)}" for name, gap in gaps.items() if gap is not None]
    (out_dir / "roundtrip.tsv").write_text(
        "\n".join(lines) + "\n", encoding="utf-8", newline="\n"
    )
    _write_errors(out_dir / "errors.tsv", error_rows)
    done = [gap for gap in gaps.values() if gap is not None]
    if done:
        print(f"mean spectral convergence: {sum(done) / len(done):.4f}")
    print(f"wrote {len(done)} files to {out_dir} ({len(error_rows)} errors)")
    return EXIT_OK


# ----------------------------------------------------------- filter / report


def cmd_filter(args) -> int:
    manifest = corpus.load_manifest(args.manifest)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rewritten = corpus.Manifest(
        tuple(
            corpus.with_updates(
                r, audio_path=_relative_audio_cell(r, args.manifest, out_dir)
            )
            for r in manifest
        ),
        manifest.source_tag,
    )
    cfg = corpus.FilterConfig(min_snr_db=args.min_snr, max_cer=args.max_cer, mode=args.flt)
    result = corpus.apply_filter(rewritten, cfg)
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
    return {
        "edges": list(histogram.edges),
        "counts": list(histogram.counts),
        "below": histogram.n_below,
        "above": histogram.n_above,
        "pos_inf": histogram.n_pos_inf,
        "neg_inf": histogram.n_neg_inf,
        "absent": histogram.n_absent,
    }


def _print_histogram(name: str, histogram) -> None:
    print(f"{name} histogram:")
    if histogram.n_below:
        print(f"  < {histogram.edges[0]:g}: {histogram.n_below}")
    for k in range(len(histogram.counts)):
        if histogram.counts[k]:
            print(f"  [{histogram.edges[k]:g}, {histogram.edges[k + 1]:g}): {histogram.counts[k]}")
    if histogram.n_above:
        print(f"  >= {histogram.edges[-1]:g}: {histogram.n_above}")
    if histogram.n_pos_inf:
        print(f"  inf: {histogram.n_pos_inf}")
    if histogram.n_neg_inf:
        print(f"  -inf: {histogram.n_neg_inf}")
    if histogram.n_absent:
        print(f"  absent: {histogram.n_absent}")


def cmd_report(args) -> int:
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
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return EXIT_OK


# --------------------------------------------------------------------- parser


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--workers", type=int, default=1, help="worker processes (default 1)")
    common.add_argument("--seed", type=int, default=0, help="base random seed (default 0)")
    common.add_argument(
        "--sample-rate", type=int, default=22050, help="working sample rate (default 22050)"
    )
    common.add_argument("--fft", type=int, default=1024, help="FFT size (default 1024)")
    common.add_argument("--win", type=int, default=1024, help="window length (default 1024)")
    common.add_argument("--hop", type=int, default=256, help="hop length (default 256)")
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voxkit",
        description="Speech corpus preprocessing and synthesis evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = _common_flags()

    p = sub.add_parser(
        "preprocess",
        parents=[common],
        help="run enhancement/VAD/filter/normalize stages over a corpus",
    )
    p.add_argument("--manifest", required=True, help="input manifest TSV")
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
    p.add_argument(
        "--fill",
        choices=["zeros", "comfort_noise"],
        default="zeros",
        help="fill for compressed silence (default zeros)",
    )
    p.add_argument(
        "--energy-threshold-db",
        type=float,
        default=-45.0,
        help="VAD energy threshold in dBFS (default -45)",
    )
    p.add_argument("--min-snr", type=float, default=15.0, help="FLT SNR floor in dB (default 15)")
    p.add_argument("--max-cer", type=float, default=0.10, help="FLT CER ceiling (default 0.10)")
    p.add_argument(
        "--flt",
        choices=["snr+cer", "cer"],
        default="snr+cer",
        help="which fields FLT checks (default snr+cer)",
    )
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser(
        "metrics", parents=[common], help="evaluate hypothesis audio against references"
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

    p = sub.add_parser("vad", parents=[common], help="trim and compress silence")
    p.add_argument("--manifest", required=True, help="input manifest TSV")
    p.add_argument("--out-dir", required=True, help="directory for trimmed audio")
    p.add_argument(
        "--aggressiveness", type=int, choices=[0, 1, 2, 3], default=1, help="default 1"
    )
    p.add_argument("--fill", choices=["zeros", "comfort_noise"], default="zeros")
    p.add_argument("--energy-threshold-db", type=float, default=-45.0)
    p.set_defaults(func=cmd_vad)

    p = sub.add_parser("snr", parents=[common], help="estimate SNR against enhanced audio")
    p.add_argument("--manifest", required=True, help="input manifest TSV")
    p.add_argument(
        "--enhanced-dir", required=True, help="directory of <name>.enhanced.wav files"
    )
    p.add_argument("--out", required=True, help="output manifest path")
    p.set_defaults(func=cmd_snr)

    p = sub.add_parser(
        "vocode", parents=[common], help="reconstruct audio from magnitude spectrograms"
    )
    p.add_argument("--manifest", help="round-trip the audio in this manifest")
    p.add_argument("--spec-dir", help="reconstruct from .npy magnitude spectrograms")
    p.add_argument("--out-dir", required=True, help="directory for reconstructed audio")
    p.add_argument("--iters", type=int, default=32, help="phase iterations (default 32)")
    p.set_defaults(func=cmd_vocode)

    p = sub.add_parser("filter", parents=[common], help="split a manifest by quality thresholds")
    p.add_argument("--manifest", required=True, help="input manifest TSV")
    p.add_argument("--out-dir", required=True, help="directory for kept.tsv/dropped.tsv")
    p.add_argument("--min-snr", type=float, default=15.0, help="SNR floor in dB (default 15)")
    p.add_argument("--max-cer", type=float, default=0.10, help="CER ceiling (default 0.10)")
    p.add_argument(
        "--flt",
        choices=["snr+cer", "cer"],
        default="snr+cer",
        help="which fields the filter checks (default snr+cer)",
    )
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("report", parents=[common], help="summarize a manifest")
    p.add_argument("--manifest", required=True, help="input manifest TSV")
    p.add_argument("--json", help="also write the summary as JSON here")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (VoxkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
