"""Command line interface: train, predict, evaluate, synth.

Exit codes: 0 success, 1 schema/parse/data problems (undecodable input and
unwritable output paths among them), 2 configuration problems, 3 training
finished without emitting any rules (the model file is still written,
carrying only the default class). Each command returns its exit code and
the text for stdout, which ``main`` prints, so a command writes its files,
and ``train`` its no-rules warning, before anything is printed. A command
whose stdout is closed early, as by `| head`, then ends quietly with the code
it returned, with no file left unwritten; ``predict``, which streams its rows
to stdout itself, ends with 0.

Every command that uses randomness takes --seed; when absent, the
RULEMINE_SEED environment variable is used, then 0.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
from dataclasses import replace
from pathlib import Path

from .errors import ConfigError, RulemineError
from .evaluation import evaluate, mine_greedy_baseline
from .miner import MinerConfig, mine
from .model_io import ModelArtifact, load_model, save_model
from .rules import classify_dataset, render_rule, render_rule_list
from .schema import (
    encode,
    load_schema,
    parse_csv,
    read_chunks,
    read_json,
    save_schema,
    stratified_split,
    write_json,
)
from .synth import generate

EXIT_OK = 0
EXIT_DATA = 1
EXIT_CONFIG = 2
EXIT_NO_RULES = 3


def _resolve_seed(value: int | None) -> int:
    source = "--seed"
    if value is None:
        env = os.environ.get("RULEMINE_SEED")
        if env is None:
            return 0
        source = "RULEMINE_SEED"
        try:
            value = int(env)
        except ValueError:
            raise ConfigError(f"RULEMINE_SEED must be an integer, got {env!r}") from None
    if value < 0:
        raise ConfigError(f"{source} must be a non-negative integer, got {value}")
    return value


def _load_miner_config(path: str | None, seed: int) -> MinerConfig:
    doc = {} if path is None else read_json(path, ConfigError, "config")
    # mine draws the LVQ and swarm seeds from --seed; one set here would go
    # unused, so a seed is refused first, whatever its value
    sections = [doc, doc.get("lvq"), doc.get("pso")] if isinstance(doc, dict) else []
    if any(isinstance(section, dict) and "seed" in section for section in sections):
        raise ConfigError("a config file cannot set 'seed': use --seed or RULEMINE_SEED")
    return replace(MinerConfig.from_dict(doc), seed=seed)


def _report_path(out: str, explicit: str | None) -> Path:
    if explicit is not None:
        return Path(explicit)
    base = out[: -len(".json")] if out.endswith(".json") else out
    return Path(base + ".report.json")


def _refuse_overwrite(inputs: dict, outputs: dict) -> None:
    """Refuse (exit 2) an output that names an input or earlier output, even via a link."""
    named = {flag: path for flag, path in inputs.items() if path is not None}
    for flag, path in outputs.items():
        if path is None:
            continue
        for other, taken in named.items():
            try:
                same = os.path.samefile(path, taken)  # a hard link too
            except OSError:  # one of them is not written yet
                same = os.path.realpath(path) == os.path.realpath(taken)
            if same:
                raise ConfigError(f"{flag} must not name the {other} file")
        named[flag] = path


def cmd_train(args: argparse.Namespace) -> tuple[int, str]:
    report_path = _report_path(args.out, args.report)
    _refuse_overwrite({"--data": args.data, "--schema": args.schema, "--config": args.config},
                      {"--out": args.out, "--report": report_path})
    seed = _resolve_seed(args.seed)
    config = _load_miner_config(args.config, seed)
    schema = load_schema(args.schema)
    raw = parse_csv(args.data, schema)
    data = encode(raw)

    test_data = None
    train_data = data
    # 0 means no hold-out; stratified_split rejects anything else outside (0, 1)
    if args.test_fraction != 0.0:
        train_data, test_data = stratified_split(data, args.test_fraction, seed)

    rule_list, report = mine(train_data, config)
    artifact = ModelArtifact(
        schema=schema,
        numeric_ranges=data.numeric_ranges,
        rule_list=rule_list,
        miner_config=config,
    )
    save_model(artifact, args.out)

    eval_report = None if test_data is None else evaluate(rule_list, test_data)
    try:
        write_json({"mining": report.to_dict(schema),
                    "evaluation": None if eval_report is None else eval_report.to_dict()},
                   report_path)
    except OSError:  # a failed run leaves neither file
        os.remove(args.out)
        raise
    lines = [render_rule_list(rule_list, schema, data.numeric_ranges)]
    if eval_report is not None:
        lines += ["", eval_report.format_table()]
    if not rule_list.rules:
        print("warning: no rules were emitted; model falls back to the default class",
              file=sys.stderr)
        return EXIT_NO_RULES, "\n".join(lines)
    return EXIT_OK, "\n".join(lines)


def _csv_line(fields: list) -> str:
    """One line of CSV output, as ``csv.writer`` renders it."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(fields)
    return buf.getvalue()


def cmd_predict(args: argparse.Namespace) -> tuple[int, str]:
    _refuse_overwrite({"--model": args.model, "--input": args.input}, {"--out": args.out})
    artifact = load_model(args.model)
    schema = artifact.schema
    ranges = artifact.numeric_ranges
    rule_list = artifact.rule_list
    labels = schema.class_labels
    # the output line for each fired value: 0 is the default class, i is rule i
    outcomes = [_csv_line([labels[rule_list.default_class], "default", "-"])] + [
        _csv_line([labels[rule.class_index], i, render_rule(rule, schema, ranges)])
        for i, rule in enumerate(rule_list.rules, start=1)
    ]
    # reads and matches the header now, so a bad one stops before --out opens
    chunks = read_chunks(args.input, schema, labels=False)

    out_fh = open(args.out, "w", encoding="utf-8", newline="") if args.out else sys.stdout
    total = errors = defaults = 0
    try:
        out_fh.write(_csv_line(["prediction", "fired_rule", "rule"]))
        for raw, bad in chunks:
            fired: list[int] = []
            if len(raw):
                fired = classify_dataset(rule_list, encode(raw, ranges_from=ranges))[1].tolist()
            lines = list(map(outcomes.__getitem__, fired))
            for position, exc in bad:
                lines.insert(position, _csv_line(["ERROR", "-", str(exc)]))
            out_fh.write("".join(lines))
            total += len(lines)
            errors += len(bad)
            defaults += fired.count(0)
    finally:
        if args.out:
            out_fh.close()

    if total == 0:
        print("error: input contains no data rows", file=sys.stderr)
        return EXIT_DATA, ""
    scored = total - errors
    print(f"scored {scored} rows, {errors} ERROR, {defaults} default", file=sys.stderr)
    return (EXIT_OK if scored > 0 else EXIT_DATA), ""


def cmd_evaluate(args: argparse.Namespace) -> tuple[int, str]:
    _refuse_overwrite({"--model": args.model, "--data": args.data}, {"--out": args.out})
    artifact = load_model(args.model)
    schema = artifact.schema
    raw = parse_csv(args.data, schema)
    data = encode(raw, ranges_from=artifact.numeric_ranges)
    report = evaluate(artifact.rule_list, data)
    doc = {"model": report.to_dict(), "baseline": None}
    lines = [report.format_table()]

    if args.baseline:
        # fit on 70% and compare on the other 30%: scored on its own training
        # rows, the baseline would look better than it is
        fit_rows, compared_rows = stratified_split(data, 0.3, artifact.miner_config.seed)
        baseline_rules = mine_greedy_baseline(
            fit_rows, min_confidence=artifact.miner_config.min_confidence
        )
        held_out = evaluate(artifact.rule_list, compared_rows)
        baseline_report = evaluate(baseline_rules, compared_rows)
        doc["baseline"] = {
            "fit_rows": len(fit_rows),
            "compared_rows": len(compared_rows),
            "model": held_out.to_dict(),
            "greedy": baseline_report.to_dict(),
        }
        lines += [
            "",
            f"rule count comparison (lower is simpler), on {len(compared_rows)} "
            f"held-out rows; the baseline was fit on the other {len(fit_rows)}:",
            f"{'  miner':<12}{held_out.rule_count:>6}  "
            f"accuracy {held_out.accuracy_percent:6.2f}%",
            f"{'  baseline':<12}{baseline_report.rule_count:>6}  "
            f"accuracy {baseline_report.accuracy_percent:6.2f}%",
        ]

    if args.out:
        write_json(doc, args.out)
    return EXIT_OK, "\n".join(lines)


def cmd_synth(args: argparse.Namespace) -> tuple[int, str]:
    seed = _resolve_seed(args.seed)
    data = generate(args.profile, args.rows, seed)
    csv_path = Path(args.out + ".csv")
    schema_path = Path(args.out + ".schema.json")
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(data.csv_text())
    save_schema(data.schema, schema_path)
    counts = {label: data.classes.count(label) for label in data.schema.class_labels}
    summary = ", ".join(f"{label}: {count}" for label, count in counts.items())
    return EXIT_OK, f"wrote {csv_path} and {schema_path} ({args.rows} rows; {summary})"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rulemine",
        description="Mine ordered classification rules from mixed tabular data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="mine a rule list and save a model")
    train.add_argument("--data", required=True, help="training CSV (header row first)")
    train.add_argument("--schema", required=True, help="attribute schema JSON")
    train.add_argument("--out", required=True, help="model JSON destination")
    train.add_argument("--report", default=None,
                       help="report JSON destination (default: <out>.report.json)")
    train.add_argument("--seed", type=int, default=None)
    train.add_argument("--config", default=None, help="JSON file of config overrides")
    train.add_argument("--test-fraction", type=float, default=0.0,
                       help="hold out this fraction for evaluation (default 0)")
    train.set_defaults(func=cmd_train)

    predict = sub.add_parser("predict", help="score rows with a saved model")
    predict.add_argument("--model", required=True)
    predict.add_argument("--input", required=True,
                         help="CSV of rows to score (class column optional)")
    predict.add_argument("--out", default=None, help="write CSV here instead of stdout")
    predict.set_defaults(func=cmd_predict)

    ev = sub.add_parser("evaluate", help="score a saved model on labeled data")
    ev.add_argument("--model", required=True)
    ev.add_argument("--data", required=True, help="labeled CSV")
    ev.add_argument("--baseline", action="store_true",
                    help="also fit the greedy baseline on 70%% of the data and "
                         "compare it with the model on the other 30%%")
    ev.add_argument("--out", default=None, help="write the JSON report here")
    ev.set_defaults(func=cmd_evaluate)

    synth = sub.add_parser("synth", help="generate a synthetic dataset")
    synth.add_argument("--rows", type=int, required=True)
    synth.add_argument("--seed", type=int, default=None)
    synth.add_argument("--profile", required=True,
                       choices=["separable", "credit3", "fragmented"])
    synth.add_argument("--out", required=True,
                       help="path prefix; writes <out>.csv and <out>.schema.json")
    synth.set_defaults(func=cmd_synth)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    code = EXIT_OK  # until the command returns, as predict's stream may break first
    try:
        code, text = args.func(args)
        if text:
            print(text)
        sys.stdout.flush()  # a closed stdout raises here rather than at exit
        return code
    except BrokenPipeError:  # the reader of stdout is gone, as after `| head`
        # end quietly, with stdout on devnull so that the exit flush cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return code
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (RulemineError, OSError) as exc:  # OSError: an unwritable output path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
