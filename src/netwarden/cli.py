"""Command-line entry point wiring the whole pipeline.

Commands: synth, extract, select, train, score, evaluate, sweep.
Every flag can also come from a JSON config file (--config) whose keys
mirror the flag names 1:1; explicit flags win. Errors exit nonzero with
one machine-readable line on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .errors import ConfigInvalid, InputOutputError, NetwardenError
from . import synth as synth_mod
from .detectors import TrainedModel, make_detector
from .evaluation import (
    evaluate,
    format_metric_table,
    tw_sweep,
)
from .features import (
    FeatureMatrix,
    MODES,
    fit_normalizer,
    apply_normalizer,
    read_matrix_csv,
    write_matrix_csv,
)
from .pcap import MAGIC_NS_BE, MAGIC_NS_LE, MAGIC_US_BE, MAGIC_US_LE
from .pipeline import extract_matrix, score_matrix, train_model
from .selection import SelectionConfig, rank_features

TW_CHOICES_HELP = 'seconds, or "default" for timeout-only flow cuts'


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file mirroring the flags")
    p.add_argument("--mode", choices=MODES, help="traffic representation")
    p.add_argument("--tw", help=TW_CHOICES_HELP)
    p.add_argument("--idle-timeout", type=float, dest="idle_timeout")
    p.add_argument("--sigma", type=float, help="RBF bandwidth")
    p.add_argument("--aggregate", choices=("mean", "majority", "borda"))
    p.add_argument("--keep", help="features to keep: count or fraction")
    p.add_argument("--detector", choices=("if", "ee", "lof", "osvm", "ae"))
    p.add_argument("--target-fpr", type=float, dest="target_fpr")
    p.add_argument("--seed", type=int)
    p.add_argument("--budget", type=int, help="random-search trials")
    p.add_argument("--in", dest="in_path", help="input file")
    p.add_argument("--labels", help="label sidecar CSV")
    p.add_argument("--out", help="output path (or prefix)")
    p.add_argument("--model", help="model file path")
    p.add_argument("--scenario", help="scenario JSON for synth")
    p.add_argument("--params", help="JSON dict of detector hyperparameters")
    p.add_argument("--manifest", help="reduced-manifest JSON from select")
    p.add_argument("--flows-out", dest="flows_out",
                   help="extract only: also dump raw FlowRecords as CSV")


_DEFAULTS = {
    "mode": "uni_flow",
    "tw": "default",
    "idle_timeout": 15.0,
    "sigma": 1.0,
    "aggregate": "mean",
    "keep": "0.65",
    "detector": "osvm",
    "target_fpr": 0.02,
    "seed": 0,
    "budget": 0,
}

_CONFIG_KEYS = set(_DEFAULTS) | {"in", "labels", "out", "model", "scenario",
                                 "params", "manifest", "flows_out"}


def _merge(args: argparse.Namespace) -> dict:
    cfg = dict(_DEFAULTS)
    if args.config:
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigInvalid("cannot read config: %s" % e) from None
        unknown = set(file_cfg) - _CONFIG_KEYS
        if unknown:
            raise ConfigInvalid("unknown config keys: %s" % sorted(unknown))
        cfg.update(file_cfg)
    cfg.setdefault("in", None)
    for key in ("labels", "out", "model", "scenario", "params", "manifest",
                "flows_out"):
        cfg.setdefault(key, None)
    for key, value in vars(args).items():
        if key in ("command", "config") or value is None:
            continue
        cfg["in" if key == "in_path" else key] = value
    return cfg


def _parse_tw(value) -> float | None:
    if value in (None, "default"):
        return None
    try:
        tw = float(value)
        if tw > 0:
            return tw
    except ValueError:
        pass
    raise ConfigInvalid("tw must be positive seconds or 'default', got %r"
                        % value)


def _parse_keep(value, m: int):
    """--keep as a feature count, or as a fraction when it has a ".",
    checked against the m columns it selects from."""
    text = str(value)
    try:
        keep = float(text) if "." in text else int(text)
        SelectionConfig(keep=keep).resolve_keep(m)
    except ValueError as e:
        raise ConfigInvalid("keep: %s" % e) from None
    return keep


def _require(cfg: dict, *keys: str) -> None:
    missing = [k for k in keys if not cfg.get(k)]
    if missing:
        raise ConfigInvalid("missing required options: %s"
                            % ", ".join("--" + k for k in missing))


def _scenario_from_dict(d: dict) -> synth_mod.ScenarioSpec:
    spec = synth_mod.ScenarioSpec()
    stage_types = {f.name: f.type for f in dataclasses.fields(spec)}
    for key, value in d.items():
        if key not in stage_types:
            raise ConfigInvalid("unknown scenario key %r" % key)
        if isinstance(value, dict):
            stage = getattr(spec, key)
            for k, v in value.items():
                if not hasattr(stage, k):
                    raise ConfigInvalid("unknown %s key %r" % (key, k))
                setattr(stage, k, v)
        else:
            setattr(spec, key, value)
    return spec


def cmd_synth(cfg: dict) -> int:
    _require(cfg, "out")
    scenario = {}
    if cfg["scenario"]:
        with open(cfg["scenario"]) as fh:
            scenario = json.load(fh)
    spec = _scenario_from_dict(scenario)
    if "seed" not in scenario:
        spec.seed = cfg["seed"]
    summary = synth_mod.generate_corpus(spec, cfg["out"] + ".pcap",
                                        cfg["out"] + ".labels.csv")
    print(json.dumps(summary, sort_keys=True))
    return 0


def cmd_extract(cfg: dict) -> int:
    _require(cfg, "in", "out")
    flow_sink = None
    dumped: list = []
    if cfg["flows_out"] and cfg["mode"] != "packet":
        flow_sink = dumped.append
    X = extract_matrix(cfg["in"], mode=cfg["mode"],
                       tw=_parse_tw(cfg["tw"]),
                       idle_timeout=cfg["idle_timeout"],
                       labels_path=cfg["labels"], flow_sink=flow_sink)
    write_matrix_csv(X, cfg["out"])
    if flow_sink is not None:
        from .flows import write_flow_csv
        from .features import MODE_TO_DIRECTION
        write_flow_csv(dumped, cfg["flows_out"],
                       MODE_TO_DIRECTION[cfg["mode"]])
    line = {"rows": X.n, "features": len(X.names), "mode": X.mode}
    line.update((k, dataclasses.asdict(v)) for k, v in X.accounting.items())
    print(json.dumps(line, sort_keys=True))
    return 0


def cmd_select(cfg: dict) -> int:
    _require(cfg, "in", "out")
    X = read_matrix_csv(cfg["in"])
    if X.labels is not None:
        benign = [i for i, lbl in enumerate(X.labels) if lbl == "Normal"]
        X = FeatureMatrix(values=X.values[benign], names=X.names,
                          mode=X.mode)
    stats = fit_normalizer(X)
    Xn = apply_normalizer(X, stats)
    sel_cfg = SelectionConfig(sigma=cfg["sigma"],
                              aggregation=cfg["aggregate"],
                              keep=_parse_keep(cfg["keep"], len(Xn.names)),
                              seed=cfg["seed"])
    ranked = rank_features(Xn.values, Xn.names, sel_cfg)
    with open(cfg["out"], "w") as fh:
        for row in ranked.csv_rows():
            fh.write(",".join(row) + "\n")
    manifest_path = cfg["out"] + ".manifest.json"
    from .features import manifest_hash
    with open(manifest_path, "w") as fh:
        json.dump({"mode": X.mode, "names": list(ranked.selected),
                   "hash": manifest_hash(X.mode, ranked.selected)},
                  fh, sort_keys=True)
        fh.write("\n")
    print(json.dumps({"ranked": len(ranked.names),
                      "selected": len(ranked.selected),
                      "manifest": manifest_path}, sort_keys=True))
    return 0


def _load_model_and_input(cfg: dict) -> tuple[TrainedModel, FeatureMatrix]:
    """The model, and the input CSV or PCAP (sniffed by magic number)
    extracted in the model's traffic mode."""
    _require(cfg, "in", "model", "out")
    model = TrainedModel.load(cfg["model"])
    path = cfg["in"]
    with open(path, "rb") as fh:
        magic = int.from_bytes(fh.read(4), "big")
    if magic in (MAGIC_US_BE, MAGIC_US_LE, MAGIC_NS_BE, MAGIC_NS_LE):
        return model, extract_matrix(path, mode=model.manifest_mode,
                                     tw=_parse_tw(cfg["tw"]),
                                     idle_timeout=cfg["idle_timeout"],
                                     labels_path=cfg["labels"])
    return model, read_matrix_csv(path)


def cmd_train(cfg: dict) -> int:
    _require(cfg, "in", "out")
    X = read_matrix_csv(cfg["in"])
    params = json.loads(cfg["params"]) if cfg["params"] else None
    try:
        make_detector(cfg["detector"], params)
    except (ValueError, TypeError) as e:
        raise ConfigInvalid("params: %s" % e) from None
    selected = None
    if cfg["manifest"]:
        with open(cfg["manifest"]) as fh:
            selected = tuple(json.load(fh)["names"])
    model = train_model(X, kind=cfg["detector"], params=params,
                        target_fpr=cfg["target_fpr"], seed=cfg["seed"],
                        budget=cfg["budget"], selected_names=selected)
    model.save(cfg["out"])
    print(json.dumps({"kind": model.kind, "threshold": model.threshold,
                      "features": len(model.manifest_names)},
                     sort_keys=True))
    return 0


def cmd_score(cfg: dict) -> int:
    model, X = _load_model_and_input(cfg)
    scores, flags = score_matrix(model, X)
    with open(cfg["out"], "w") as fh:
        fh.write("score,flag\n")
        for s, f in zip(scores, flags):
            fh.write("%r,%d\n" % (float(s), int(f)))
    print(json.dumps({"scored": len(scores),
                      "flagged": int(flags.sum())}, sort_keys=True))
    return 0


def cmd_evaluate(cfg: dict) -> int:
    model, X = _load_model_and_input(cfg)
    report = evaluate(model, X)
    with open(cfg["out"] + ".json", "w") as fh:
        json.dump(report.to_dict(), fh, sort_keys=True, indent=1)
        fh.write("\n")
    with open(cfg["out"] + ".metrics.csv", "w") as fh:
        fh.write("classifier,precision,accuracy,recall,fpr,f1,auc\n")
        fh.write("%s,%s\n" % (model.kind, ",".join(report.metrics_row())))
    with open(cfg["out"] + ".roc.csv", "w") as fh:
        fh.write("fpr,tpr\n")
        for fpr, tpr in report.roc:
            fh.write("%r,%r\n" % (fpr, tpr))
    print(format_metric_table([(model.kind, report)], "Classifier"))
    for cls, rec in sorted(report.per_class_recall.items()):
        print("recall[%s] = %.4f" % (cls, rec))
    return 0


def cmd_sweep(cfg: dict) -> int:
    _require(cfg, "in", "labels", "out")
    tw_list = [_parse_tw(tok.strip()) for tok in str(cfg["tw"]).split(",")]
    params = json.loads(cfg["params"]) if cfg["params"] else None
    mode = cfg["mode"] if cfg["mode"] != "packet" else "uni_flow"
    rows = [("default" if tw is None else tw, rep) for tw, rep in tw_sweep(
        cfg["in"], cfg["labels"], kind=cfg["detector"], tw_list=tw_list,
        mode=mode, idle_timeout=cfg["idle_timeout"],
        target_fpr=cfg["target_fpr"], seed=cfg["seed"], params=params)]
    with open(cfg["out"], "w") as fh:
        fh.write("tw,precision,accuracy,recall,fpr,f1,auc\n")
        for tw, rep in rows:
            fh.write("%s,%s\n" % (tw, ",".join(rep.metrics_row())))
    print(format_metric_table([(tw, rep) for tw, rep in rows], "TW (s)"))
    return 0


_COMMANDS = {
    "synth": cmd_synth,
    "extract": cmd_extract,
    "select": cmd_select,
    "train": cmd_train,
    "score": cmd_score,
    "evaluate": cmd_evaluate,
    "sweep": cmd_sweep,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netwarden",
        description="Model benign IoT traffic and flag botnet activity "
                    "from packet headers only.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("synth", "generate a labeled synthetic corpus"),
        ("extract", "PCAP -> feature matrix CSV"),
        ("select", "rank features on benign data, emit reduced manifest"),
        ("train", "fit a one-class detector on a benign CSV"),
        ("score", "score a CSV or PCAP with a trained model"),
        ("evaluate", "score a labeled CSV/PCAP and report metrics"),
        ("sweep", "time-window sweep: re-extract, re-train, re-evaluate"),
    ):
        _add_common(sub.add_parser(name, help=help_text))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _merge(args)
        return _COMMANDS[args.command](cfg)
    except NetwardenError as e:
        error = e
    except OSError as e:
        error = InputOutputError(str(e))
    except json.JSONDecodeError as e:
        error = ConfigInvalid(str(e))
    print("error: " + error.as_machine_line(), file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
