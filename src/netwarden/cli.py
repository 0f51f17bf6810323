"""Command-line entry point wiring the whole pipeline.

Commands: synth, extract, select, train, score, evaluate, sweep.
Every flag can also come from a JSON config file (--config) whose keys
mirror the flag names 1:1; explicit flags win. Errors exit nonzero with
one machine-readable line on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys

from . import synth as synth_mod
from .detectors import KIND, TARGET_FPR, TrainedModel, make_detector
from .errors import (ConfigInvalid, InputOutputError, ManifestMismatch,
                     NetwardenError)
from .evaluation import (LABEL_NORMAL, evaluate, format_metric_table,
                         tw_sweep)
from .features import (MODE_PACKET, MODES, FeatureMatrix, apply_normalizer,
                       fit_normalizer, manifest_hash, read_matrix_csv,
                       write_matrix_csv)
from .flows import MeterConfig, write_flow_csv
from .pcap import MAGIC_NS_BE, MAGIC_NS_LE, MAGIC_US_BE, MAGIC_US_LE
from .pipeline import (extract_matrix, extract_with_flows, score_matrix,
                       train_model)
from .selection import SelectionConfig, rank_features
from .settings import SEED, Setting, settings_of

_SETTINGS = {  # the keys with a default, each checked in _merge
    "mode": Setting(None, "uni_flow", choices=MODES),
    "tw": settings_of(MeterConfig)["tw_seconds"],
    "idle_timeout": settings_of(MeterConfig)["idle_timeout"],
    "sigma": settings_of(SelectionConfig)["sigma"],
    "aggregate": settings_of(SelectionConfig)["aggregation"],
    "keep": settings_of(SelectionConfig)["keep"],
    "detector": KIND,
    "target_fpr": TARGET_FPR,
    "seed": SEED,
}
_PATHS = {"in": "input file", "labels": "label sidecar CSV",
          "out": "output path (or prefix)", "model": "model file path",
          "scenario": "scenario JSON for synth",
          "manifest": "reduced-manifest JSON from select",
          "flows_out": "extract, flow modes: dump raw FlowRecords as CSV"}
_CONFIG_KEYS = set(_SETTINGS) | set(_PATHS) | {"params"}
_TEXT_HELP = {  # settings whose flags take text, parsed in _merge
    "tw": 'seconds, or "default" (timeout-only cuts); sweep: a list a,b,c',
    "keep": 'features to keep: a count, or a fraction written with a "."'}


@contextlib.contextmanager
def _text_input(path: str | None):
    """Report a text input that is not UTF-8 as io_error naming it."""
    try:
        yield
    except UnicodeDecodeError as e:
        raise InputOutputError("%s is not UTF-8 text: %s" % (path, e)) \
            from None


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file mirroring the flags")
    p.add_argument("--params", help="JSON dict of detector hyperparameters")
    for key, setting in _SETTINGS.items():
        p.add_argument("--" + key.replace("_", "-"), dest=key,
                       type=None if key in _TEXT_HELP else setting.numeric,
                       help=_TEXT_HELP.get(key, setting.describe()))
    for key, help_text in _PATHS.items():
        p.add_argument("--" + key.replace("_", "-"), dest=key, help=help_text)


def _merge(args: argparse.Namespace) -> dict:
    """The settings of a run, from the defaults, then the config file,
    then the flags; ConfigInvalid unless each is accepted."""
    cfg = dict.fromkeys(_CONFIG_KEYS)
    cfg.update((key, s.default) for key, s in _SETTINGS.items())
    if args.config:
        try:
            with open(args.config) as fh, _text_input(args.config):
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigInvalid("cannot read config: %s" % e) from None
        if not isinstance(file_cfg, dict):
            raise ConfigInvalid("config must be a JSON object")
        unknown = set(file_cfg) - _CONFIG_KEYS
        if unknown:
            raise ConfigInvalid("unknown config keys: %s" % sorted(unknown))
        cfg.update(file_cfg)
    cfg.update((key, value) for key, value in vars(args).items()
               if key not in ("command", "config") and value is not None)
    try:
        for key in (*_PATHS, "params"):
            if not isinstance(cfg[key], (str, type(None))):
                raise ValueError("%s must be a string, got %r"
                                 % (key, cfg[key]))
        for key, setting in _SETTINGS.items():
            if key not in ("tw", "keep"):
                cfg[key] = setting.check(key, cfg[key])
        cfg["tw"] = _parse_tw(cfg["tw"], many=args.command == "sweep")
        keep = str(cfg["keep"])  # a fraction when it has a ".", or a count
        try:
            keep = float(keep) if "." in keep else int(keep)
        except ValueError:
            pass  # refused below, with keep's name
        if type(keep) is int and keep < 1:  # too few for any column count
            raise ValueError("keep must count at least 1 feature, got %r"
                             % keep)
        cfg["keep"] = (keep if type(keep) is int
                       else _SETTINGS["keep"].check("keep", keep))
        cfg["params"] = json.loads(cfg["params"] or "null")
        if cfg["params"] is not None:
            make_detector(cfg["detector"], cfg["params"])
    except (ValueError, TypeError) as e:  # JSONDecodeError is a ValueError
        raise ConfigInvalid(str(e)) from None
    return cfg


def _parse_tw(value, many: bool) -> list:
    """The time windows a tw value names, comma-separated in text if many:
    "default" (None, timeout-only flow cuts) or seconds."""
    tws = []
    for tw in value.split(",") if many and isinstance(value, str) else [value]:
        try:
            if isinstance(tw, str):
                tw = None if tw.strip() == "default" else float(tw)
            tws.append(_SETTINGS["tw"].check("tw", tw))
        except ValueError:
            raise ValueError('tw must be "default" or %s, got %r'
                             % (_SETTINGS["tw"].describe(), tw)) from None
    return tws


def _require(cfg: dict, *keys: str) -> None:
    missing = [k for k in keys if not cfg.get(k)]
    if missing:
        raise ConfigInvalid("missing required options: %s"
                            % ", ".join("--" + k for k in missing))


def _scenario_from_dict(d: dict, spec=None,
                        where: str = "scenario") -> synth_mod.ScenarioSpec:
    """The scenario a JSON object sets, each stage from an object of its
    own; validate() checks the values."""
    spec = synth_mod.ScenarioSpec() if spec is None else spec
    if not isinstance(d, dict):
        raise ConfigInvalid("%s must be a JSON object, got %r" % (where, d))
    for key, value in d.items():
        if key not in {f.name for f in dataclasses.fields(spec)}:
            raise ConfigInvalid("unknown %s key %r" % (where, key))
        if dataclasses.is_dataclass(getattr(spec, key)):
            _scenario_from_dict(value, getattr(spec, key), key)
        else:
            setattr(spec, key, value)
    return spec


def cmd_synth(cfg: dict) -> int:
    _require(cfg, "out")
    scenario = {}
    if cfg["scenario"]:
        with open(cfg["scenario"]) as fh, _text_input(cfg["scenario"]):
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
    if cfg["flows_out"] and cfg["mode"] == MODE_PACKET:
        raise ConfigInvalid("flows_out dumps metered flows: mode must be "
                            "uni_flow or bi_flow")
    with _text_input(cfg["labels"]):
        X, flows = extract_with_flows(cfg["in"], cfg["mode"], cfg["tw"][0],
                                      cfg["idle_timeout"], cfg["labels"])
    write_matrix_csv(X, cfg["out"])
    if cfg["flows_out"]:  # the dump only once the matrix is written
        write_flow_csv(flows, cfg["flows_out"])
    line = {"rows": X.n, "features": len(X.names), "mode": X.mode}
    if X.labels is not None:  # labelled rows = matched + unmatched
        line["unmatched_labels"] = X.unmatched_labels
    line.update((k, dataclasses.asdict(v)) for k, v in X.accounting.items())
    print(json.dumps(line, sort_keys=True))
    return 0


def cmd_select(cfg: dict) -> int:
    _require(cfg, "in", "out")
    X = _read_matrix(cfg)
    if X.labels is not None:
        benign = [i for i, lbl in enumerate(X.labels) if lbl == LABEL_NORMAL]
        X = FeatureMatrix(values=X.values[benign], names=X.names,
                          mode=X.mode)
    stats = fit_normalizer(X)
    Xn = apply_normalizer(X, stats)
    sel_cfg = SelectionConfig(sigma=cfg["sigma"],
                              aggregation=cfg["aggregate"],
                              keep=cfg["keep"], seed=cfg["seed"])
    try:  # keep is at most the column count
        sel_cfg.resolve_keep(len(Xn.names))
    except ValueError as e:
        raise ConfigInvalid("keep: %s" % e) from None
    ranked = rank_features(Xn.values, Xn.names, sel_cfg)
    with open(cfg["out"], "w") as fh:
        for row in ranked.csv_rows():
            fh.write(",".join(row) + "\n")
    manifest_path = cfg["out"] + ".manifest.json"
    with open(manifest_path, "w") as fh:
        json.dump({"mode": X.mode, "names": list(ranked.selected),
                   "hash": manifest_hash(X.mode, ranked.selected)},
                  fh, sort_keys=True)
        fh.write("\n")
    print(json.dumps({"ranked": len(ranked.names),
                      "selected": len(ranked.selected),
                      "manifest": manifest_path}, sort_keys=True))
    return 0


def _read_matrix(cfg: dict, mode: str | None = None) -> FeatureMatrix:
    """The input matrix CSV; or, given a traffic mode, a PCAP (sniffed by
    magic number) extracted in it. Without a mode a PCAP is refused."""
    path = cfg["in"]
    with open(path, "rb") as fh:
        magic = int.from_bytes(fh.read(4), "big")
    if magic not in (MAGIC_US_BE, MAGIC_US_LE, MAGIC_NS_BE, MAGIC_NS_LE):
        with _text_input(path):
            return read_matrix_csv(path)
    if mode is None:
        raise ConfigInvalid("%s is a PCAP capture; this command reads a "
                            "matrix CSV written by extract" % path)
    with _text_input(cfg["labels"]):
        return extract_matrix(path, mode=mode, tw=cfg["tw"][0],
                              idle_timeout=cfg["idle_timeout"],
                              labels_path=cfg["labels"])


def _load_model_and_input(cfg: dict) -> tuple[TrainedModel, FeatureMatrix]:
    _require(cfg, "in", "model", "out")
    with _text_input(cfg["model"]):
        model = TrainedModel.load(cfg["model"])
    return model, _read_matrix(cfg, model.manifest_mode)


def cmd_train(cfg: dict) -> int:
    _require(cfg, "in", "out")
    X = _read_matrix(cfg)
    if X.mode not in MODES:
        # such a model could read no capture; refuse it before training
        raise ManifestMismatch(
            "%s has traffic mode %r: train reads a matrix CSV whose "
            "'# netwarden manifest=' line names one of %s, as extract "
            "writes it" % (cfg["in"], X.mode, ", ".join(MODES)))
    selected = None
    if cfg["manifest"]:
        with open(cfg["manifest"]) as fh, _text_input(cfg["manifest"]):
            manifest = json.load(fh)
        names = manifest.get("names") if isinstance(manifest, dict) else None
        if not (isinstance(names, list)
                and all(isinstance(n, str) for n in names)):
            raise ConfigInvalid("manifest has no names list of strings")
        selected = tuple(names)
    model = train_model(X, kind=cfg["detector"], params=cfg["params"],
                        target_fpr=cfg["target_fpr"], seed=cfg["seed"],
                        selected_names=selected)
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
    if cfg["mode"] == "packet":
        raise ConfigInvalid("sweep meters flows: mode must be uni_flow or "
                            "bi_flow")
    with _text_input(cfg["labels"]):
        rows = [("default" if tw is None else tw, rep)
                for tw, rep in tw_sweep(
                    cfg["in"], cfg["labels"], kind=cfg["detector"],
                    tw_list=cfg["tw"], mode=cfg["mode"],
                    idle_timeout=cfg["idle_timeout"],
                    target_fpr=cfg["target_fpr"], seed=cfg["seed"],
                    params=cfg["params"])]
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one JSON line on stderr, as for any error
        raise ConfigInvalid("%s: %s" % (self.prog, message))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    try:
        args = build_parser().parse_args(argv)
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
