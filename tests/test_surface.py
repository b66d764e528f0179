"""The public surface stays in sync with the code: every exported name
resolves, the scripts run against the current API, and the sources parse
as the oldest supported Python."""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import yaml

import scorefusion as sf
from scorefusion.pipeline import build_config

ROOT = Path(__file__).resolve().parent.parent


def test_every_export_resolves():
    missing = [name for name in sf.__all__ if not hasattr(sf, name)]
    assert missing == []


def test_exports_are_the_documented_surface():
    """Every export is named in README or used as `sf.<name>` by the gate
    or a script, and every `sf.<name>` README writes is an export."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    users = [ROOT / "tests" / "test_acceptance.py",
             *sorted((ROOT / "scripts").glob("*.py"))]
    used = {name for path in users
            for name in re.findall(r"\bsf\.(\w+)",
                                   path.read_text(encoding="utf-8"))}
    undocumented = [name for name in sf.__all__
                    if name != "__version__" and name not in used
                    and not re.search(rf"\b{name}\b", readme)]
    assert undocumented == []
    unknown = [name for name in re.findall(r"\bsf\.(\w+)", readme)
               if name not in sf.__all__]
    assert unknown == []


def test_readme_config_example_decodes():
    """README's train config, less the keys the CLI consumes itself, is a
    config build_config accepts."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    [block] = re.findall(r"```yaml\n(.*?)```", readme, flags=re.S)
    doc = yaml.safe_load(block)
    for key in ("train_csv", "model_out", "runs_dir"):
        del doc[key]
    cfg = build_config(doc)
    assert cfg.label_columns == tuple(doc["label_columns"])


def test_run_complementarity_script_smoke():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_complementarity.py"),
         "--rows", "200", "--epochs", "2"],
        capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    for name in ("encoder-only", "llm-only", "fusion"):
        assert f"{name} accuracy:" in result.stdout


def test_demo_cli_script_smoke():
    """The demo drives train, predict, evaluate and compare through
    `python -m scorefusion.cli` with the README's config spellings."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "demo_cli.py")],
        capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    for command in ("train", "predict", "evaluate", "compare"):
        assert f"-m scorefusion.cli {command} " in result.stdout
    assert result.stdout.endswith("demo finished cleanly\n")


def test_cli_import_does_not_load_requests():
    """requests is imported only when an HTTP provider sends a request."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, scorefusion.cli; print('requests' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_cli_import_does_not_load_yaml():
    """yaml is imported only when `train` reads a config, so predict and
    evaluate processes do not pay for it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, scorefusion.cli; print('yaml' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_encoder_does_not_load_numpy_ma():
    """Featurizing and embedding leave numpy.ma unimported; `np.unique`
    imports it lazily, about 10 ms of every CLI train, evaluate and predict
    process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    code = (
        "import sys\n"
        "from scorefusion.encoder import (EncoderConfig, HashedNgramEncoder,"
        " featurize_rows)\n"
        "cfg = EncoderConfig(dim=4, buckets=64)\n"
        "texts = ['hello world', '', 'ab', 'straße 日本', 'hello world']\n"
        "featurize_rows(texts, cfg)\n"
        "HashedNgramEncoder(cfg).encode_batch(texts)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_model_round_trip_does_not_load_numpy_ma(tmp_path):
    """A hashed-encoder fit, save_model, load_model and predict leave
    numpy.ma unimported too."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    code = (
        "import sys\n"
        "import scorefusion as sf\n"
        "data = sf.make_complementary_data(n_rows=60, k=3, seed=1)\n"
        "schema = data.train.schema\n"
        "cfg = sf.AutoFusionConfig(label_columns=schema.labels,"
        " llm_providers=(sf.ProviderConfig(),),"
        " fusion=sf.FusionConfig(epochs=2))\n"
        "provider = sf.MockProvider(data.mock_table, schema)\n"
        "model, _ = sf.fit(data.train, cfg, providers=[provider])\n"
        f"path = {str(tmp_path / 'm.json')!r}\n"
        "sf.save_model(model, path)\n"
        "loaded = sf.load_model(path)\n"
        "sf.predict(loaded, data.eval.texts() + ['unseen words'],"
        " providers=[sf.MockProvider(data.mock_table, schema)])\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_sources_parse_as_python_3_10():
    """pyproject promises Python >= 3.10; catch 3.11-only syntax early."""
    sources = sorted((ROOT / "src" / "scorefusion").glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=(3, 10))


# Tracer targets that name no callable today; the benchmark side retargets
# them (ROADMAP item 1). pipeline no longer imports score_batch: fit and
# predict call llm.score_providers, whose (texts, ..., pcfgs) arguments the
# llm.score_batch layer's counting hook does not read yet.
_UNRESOLVED_TRACER_TARGETS = {
    "scorefusion.cli:dataset_fingerprint",
    "scorefusion.cli:evaluate",
    "scorefusion.cli:run_create",
    "scorefusion.encoder:encode",
    "scorefusion.pipeline:assemble_input",
    "scorefusion.pipeline:score_batch",
}


def test_benchmark_tracer_targets_resolve(monkeypatch):
    """Every module:attribute the benchmark's tracer wraps is a callable its
    owner defines, so renaming or dropping a traced binding fails here
    instead of reading 0 in a per-layer benchmark metric."""
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench import tracing

    unresolved = {target for _, targets, _ in tracing.LAYERS
                  for target in targets if tracing._resolve(target) is None}
    assert unresolved - _UNRESOLVED_TRACER_TARGETS == set()
