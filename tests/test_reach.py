"""`src/duoformer` holds only what the program runs.

A toy-size driver runs the program in-process under `sys.setprofile`: every
CLI subcommand through `cli.main`, then one epoch of each `ablate` suite
config, and of one f64 config, through the body an `ablate` worker runs. A
public function or method the driver never calls is code only tests reach;
it belongs with the tests. An allowlisted name the driver does call needs no
entry. Public means no leading underscore, or a dunder.
"""

import importlib
import inspect
import pkgutil
import sys
from dataclasses import replace

import numpy as np

import duoformer
from duoformer import ablate, cli
from duoformer.data import load_dataset
from duoformer.serialize import save_tensor

SRC = duoformer.__path__[0]

# Public names the driver may not call, each with why it stays in src/.
COMPOSED = ("kept as the composed form of a fused op: the fused-op tests compare "
            "against it, and perfbench/tracing.py binds it by name")
ACCEPTANCE = "imported by tests/test_acceptance.py"
ALLOWED_UNCALLED = {
    "tensor.neg": COMPOSED,
    "tensor.mul": COMPOSED,
    "tensor.scale": COMPOSED,
    "tensor.tensor_sum": COMPOSED,
    "tensor.relu": COMPOSED,
    "tensor.gelu": COMPOSED,
    "tensor.softmax": COMPOSED,
    "conv.conv2d": COMPOSED,
    "conv.batch_norm": COMPOSED,
    "serialize.tensor_to_bytes": ACCEPTANCE,
    "serialize.tensor_from_bytes": ACCEPTANCE,
    "tokenizer.patch_index_map": ACCEPTANCE,
    "trainer.RunRecord.comparable": ACCEPTANCE,
}

TOY_CFG = """\
input_size = 32
patch_count = 4
embed_dim = 8
heads = 2
layers = 1
stages = 0, 1, 2
channels = 4, 8, 16, 32
num_classes = 4
batch_size = 8
max_epochs = 1
patience = 1
"""


def _public(name: str) -> bool:
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


def _code(fn):
    """The code object of a function written in the package, else None."""
    code = getattr(inspect.unwrap(fn), "__code__", None)
    return code if code is not None and code.co_filename.startswith(SRC) else None


def public_functions() -> "dict[str, object]":
    """Dotted name (module[.Class].name, package prefix dropped) -> code object."""
    out = {}
    for mod_info in pkgutil.iter_modules(duoformer.__path__):
        mod = importlib.import_module(f"duoformer.{mod_info.name}")
        for name, obj in vars(mod).items():
            if not _public(name) or getattr(obj, "__module__", None) != mod.__name__:
                continue
            members = {name: obj}
            if inspect.isclass(obj):
                members = {}
                for attr, value in vars(obj).items():
                    if not _public(attr):
                        continue
                    if isinstance(value, (staticmethod, classmethod)):
                        value = value.__func__
                    if isinstance(value, property):
                        members.update({f"{name}.{attr}.{part}": getattr(value, part)
                                        for part in ("fget", "fset") if getattr(value, part)})
                    else:
                        members[f"{name}.{attr}"] = value
            for qual, fn in members.items():
                code = _code(fn)
                if code is not None:
                    out[f"{mod_info.name}.{qual}"] = code
    return out


def _drive(tmp, monkeypatch):
    """Run every subcommand and every suite config at toy size."""
    cfg, d32, d64 = str(tmp / "toy.cfg"), str(tmp / "d32"), str(tmp / "d64")
    (tmp / "toy.cfg").write_text(TOY_CFG)
    img = str(tmp / "img.dft")
    save_tensor(img, np.random.default_rng(0).random((32, 32, 3)).astype(np.float32))
    pyr, run = str(tmp / "pyr.dfc"), tmp / "run"
    for argv in (["gen-synthetic", "--out", d32, "--samples", "16", "--size", "32"],
                 ["gen-synthetic", "--out", d64, "--samples", "24"],
                 ["tokenize", "--config", cfg, "--image", img, "--out", str(tmp / "t.dft")],
                 ["export-pyramid", "--config", cfg, "--data", d32, "--out", pyr],
                 ["tokenize", "--config", cfg, "--pyramid", pyr, "--out", str(tmp / "p.dft")],
                 ["train", "--config", cfg, "--data", d32, "--out", str(run)],
                 ["train", "--config", cfg, "--data", d32, "--out", str(tmp / "rp"),
                  "--pyramid", pyr],
                 ["eval", "--checkpoint", str(run / "best.dfc"), "--data", d32],
                 ["gradcheck", "--config", cfg, "--samples", "1"],
                 ["ablate", "--suite", "attention", "--data", d64, "--out", str(tmp / "ab"),
                  "--max-epochs", "1", "--patience", "1", "--batch-size", "8"]):
        assert cli.main(argv) == 0, argv

    images, labels = load_dataset(d64)
    monkeypatch.setattr(ablate, "_DATA", (images, labels))  # what a pool worker holds
    train_cfg = replace(ablate.SUITE_TRAIN, batch_size=8, max_epochs=1, patience=1)
    jobs = [(config_id, model_cfg) for suite in ablate.SUITE_NAMES
            for config_id, model_cfg in ablate.suite_grid(suite, 64, 4)]
    jobs.append(("f64", replace(jobs[0][1], dtype="f64")))
    for config_id, model_cfg in jobs:
        ablate._single_run((config_id, model_cfg, train_cfg))


def test_src_holds_only_what_the_program_calls(tmp_path, monkeypatch):
    public = public_functions()
    assert set(ALLOWED_UNCALLED) <= set(public), "stale allowlist entry"
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        _drive(tmp_path, monkeypatch)
    finally:
        sys.setprofile(None)

    uncalled = {name for name, code in public.items() if code not in called}
    assert sorted(uncalled - set(ALLOWED_UNCALLED)) == [], "only tests call these"
    assert sorted(set(ALLOWED_UNCALLED) - uncalled) == [], "called, so not allowlisted"
