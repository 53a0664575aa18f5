"""Which outputs stay equal when the BLAS kernel or numpy's SIMD targets
change (README, "Which outputs are exact, and where").

Each variant runs this module as a script in a child process, with the
variable set for that process only: the child trains a smoke-size model on
P2, labels its test split, and runs ``metasel benchmark`` on a bundled CSV.
The masks, labels and every report file, ``trace.csv``'s fitness values at
``%.10g`` included, must be byte-equal to the default run's, and the default
run's must equal the sha256 lines of ``golden_outputs.txt``. The float bits
of supports, meta-features and selectors are per host and are not compared.
The child also lists the modules it loaded, so the default run shows that
none of it loads numpy.ma.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden_outputs.txt")


def avx512_targets():
    """numpy's AVX-512 dispatch targets this process may use."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:                   # numpy before 2.0
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return [t for t in __cpu_dispatch__
            if ("AVX512" in t or t == "X86_V4") and __cpu_features__.get(t)]


def openblas_core():
    """The core type the loaded OpenBLAS reports at run time, or "unknown"."""
    sys.path.insert(0, str(ROOT / "tools"))
    from output_digest import openblas_runtime
    return openblas_runtime()[0]


def run_child(out: Path):
    """Train, label and benchmark at smoke size, writing every output
    under ``out`` with ``env.json`` naming the core and SIMD targets."""
    sys.path.insert(0, str(ROOT / "src"))
    from metasel import cli, data, engine, experiment
    from metasel.bpso import BpsoConfig
    from metasel.datasets import dataset_path

    (out / "env.json").write_text(json.dumps({"core": openblas_core(),
                                              "avx512": avx512_targets()}))
    train, meta, dsel, test = (data.generate_p2(n, [4, stage])
                               for stage, n in enumerate((80, 80, 80, 150), start=1))
    config = experiment.ExperimentConfig(
        pool=experiment.PoolConfig(size=6),
        bpso=BpsoConfig(runs=1, swarm_size=6, max_generations=3, stall_limit=3))
    model, _, _ = experiment.train_des(train, meta, dsel, config, base_seed_parts=(4,))
    labels, _ = engine.classify_batch(model, test.features)
    np.savetxt(out / "mask.txt", model.mask, fmt="%d")
    np.savetxt(out / "labels.txt", labels, fmt="%d")
    bench = {"seed": 2, "replications": 2, "pool": {"size": 4},
             "bpso": {"runs": 1, "swarm_size": 4, "max_generations": 3, "stall_limit": 3},
             "source": {"kind": "csv", "path": str(dataset_path("xor_blobs")),
                        "label_column": -1}}
    (out / "bench.json").write_text(json.dumps(bench))
    code = cli.main(["benchmark", "--config", str(out / "bench.json"),
                     "--out-dir", str(out / "report")])
    if code != 0:
        raise SystemExit(code)
    (out / "modules.txt").write_text("\n".join(sorted(sys.modules)))


def output_digests(out: Path):
    """``sha256sum`` lines of the portable outputs ``run_child`` wrote under
    ``out``: the mask, the labels and every report file."""
    names = ["mask.txt", "labels.txt",
             *sorted(f"report/{p.name}" for p in (out / "report").iterdir())]
    return [f"{hashlib.sha256((out / name).read_bytes()).hexdigest()}  {name}"
            for name in names]


def run_variant(tmp_path, name, variables):
    out = tmp_path / name
    out.mkdir()
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    env.update(variables)
    proc = subprocess.run([sys.executable, __file__, str(out)], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return out, json.loads((out / "env.json").read_text())


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    return run_variant(tmp_path_factory.mktemp("host"), "default", {})


@pytest.mark.parametrize("variant", ["openblas_sandybridge", "no_avx512"])
def test_masks_labels_and_reports_equal_the_default_run(tmp_path, default_run, variant):
    base, base_env = default_run
    if variant == "openblas_sandybridge":
        # takes effect only in an OpenBLAS built with DYNAMIC_ARCH, on a
        # host whose own core is another one
        if base_env["core"] in ("unknown", "Sandybridge"):
            pytest.skip(f"OpenBLAS core reads {base_env['core']}")
        variables = {"OPENBLAS_CORETYPE": "Sandybridge"}
    else:
        if not base_env["avx512"]:
            pytest.skip("numpy has no AVX-512 target on this CPU")
        variables = {"NPY_DISABLE_CPU_FEATURES": " ".join(base_env["avx512"])}
    out, env = run_variant(tmp_path, variant, variables)
    if variant == "openblas_sandybridge":
        if env["core"] != "Sandybridge":
            pytest.skip(f"OPENBLAS_CORETYPE had no effect (core {env['core']})")
    else:
        assert env["avx512"] == []
    for name in ("mask.txt", "labels.txt"):
        assert (out / name).read_bytes() == (base / name).read_bytes(), name
    reports = sorted(p.name for p in (base / "report").iterdir())
    assert sorted(p.name for p in (out / "report").iterdir()) == reports
    assert {"accuracy.csv", "masks.csv", "summary.csv", "trace.csv"} <= set(reports)
    for name in reports:
        got, want = out / "report" / name, base / "report" / name
        assert got.read_bytes() == want.read_bytes(), name


def test_no_run_loads_numpy_ma(default_run):
    """Training, labelling and the benchmark never load numpy.ma, ~1.2 MB
    of resident memory. numpy's ``unique`` loads it through its
    masked-array check, as ``median`` and ``percentile`` do."""
    assert "numpy.ma" not in (default_run[0] / "modules.txt").read_text().split()


def test_default_run_equals_the_golden_outputs(default_run):
    """The default run's mask, labels and report files are those of
    ``golden_outputs.txt``. A change that moves one on purpose rewrites the
    file with ``python tests/test_host_independence.py --golden`` (or from a
    run directory, ``sha256sum mask.txt labels.txt report/*``) and names
    each moved line in CHANGES.md."""
    got, want = output_digests(default_run[0]), GOLDEN.read_text().splitlines()
    differ = [f"- {line}" for line in want if line not in got] + [
        f"+ {line}" for line in got if line not in want]
    assert not differ, "lines that differ from golden_outputs.txt:\n" + "\n".join(differ)


if __name__ == "__main__":
    if sys.argv[1:] == ["--golden"]:
        with tempfile.TemporaryDirectory() as tmp:
            run_child(Path(tmp))
            GOLDEN.write_text("\n".join(output_digests(Path(tmp))) + "\n")
    else:
        run_child(Path(sys.argv[1]))
