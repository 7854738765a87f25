"""Smoke test: every script under scripts/ runs to the end."""

import os
import subprocess
import sys
from pathlib import Path

import filtered_spectra

ROOT = Path(__file__).resolve().parents[1]
SMALL = {"model_comparison.py": ["--N-filtered", "60", "--N-colored", "6",
                                 "--trials", "2"]}


def test_scripts_run():
    # the scripts start side by side: each spends most of its time
    # importing, numpy in both and scipy's LAPACK in model_comparison.py,
    # the one that samples and eigensolves
    src = os.path.dirname(os.path.dirname(filtered_spectra.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    scripts = sorted((ROOT / "scripts").glob("*.py"))
    assert scripts
    runs = {path.name: subprocess.Popen(
                [sys.executable, str(path)] + SMALL.get(path.name, []),
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True)
            for path in scripts}
    for name, proc in runs.items():
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, f"{name} failed:\n{err}"
        assert out.strip(), f"{name} printed nothing"
