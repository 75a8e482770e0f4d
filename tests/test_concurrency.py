"""Determinism across reruns and witness re-evaluation."""

import subprocess
import sys

import pytest

from chcon.channels import amplitude_damping, dephasing
from chcon.contraction import eta_chi_lower, eta_tr
from chcon.divergences import chi2_divergence

RUN = [sys.executable, "-m", "chcon.cli"]


def test_analyze_reruns_print_identical_stdout():
    # Every restart derives its stream from (seed, restart index), so two
    # runs with the same arguments print the same bytes.
    spec = '{"preset": "amplitude_damping", "gamma": 0.35}'
    import tempfile

    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        fh.write(spec)
        path = fh.name
    args = RUN + ["analyze", path, "--restarts", "8", "--seed", "21"]
    a = subprocess.run(args, capture_output=True, text=True)
    b = subprocess.run(args, capture_output=True, text=True)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_eta_chi_witness_reproduces_value():
    ch = dephasing(0.4)
    rep = eta_chi_lower(ch, trials=60, seed=5)
    w = rep.witness
    ratio = chi2_divergence(ch.apply(w.rho), ch.apply(w.sigma)) / chi2_divergence(w.rho, w.sigma)
    assert ratio == pytest.approx(rep.value, abs=1e-6)


def test_eta_tr_witness_reproduces_value_multistart():
    from chcon.channels import tensor
    from conftest import evaluate_pair

    ch = tensor(amplitude_damping(0.2), dephasing(0.3))
    rep = eta_tr(ch, restarts=6, seed=7)
    assert evaluate_pair(ch, rep.witness) == pytest.approx(rep.value, abs=1e-6)
