"""The two fast demos run end to end: exit 0 and no traceback. They call
``trajectory_from_tactics`` and ``log_reward`` the way a reader would. The
reward-proportional demo prints the same bytes on every run."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))


@pytest.mark.parametrize("demo", ["demo_environment.py", "demo_reward_model.py"])
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=ENV, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


def test_reward_proportional_demo_prints_the_same_bytes_twice():
    # two runs side by side; a wall-clock time in the output would differ
    demo = [sys.executable, str(ROOT / "demos" / "demo_reward_proportional.py")]
    procs = [subprocess.Popen(demo, env=ENV, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE) for _ in range(2)]
    outs = [proc.communicate(timeout=120) for proc in procs]
    for proc, (_, err) in zip(procs, outs):
        assert proc.returncode == 0, err.decode()
    first, second = (out for out, _ in outs)
    assert b"\ntrained 3000 TB steps\n" in first
    assert first == second
