"""The documented procedures run as written: README.md's offline round trip
and scripts/live_table.sh, each in bash, offline. Their python3 is the
interpreter running the tests, and it imports the ivroute they import."""

import fnmatch
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import ivroute

REPO_ROOT = Path(__file__).resolve().parent.parent


def shell_env(tmp_path) -> dict:
    """The environment with a ``python3`` first on PATH that runs this
    interpreter (a version manager's ``python3`` shim can cost 0.4 s a
    start) and PYTHONPATH the directory that holds the ivroute imported here."""
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    python3 = bin_dir / "python3"
    python3.write_text(f'#!/bin/sh\nexec {shlex.quote(sys.executable)} "$@"\n', encoding="utf-8")
    python3.chmod(0o755)
    return dict(os.environ, PATH=f"{bin_dir}{os.pathsep}{os.environ['PATH']}",
                PYTHONPATH=str(Path(ivroute.__file__).resolve().parents[1]))


def readme_block(lead: str) -> str:
    """The first ```sh block after the README line that starts with ``lead``."""
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    after = readme[readme.index("\n" + lead):]
    start = after.index("\n```sh\n") + len("\n```sh\n")
    return after[start:after.index("\n```\n", start)]


def test_readme_offline_round_trip_runs_as_written(tmp_path):
    (tmp_path / "src").symlink_to(REPO_ROOT / "src")  # the block names the bundled files under src/
    done = subprocess.run(["bash", "-e", "-c", readme_block("Typical offline round trip")], cwd=tmp_path,
                          env=shell_env(tmp_path), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "runs" / "run-c3ca07a72a4f").is_dir()
    assert "accuracy 100.00% over 230 results" in done.stdout


def test_readme_migration_vouches_for_a_run_routed_before_manifests_held_a_digest(tmp_path):
    (tmp_path / "src").symlink_to(REPO_ROOT / "src")
    env = shell_env(tmp_path)

    def bash(script):
        return subprocess.run(["bash", "-e", "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True,
                              timeout=120)

    assert bash(readme_block("Typical offline round trip")).returncode == 0
    manifest_file = tmp_path / "runs" / "run-c3ca07a72a4f" / "manifest.json"
    manifest = json.loads(manifest_file.read_text(encoding="utf-8"))
    digest = manifest.pop("results_sha256")
    manifest_file.write_text(json.dumps({**manifest, "n_results": 230}), encoding="utf-8")  # as routed before
    evaluate = ("python3 -m ivroute.cli eval runs/run-c3ca07a72a4f/results.jsonl"
                " --menu src/ivroute/data/agentnet.menu.json")
    assert "(bad results_sha256)" in bash(evaluate).stderr
    done = bash(readme_block("To score a run routed before"))
    assert done.returncode == 0, done.stderr
    assert json.loads(manifest_file.read_text(encoding="utf-8"))["results_sha256"] == digest
    assert "accuracy 100.00% over 230 results" in bash(evaluate).stdout


# The endpoint's statuses, and the script's exit code and stdout: every cell
# scores 4.35% when each reply is 1-1, right for 1 path in 23.
GRID = """
### Routing accuracy (%): m

| IVR Context | Base Only (N=230) | Augmented (N=920) |
| --- | --- | --- |
| Flattened Paths | 4.35 | 4.35 |
| Descriptive Menu | 4.35 | 4.35 |
"""
# The first cell's one 400, which is not retried, fails one intent within
# route's 1 % error budget: that cell shows the failure, after a score that
# depends on which intent it was.
ONE_FAILED = GRID.replace("| Flattened Paths | 4.35 |", "| Flattened Paths | * (1 failed) |")
LIVE_TABLE = {"every call answered": ({}, 0, GRID), "every call refused": ({"status": 400}, 1, ""),
              "every call but the first answered": ({"statuses": [400]}, 0, ONE_FAILED)}


@pytest.mark.parametrize("kind", LIVE_TABLE)
def test_live_table_prints_the_grid_or_ends_with_the_failed_cells_code(tmp_path, chat_server, kind):
    options, code, grid = LIVE_TABLE[kind]
    server = chat_server(**options)
    out = tmp_path / "live-runs"
    env = shell_env(tmp_path) | {"IVR_ENDPOINT_URL": server.url, "IVR_MODEL": "m", "IVR_LLM_API_KEY": "k",
                                 "IVR_OUT": str(out), "IVR_RPS": "100000", "IVR_MAX_IN_FLIGHT": "8"}
    done = subprocess.run([str(REPO_ROOT / "scripts" / "live_table.sh")], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == code, done.stderr
    assert fnmatch.fnmatchcase(done.stdout, grid), done.stdout
    assert len(list(out.glob("route-*.log"))) == (1 if code else 4)  # no cell is routed after a failed one
