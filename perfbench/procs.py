"""Child processes that are always waited for, and killed with everything
they started once they end or overrun."""

from __future__ import annotations

import os
import signal
import subprocess


def run(cmd: list[str], timeout: float, env: dict | None = None,
        own_group: bool = True) -> tuple[int, str, str]:
    """Run cmd; returns (exit code, stdout, stderr).  With own_group the
    child leads a new process group, which is killed when it ends, so its
    own children cannot outlive it; without, it stays in the caller's group
    and goes when the caller's group is killed.  Raises
    subprocess.TimeoutExpired once the child is killed on overrun."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=env, start_new_session=own_group)
    try:
        out, err = proc.communicate(timeout=timeout)
    finally:
        if own_group:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        elif proc.poll() is None:
            proc.kill()
        proc.communicate()
    return proc.returncode, out, err
