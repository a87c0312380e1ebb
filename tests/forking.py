"""Helpers for the tests of the commands that fork a worker per CPU."""

import os

import pytest


def affinity(monkeypatch, cpus):
    """Make verify and the search see cpus CPUs, whatever the machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
