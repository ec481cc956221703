"""The names perfbench/instrument.py wraps still resolve and still fire.

The benchmark wraps pipeline calls by module attribute, so a refactor that
moves one of them breaks the benchmark without breaking the package.  This
is the fast check of that; perfbench/test_smoke.py is the full one.
"""
import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

from diracloud import cli

_spec = importlib.util.spec_from_file_location(
    "instrument", Path(__file__).resolve().parents[1] / "perfbench" / "instrument.py")
instrument = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(instrument)


@pytest.mark.parametrize("trace", [False, True])
def test_every_wrapped_name_resolves(trace):
    for mod_name, attr, _, _ in instrument.Instrument(trace)._targets():
        assert callable(getattr(importlib.import_module(mod_name), attr)), (mod_name, attr)


def test_the_captured_hooks_fire_through_the_cli(tmp_path):
    cfg = cli.RunConfig(Z=118.0, kappa=-2, method="cpg")
    with instrument.Instrument(trace=False) as instr:
        cli.cmd_solve(dataclasses.replace(cfg, n_intervals=60,
                                          output_path=str(tmp_path / "s.csv")))
    assert len(instr.reports) == 1 and len(instr.systems) == 1
    with instrument.Instrument(trace=False) as instr:
        cli.cmd_dump_matrices(dataclasses.replace(cfg, n_intervals=50,
                                                  output_path=str(tmp_path / "m")))
    assert len(instr.reports) == 0 and len(instr.systems) == 1
