"""The sweep scripts in scripts/ run end to end and write their CSV tables."""

import importlib.util
import pathlib

import pytest

SCRIPTS = pathlib.Path(__file__).parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("script, tables", [
    ("nucleus_drift_sweep", {"drift.csv": ("eps,max_step_dE", 4)}),
    ("embedding_order_sweep", {"vs_m.csv": ("m,eps_hat,max_error,bound", 6),
                               "vs_eps.csv": ("eps,eps_hat,m_opt,max_error", 4)}),
])
def test_sweep_script_writes_tables(script, tables, tmp_path, monkeypatch):
    module = load(script)
    monkeypatch.setattr(module, "OUT", tmp_path)
    module.main()
    for name, (header, rows) in tables.items():
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == header
        assert len(lines) == rows + 1
