"""The probe-bus gate in tools/check_no_instance_patching.py must gate."""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def load_gate():
    spec = importlib.util.spec_from_file_location(
        "check_no_instance_patching",
        ROOT / "tools" / "check_no_instance_patching.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_src_has_no_instance_method_replacement(capsys):
    assert load_gate().main([str(ROOT / "src")]) == 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("planted", [
    "machine._access = f",
    "node.kernel.fault = f",
    "machine.migration.migrate = f",
    "del self.machine._access",
    "setattr(machine, '_miss', f)",
    "setattr(owner, name, f)",
])
def test_planted_replacement_is_caught(tmp_path, capsys, planted):
    (tmp_path / "planted.py").write_text("def f(*args):\n    return 0\n\n"
                                         + planted + "\n")
    assert load_gate().main([str(tmp_path)]) == 1
    assert "planted.py:4" in capsys.readouterr().out


def test_plain_attributes_and_self_setattr_pass(tmp_path):
    (tmp_path / "fine.py").write_text(
        "machine.network.tracer = None\n"
        "node.pit = None\n"
        "setattr(self, name, 0)\n")
    assert load_gate().main([str(tmp_path)]) == 0


def test_class_level_mutations_are_allowed_by_name():
    gate = load_gate()
    mutations = ROOT / "src" / "repro" / "verify" / "mutations.py"
    assert list(gate.offences(mutations, gate.guarded_methods()))
    assert gate.main([str(mutations)]) == 0
