"""Resource limits: defaults and validation of the CYCLODIFF_LIMITS override."""

import dataclasses

import pytest

from cyclodiff.cli import run
from cyclodiff.config import Limits, reload_limits
from cyclodiff.errors import CyclodiffError


@pytest.fixture
def limits_env(monkeypatch):
    def load(raw):
        monkeypatch.setenv("CYCLODIFF_LIMITS", raw)
        return reload_limits()
    yield load
    monkeypatch.delenv("CYCLODIFF_LIMITS", raising=False)
    reload_limits()


def test_one_ring_bound():
    names = [f.name for f in dataclasses.fields(Limits)]
    assert len(names) == 8
    assert Limits().cyclotomic_n_max == 2048


def test_valid_overrides(limits_env):
    got = limits_env('{"gb_max_spairs": 500000, "gb_timeout": 60}')
    assert (got.gb_max_spairs, got.gb_timeout) == (500000, 60)
    assert limits_env('{"gb_timeout": 2.5}').gb_timeout == 2.5


@pytest.mark.parametrize("raw", [
    '{"gb_max_spairs": true}',          # a bool is not a budget of 1
    '{"gb_timeout": false}',
    '{"field_q_max": 1.5}',             # integer limits take integers only
    '{"cyclotomic_n_max": 2048.0}',
    '{"field_q_max": "4096"}',
    '{"field_q_max": 0}',
    '{"gb_timeout": -1}',
    '{"gb_timeout": NaN}',
    '{"gb_timeout": Infinity}',
    '{"reduction_n_max": 4096}',        # merged into cyclotomic_n_max
    '{"jacobi_direct_m_max": 8}',       # removed with the literal row sum
    '[1, 2]',
    '{oops',
])
def test_rejected_overrides(limits_env, raw):
    with pytest.raises(CyclodiffError):
        limits_env(raw)


def test_cli_limits_are_validated(capsys):
    assert run(["gb", "probe-zero", "--m", "4", "--theta", "1",
                "--limits", '{"gb_max_spairs": true}']) == 1
    assert "gb_max_spairs" in capsys.readouterr().err
