from dataclasses import fields

import pytest
from mpmath import mp

from hyhe.config import (ConfigError, RunConfig, load_config, parse_config_text,
                         with_overrides, DEFAULT_SWEEP)
from hyhe.constants import ConstantsError, PhysicalConstants, default_constants
from hyhe.report import run_tables


@pytest.fixture(scope="module")
def one_term_report():
    return run_tables(n_list=[1])


def test_default_constants_validate():
    c = default_constants()
    assert c.Z == 2
    assert float(c.alpha) == pytest.approx(7.2973525693e-3)
    assert float(c.mass_ratio_M) == pytest.approx(7294.299508)


def test_report_header_echoes_every_constant(one_term_report):
    # the header is the dataclass itself, so a new constant cannot drop out
    echo = one_term_report.constants
    assert echo["Z"] == 2
    assert echo["alpha"] == "7.2973525693e-3"
    assert echo == {f.name: getattr(default_constants(), f.name)
                    for f in fields(PhysicalConstants)}


@pytest.mark.parametrize("kwargs", [
    {"Z": 0}, {"Z": -1}, {"Z": 2.0},
    {"alpha": "0"}, {"alpha": "0.02"}, {"alpha": "-1e-3"},
    {"mass_ratio_M": "999"},
])
def test_constants_invariants_rejected(kwargs):
    with pytest.raises(ConstantsError):
        PhysicalConstants(**kwargs).validate()


@pytest.mark.parametrize("name, raw", [
    ("bethe_beta", "nan"), ("E_exp", "nan"), ("E_exp", "-inf"),
    ("alpha", "abc"), ("mass_ratio_M", None), ("euler_gamma", "abc"),
])
def test_constants_reject_unparsed_or_nonfinite(name, raw):
    with pytest.raises(ConstantsError, match=name):
        PhysicalConstants(**{name: raw}).validate()


def test_gamma_auto_tracks_working_precision():
    c = default_constants()
    with mp.workdps(40):
        g = c.gamma_mp()
        assert abs(g - mp.euler) == 0
        # far more digits than the 4-digit literature value
        assert abs(g - mp.mpf("0.5772")) < 1e-4
        assert abs(g - mp.mpf("0.5772156649015328606065120900824024310421593359")) < mp.mpf("1e-38")


def test_explicit_gamma_string():
    c = PhysicalConstants(euler_gamma="0.5772")
    assert c.gamma_mp() == mp.mpf("0.5772")


def test_runconfig_defaults(one_term_report):
    cfg = RunConfig().validate()
    assert one_term_report.config == {"precision_digits": 50,
                                      "output": "human"}
    assert one_term_report.config == {f.name: getattr(cfg, f.name)
                                      for f in fields(RunConfig)}
    assert DEFAULT_SWEEP == (20, 30, 40, 50)


def test_load_config_none_gives_defaults():
    assert load_config(None) == RunConfig()


def test_load_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config({"output": "json", "outputs": "csv"})


@pytest.mark.parametrize("key", ["n_basis", "quadrature_target", "k_init",
                                 "k_tol", "max_outer_iters"])
def test_load_config_rejects_removed_keys(key):
    # the basis size comes from the verb, nothing reads a quadrature target,
    # and the k-search has no settings, so a document that still sets any
    # of them is refused by name
    with pytest.raises(ConfigError, match=f"unknown config key.*{key}"):
        load_config({key: "20"})
    with pytest.raises(ConfigError, match=f"unknown config key.*{key}"):
        load_config(f"precision_digits = 40\n{key} = 20\n")


@pytest.mark.parametrize("doc", [{"output": "xml"},
                                 {"precision_digits": "10"}])
def test_load_config_rejects_out_of_range(doc):
    with pytest.raises(ConfigError):
        load_config(doc)


def test_parse_config_text_comments_and_errors():
    doc = parse_config_text(
        "# header\nprecision_digits = 30  # inline\n\noutput = json\n")
    assert doc == {"precision_digits": "30", "output": "json"}
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("precision_digits = 30\nnot a pair\n")


def test_load_config_from_text_and_path(tmp_path):
    cfg = load_config("output = csv\nprecision_digits = 35\n")
    assert (cfg.output, cfg.precision_digits) == ("csv", 35)
    p = tmp_path / "run.cfg"
    p.write_text("precision_digits = 42\n")
    assert load_config(p).precision_digits == 42
    assert load_config(str(p)).precision_digits == 42


def test_load_config_missing_file(tmp_path):
    # a path that cannot be read is named; a str is config text unless a
    # file of that name exists, so a missing one reads as a malformed line
    missing = tmp_path / "missing.conf"
    with pytest.raises(ConfigError, match=r"cannot read config file "
                                          r".*missing\.conf: No such file"):
        load_config(missing)
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_config(tmp_path)
    with pytest.raises(ConfigError, match="config line 1: expected"):
        load_config(str(missing))


def test_with_overrides_ignores_none():
    cfg = RunConfig()
    assert with_overrides(cfg, precision_digits=None) is cfg
    assert with_overrides(cfg, precision_digits=35).precision_digits == 35
    with pytest.raises(ConfigError):
        with_overrides(cfg, precision_digits=10)
