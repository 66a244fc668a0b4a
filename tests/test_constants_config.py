from dataclasses import fields

import pytest

from hyhe.config import (ConfigError, RunConfig, load_config, parse_config_text,
                         DEFAULT_SWEEP)
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
    ("alpha", "abc"), ("mass_ratio_M", None),
    ("alpha", "7.297_3e-3"), ("mass_ratio_M", "7_294.3"),
    ("bethe_beta", "1e-5000"),
])
def test_constants_reject_unparsed_or_nonfinite(name, raw):
    with pytest.raises(ConstantsError, match=name):
        PhysicalConstants(**{name: raw}).validate()


def test_runconfig_defaults(one_term_report):
    cfg = RunConfig().validate()
    assert one_term_report.config == {"precision_digits": 30,
                                      "output": "human"}
    assert one_term_report.config == {f.name: getattr(cfg, f.name)
                                      for f in fields(RunConfig)}
    assert DEFAULT_SWEEP == (20, 30, 40, 50)


def test_load_config_none_gives_defaults():
    assert load_config(None) == RunConfig()


def config_file(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


def test_load_config_rejects_unknown_keys(tmp_path):
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config(config_file(tmp_path, "output = json\noutputs = csv\n"))


@pytest.mark.parametrize("key", ["n_basis", "quadrature_target", "k_init",
                                 "k_tol", "max_outer_iters"])
def test_load_config_rejects_removed_keys(tmp_path, key):
    # the basis size comes from the verb, nothing reads a quadrature target,
    # and the k-search has no settings, so a file that still sets any of
    # them is refused by name
    with pytest.raises(ConfigError, match=f"unknown config key.*{key}"):
        load_config(config_file(tmp_path, f"{key} = 20\n"))
    with pytest.raises(ConfigError, match=f"unknown config key.*{key}"):
        load_config(config_file(tmp_path,
                                f"precision_digits = 40\n{key} = 20\n"))


@pytest.mark.parametrize("doc", [{"output": "xml"},
                                 {"precision_digits": "10"}])
def test_load_config_rejects_out_of_range(tmp_path, doc):
    text = "".join(f"{key} = {value}\n" for key, value in doc.items())
    with pytest.raises(ConfigError):
        load_config(config_file(tmp_path, text))


def test_parse_config_text_comments_and_errors():
    doc = parse_config_text(
        "# header\nprecision_digits = 30  # inline\n\noutput = json\n")
    assert doc == {"precision_digits": "30", "output": "json"}
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("precision_digits = 30\nnot a pair\n")
    # so is a line whose key is empty
    with pytest.raises(ConfigError, match=r"config line 2: expected 'key = "
                                          r"value', got '= 40'"):
        parse_config_text("# run\n= 40  # no key\n")
    # a key set twice names both lines, comments and blank ones counted
    with pytest.raises(ConfigError, match=r"config key 'precision_digits' "
                                          r"set twice: lines 2 and 4"):
        parse_config_text("# run\nprecision_digits = 40\n\n"
                          "precision_digits = 50\n")


def test_load_config_from_text_and_path(tmp_path):
    # config text in a file, read through a Path and through a str
    p = config_file(tmp_path, "output = csv\nprecision_digits = 42\n")
    for path in (p, str(p)):
        cfg = load_config(path)
        assert (cfg.output, cfg.precision_digits) == ("csv", 42)


def test_load_config_missing_file(tmp_path):
    # a str is a path as much as a Path is, and a path that cannot be read
    # is named
    missing = tmp_path / "missing.conf"
    for path in (missing, str(missing)):
        with pytest.raises(ConfigError, match=r"cannot read config file "
                                              r".*missing\.conf: No such file"):
            load_config(path)
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_config(tmp_path)


def test_load_config_rejects_non_utf8_file(tmp_path):
    # a file that is not UTF-8 text is a config error naming the file,
    # not a UnicodeDecodeError
    path = tmp_path / "utf16.cfg"
    path.write_bytes(b"\xff\xfeo\x00u\x00t\x00")
    with pytest.raises(ConfigError, match=r"cannot read config file "
                                          r".*utf16\.cfg: 'utf-8' codec"):
        load_config(path)


def test_load_config_overrides_ignore_none(tmp_path):
    # an override of None keeps the file's value, one that is set replaces
    # it and is validated, and the file's own value is validated before any
    # override replaces it
    path = config_file(tmp_path, "precision_digits = 40\n")
    assert load_config(path, precision_digits=None, output=None) == \
        RunConfig(precision_digits=40)
    assert load_config(path, precision_digits=35, output="json") == \
        RunConfig(precision_digits=35, output="json")
    assert load_config(None, output="csv") == RunConfig(output="csv")
    with pytest.raises(ConfigError):
        load_config(path, precision_digits=10)
    with pytest.raises(ConfigError, match="precision_digits must be >= 30"):
        load_config(config_file(tmp_path, "precision_digits = 10\n"),
                    precision_digits=35)
