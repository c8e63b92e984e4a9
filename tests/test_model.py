import math

import pytest

from specshare.model import (
    ConfigError,
    ScenarioParams,
    ServiceMode,
    ValidationError,
    dbm_to_watts,
    device_count,
    parse_config,
    validate,
    with_updates,
)


def test_dbm_to_watts_definition():
    assert dbm_to_watts(30.0) == 1.0
    assert dbm_to_watts(0.0) == 0.001
    assert dbm_to_watts(24.0) == pytest.approx(0.251188643150958, rel=1e-12)


def test_dbm_rejects_nonfinite():
    with pytest.raises(ValueError):
        dbm_to_watts(math.inf)


def test_defaults_match_reference_setting():
    p = validate(ScenarioParams())
    assert p.x0 == 10.0 and p.y0 == 10.0
    assert p.b_h == 2e7 and p.b_m == 1e8
    assert p.noise_psd == 1e-10 and p.alpha == 4.0
    assert p.u_m == 320.0  # 40 bytes
    assert p.t_out == 0.01 and p.n_h == 1000 and p.theta_h == 0.01
    assert p.p_max == dbm_to_watts(24.0)
    assert p.epsilon is None


def test_parse_config_overrides_and_defaults():
    p = parse_config("alpha = 4\ntheta_h = 0.01\n")
    assert p.alpha == 4.0 and p.theta_h == 0.01
    assert p.b_h == 2e7  # untouched default


def test_parse_config_comments_and_blank_lines():
    p = parse_config("# full comment\n\n x0_m = 12.5  # trailing\n")
    assert p.x0 == 12.5


def test_parse_config_byte_conversion():
    assert parse_config("U_m_bytes = 40").u_m == 320.0


def test_parse_config_alpha_pole_rejected():
    with pytest.raises(ValidationError, match="alpha"):
        parse_config("alpha = 2")


def test_parse_config_unknown_key_has_line_number():
    with pytest.raises(ConfigError, match=r"line 2: unknown key 'bogus'"):
        parse_config("alpha = 4\nbogus = 1\n")


def test_parse_config_rejects_a_repeated_key_with_both_lines():
    # the last line used to win silently: this evaluated at 30 dBm
    with pytest.raises(ConfigError, match=r"line 3: key 'P_h_dbm' given more than once "
                                          r"\(lines 1 and 3\)"):
        parse_config("P_h_dbm = 20\nalpha = 4\nP_h_dbm = 30\n")


def test_parse_config_rejects_trials_key():
    # the Monte Carlo trial count comes from `sweep --trials`, not the scenario
    with pytest.raises(ConfigError, match=r"line 1: unknown key 'trials'"):
        parse_config("trials = 1000\n")


def test_parse_config_malformed_number_has_line_number():
    with pytest.raises(ConfigError, match=r"line 1: malformed number 'ten'"):
        parse_config("x0_m = ten")


def test_parse_config_missing_equals():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("just words")


def test_parse_config_device_count_derivation():
    p = parse_config("lambda_mu_per_m2 = 0.05\nworkshop_area_m2 = 1e4")
    assert p.n_m == 500
    assert parse_config("workshop_area_m2 = 20000").n_m == 200
    explicit = parse_config("lambda_mu_per_m2 = 0.05\nN_m = 7")
    assert explicit.n_m == 7  # explicit count wins over the density mapping


def test_validate_accepts_zero_noise_and_densities():
    validate(ScenarioParams(noise_psd=0.0, lambda_h=0.0, lambda_md=0.0))


def test_validate_names_each_violation():
    with pytest.raises(ValidationError) as excinfo:
        validate(ScenarioParams(epsilon=0.0, t_out=-1.0, p_h=-3.0))
    message = str(excinfo.value)
    assert "epsilon must lie in (0,1)" in message
    assert "t_out must be positive" in message
    assert "p_h must be positive" in message


@pytest.mark.parametrize("text, field", [("alpha = 400", "x0"), ("x0_m = 1e300", "x0"),
                                         ("y0_m = 1e-300", "y0")])
def test_validate_rejects_path_loss_beyond_a_float(text, field):
    # x0 ** alpha or x0 ** -alpha would overflow or vanish in the outage formulas
    with pytest.raises(ValidationError, match=rf"{field} \*\* alpha and {field} \*\* -alpha"):
        parse_config(text)


@pytest.mark.parametrize("t_out", [1e154, 2e154])
def test_validate_rejects_a_deadline_whose_cube_overflows(t_out):
    # the third truncated moment reads t_out ** 3
    with pytest.raises(ValidationError, match=r"t_out"):
        validate(ScenarioParams(t_out=t_out))


def test_validate_accepts_the_largest_cubable_deadline():
    assert validate(ScenarioParams(t_out=5e102)).t_out == 5e102


def test_validate_integer_counts():
    with pytest.raises(ValidationError, match="n_m"):
        validate(ScenarioParams(n_m=0))
    with pytest.raises(ValidationError, match="n_h"):
        validate(ScenarioParams(n_h=2.5))


def test_validate_rejects_negative_seed():
    with pytest.raises(ValidationError, match="seed must be an integer >= 0"):
        validate(ScenarioParams(seed=-1))
    assert validate(ScenarioParams(seed=0)).seed == 0


def test_with_updates_rederives_device_count():
    base = validate(ScenarioParams())
    assert with_updates(base, lambda_mu=0.02).n_m == 200
    assert with_updates(base, lambda_mu=0.02, n_m=5).n_m == 5
    assert with_updates(base, workshop_area=2e4).n_m == 200
    assert with_updates(base, workshop_area=2e4, lambda_mu=0.03).n_m == 600
    assert with_updates(base, workshop_area=2e4, n_m=5).n_m == 5
    with pytest.raises(ValidationError):
        with_updates(base, alpha=1.5)


def test_device_count_floor():
    assert device_count(1e-9, 1e4) == 1
    assert device_count(0.01, 1e4) == 100


def test_with_updates_normalizes_numpy_scalars():
    import numpy as np

    base = validate(ScenarioParams())
    updated = with_updates(base, lambda_md=np.float64(50.0), n_m=np.int64(7))
    assert type(updated.lambda_md) is float and type(updated.n_m) is int


def test_service_mode_members():
    assert {m.value for m in ServiceMode} == {"shared", "proprietary", "combined"}
