import pytest
from mpmath import mp

from hyhe.constants import PhysicalConstants, default_constants
from hyhe.corrections import (breit_correction, radiative_correction,
                              total_energy)
from hyhe.matrices import ExpectationSet


def fake_expectations(k="2.0", d1="1.5", dee="0.19", p4="40.0", q="-0.14"):
    return ExpectationSet(k=mp.mpf(k), delta_r1=mp.mpf(d1),
                          delta_r12=mp.mpf(dee), p4=mp.mpf(p4),
                          log_momentum=mp.mpf(q))


def test_breit_terms_and_sum():
    with mp.workdps(30):
        exps = fake_expectations()
        c = default_constants()
        E1, E2, E3, E4, E5, dE2 = breit_correction(exps, c)
        alpha = c.alpha_mp()
        assert E1 == -(alpha ** 2) / 8 * (2 * exps.p4)
        assert E2 == 0 and E3 == 0
        assert E4 == mp.pi * alpha ** 2 * (2 * exps.delta_r1 - exps.delta_r12)
        assert E5 == 2 * mp.pi * alpha ** 2 * exps.delta_r12
        assert dE2 == E1 + E2 + E3 + E4 + E5


def test_radiative_terms_and_sum():
    with mp.workdps(30):
        exps = fake_expectations()
        c = default_constants()
        r3n, r3c, r3l, dE3 = radiative_correction(exps, c)
        assert dE3 == r3n + r3c + r3l
        # signs with the physical constants: nuclear term dominates and is
        # positive, the contact and log-momentum pieces pull it down
        assert r3n > 0 > r3c
        assert r3l < 0  # log-momentum expectation is negative here
        assert dE3 > 0


def test_alpha_zero_switches_everything_off():
    with mp.workdps(30):
        exps = fake_expectations()
        c = PhysicalConstants(alpha="0")  # unvalidated on purpose
        E1, E2, E3, E4, E5, dE2 = breit_correction(exps, c)
        assert (E1, E2, E3, E4, E5, dE2) == (0, 0, 0, 0, 0, 0)
        r3n, r3c, r3l, dE3 = radiative_correction(exps, c)
        assert (r3n, r3c, r3l, dE3) == (0, 0, 0, 0)
        breakdown = total_energy(mp.mpf("-2.9"), exps, c)
        assert breakdown.E_total == breakdown.E0


def test_linearity_in_expectations():
    with mp.workdps(30):
        c = default_constants()
        one = fake_expectations()
        two = fake_expectations(dee="0.38")  # doubled <delta(r12)>
        _, _, _, _, E5_one, _ = breit_correction(one, c)
        _, _, _, _, E5_two, _ = breit_correction(two, c)
        assert abs(E5_two - 2 * E5_one) < mp.mpf("1e-30")
        _, r3c_one, _, _ = radiative_correction(one, c)
        _, r3c_two, _, _ = radiative_correction(two, c)
        assert abs(r3c_two - 2 * r3c_one) < mp.mpf("1e-30")


def test_breakdown_identities():
    with mp.workdps(30):
        exps = fake_expectations()
        c = default_constants()
        b = total_energy(mp.mpf("-2.90330"), exps, c)
        assert b.deltaE2 == b.E1 + b.E2 + b.E3 + b.E4 + b.E5
        assert b.deltaE3 == b.r3_nuclear + b.r3_contact + b.r3_logmom
        assert b.E_total == b.E0 + b.deltaE2 + b.deltaE3
        assert b.uncertainty == abs(b.deltaE3) / 2
        assert b.delta_vs_experiment == b.E_total - c.e_exp_mp()


def test_seed_state_anchor_values():
    # one-term ground state of the moving-nucleus Hamiltonian: every number
    # downstream of the solver pinned at once
    from hyhe.basis import enumerate_basis
    from hyhe.eigen import build_systems, optimize_k
    from hyhe.matrices import build_operator_matrices, expectation_set

    with mp.workdps(50):
        c = default_constants()
        basis = enumerate_basis(1)
        mats = build_operator_matrices(basis)
        systems = build_systems(mats, mass_ratio=c.mass_ratio_M)
        res = optimize_k(systems["0"])
        exps = expectation_set(basis, res.coeffs, res.frac_bits, res.k_opt,
                               mats.W, gamma=c.gamma_mp())
        b = total_energy(res.energy, exps, c)

        anchors = {
            "delta_r1": "1.5289837416458271988",
            "delta_r12": "0.19112296770572839985",
            "p4": "40.523504008004540513",
            "log_momentum": "-0.14059091585767682207",
        }
        for name, value in anchors.items():
            assert abs(getattr(exps, name) - mp.mpf(value)) < mp.mpf("1e-18")

        assert abs(b.E1 - mp.mpf("-0.000539482869588")) < mp.mpf("1e-15")
        assert abs(b.E4 - mp.mpf("0.000479606070315")) < mp.mpf("1e-15")
        assert abs(b.E5 - mp.mpf("6.3947476042e-5")) < mp.mpf("1e-15")
        assert abs(b.deltaE2 - mp.mpf("4.07067676978e-6")) < mp.mpf("1e-15")
        assert abs(b.r3_nuclear - mp.mpf("1.93417853384e-5")) < mp.mpf("1e-15")
        assert abs(b.r3_contact - mp.mpf("-8.93295614861e-7")) < mp.mpf("1e-15")
        assert abs(b.r3_logmom - mp.mpf("-4.05770211529e-8")) < mp.mpf("1e-15")
        assert abs(b.deltaE3 - mp.mpf("1.84079127023e-5")) < mp.mpf("1e-15")
        assert abs(b.E_total - mp.mpf("-2.84724343017136733")) < mp.mpf("1e-15")
        assert abs(b.uncertainty - mp.mpf("9.20396e-6")) < mp.mpf("1e-11")


def test_alpha_sensitivity_is_tiny():
    # nudging alpha by 1 part in 10^9 moves the corrections far less than
    # their own uncertainty band
    with mp.workdps(40):
        exps = fake_expectations()
        base = default_constants()
        alpha = base.alpha_mp()
        bumped = PhysicalConstants(alpha=mp.nstr(alpha * (1 + mp.mpf("1e-9")), 25))
        bumped.validate()
        b0 = total_energy(mp.mpf("-2.90330"), exps, base)
        b1 = total_energy(mp.mpf("-2.90330"), exps, bumped)
        assert abs(b1.deltaE2 - b0.deltaE2) < mp.mpf("1e-12")
        assert abs(b1.deltaE3 - b0.deltaE3) < mp.mpf("1e-12")
