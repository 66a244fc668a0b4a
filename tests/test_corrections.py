import pytest
from mpmath import mp

from hyhe.constants import PhysicalConstants, default_constants
from hyhe.corrections import total_energy
from hyhe.matrices import ExpectationSet


def fake_expectations(d1="1.5", dee="0.19", p4="40.0", q="-0.14"):
    return ExpectationSet(delta_r1=mp.mpf(d1), delta_r12=mp.mpf(dee),
                          p4=mp.mpf(p4), log_momentum=mp.mpf(q))


def test_breit_terms_and_sum():
    with mp.workdps(30):
        exps = fake_expectations()
        c = default_constants()
        b = total_energy(mp.mpf("-2.9"), exps, c)
        alpha = mp.mpf(c.alpha)
        assert b.E1 == -(alpha ** 2) / 8 * (2 * exps.p4)
        assert b.E2 == 0 and b.E3 == 0
        assert b.E4 == mp.pi * alpha ** 2 * (2 * exps.delta_r1
                                             - exps.delta_r12)
        assert b.E5 == 2 * mp.pi * alpha ** 2 * exps.delta_r12
        assert b.deltaE2 == b.E1 + b.E2 + b.E3 + b.E4 + b.E5


def test_radiative_terms_and_sum():
    with mp.workdps(30):
        exps = fake_expectations()
        c = default_constants()
        b = total_energy(mp.mpf("-2.9"), exps, c)
        assert b.deltaE3 == b.r3_nuclear + b.r3_contact + b.r3_logmom
        # signs with the physical constants: nuclear term dominates and is
        # positive, the contact and log-momentum pieces pull it down
        assert b.r3_nuclear > 0 > b.r3_contact
        assert b.r3_logmom < 0  # log-momentum expectation is negative here
        assert b.deltaE3 > 0


def test_alpha_zero_switches_everything_off():
    with mp.workdps(30):
        exps = fake_expectations()
        c = PhysicalConstants(alpha="0")  # unvalidated on purpose
        b = total_energy(mp.mpf("-2.9"), exps, c)
        assert (b.E1, b.E2, b.E3, b.E4, b.E5, b.deltaE2) == (0, 0, 0, 0, 0, 0)
        assert (b.r3_nuclear, b.r3_contact, b.r3_logmom, b.deltaE3) == (
            0, 0, 0, 0)
        assert b.E_total == b.E0


def test_linearity_in_expectations():
    with mp.workdps(30):
        c = default_constants()
        one = total_energy(mp.mpf("-2.9"), fake_expectations(), c)
        # doubled <delta(r12)>
        two = total_energy(mp.mpf("-2.9"), fake_expectations(dee="0.38"), c)
        assert abs(two.E5 - 2 * one.E5) < mp.mpf("1e-30")
        assert abs(two.r3_contact - 2 * one.r3_contact) < mp.mpf("1e-30")


def test_breakdown_identities():
    with mp.workdps(30):
        exps = fake_expectations()
        c = default_constants()
        b = total_energy(mp.mpf("-2.90330"), exps, c)
        assert b.deltaE2 == b.E1 + b.E2 + b.E3 + b.E4 + b.E5
        assert b.deltaE3 == b.r3_nuclear + b.r3_contact + b.r3_logmom
        assert b.E_total == b.E0 + b.deltaE2 + b.deltaE3
        assert b.uncertainty == abs(b.deltaE3) / 2
        assert b.delta_vs_experiment == b.E_total - mp.mpf(c.E_exp)


def test_seed_state_anchor_values():
    # one-term ground state of the moving-nucleus Hamiltonian: every number
    # downstream of the solver pinned at once
    from hyhe.basis import enumerate_basis
    from hyhe.eigen import build_systems, optimize_k
    from hyhe.forms import build_expectation_forms
    from hyhe.matrices import build_operator_matrices, expectation_set

    with mp.workdps(50):
        c = default_constants()
        basis = enumerate_basis(1)
        mats = build_operator_matrices(basis)
        systems = build_systems(mats, mass_ratio=c.mass_ratio_M)
        res = optimize_k(systems["0"])
        exps = expectation_set(basis, res.coeffs, res.frac_bits, res.k_opt,
                               build_expectation_forms(basis, mats.W))
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
        alpha = mp.mpf(base.alpha)
        bumped = PhysicalConstants(alpha=mp.nstr(alpha * (1 + mp.mpf("1e-9")), 25))
        bumped.validate()
        b0 = total_energy(mp.mpf("-2.90330"), exps, base)
        b1 = total_energy(mp.mpf("-2.90330"), exps, bumped)
        assert abs(b1.deltaE2 - b0.deltaE2) < mp.mpf("1e-12")
        assert abs(b1.deltaE3 - b0.deltaE3) < mp.mpf("1e-12")


def test_cached_factors_never_go_stale():
    # breakdowns at 30, then 60, then 30 digits, and with alpha overridden,
    # equal breakdowns computed with the factor cache emptied, bit for bit
    from hyhe import corrections
    bumped = PhysicalConstants(alpha="7.2973525e-3").validate()
    runs = [(30, default_constants()), (60, default_constants()),
            (30, default_constants()), (30, bumped), (60, bumped),
            (30, default_constants())]

    def breakdown(digits, constants):
        with mp.workdps(digits):
            third = mp.mpf(1) / 3
            exps = ExpectationSet(delta_r1=1 + third, delta_r12=third / 7,
                                  p4=40 + third, log_momentum=-third / 2,
                                  rel_err=mp.eps)
            return total_energy(-3 + third / 10, exps, constants, mp.eps)

    corrections._factors.cache_clear()
    warm = [breakdown(*run) for run in runs]
    fresh = []
    for run in runs:
        corrections._factors.cache_clear()
        fresh.append(breakdown(*run))
    assert warm == fresh
