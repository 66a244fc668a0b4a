import os
from types import SimpleNamespace

import numpy as np
from mpmath import mp

import hyhe
from hyhe.constants import default_constants
from hyhe.report import build_row_stage
from support import compare_trees, members

SRC = os.path.dirname(os.path.dirname(hyhe.__file__))


def test_a_tree_matches_itself(capsys):
    # the source tree against itself: every compared field agrees
    assert compare_trees.main([SRC, SRC, "--stage", "7", "--n", "1,7",
                               "--digits", "30", "--verbs", "3"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == \
        "0 differences in 2 (N, digits) pairs"


def test_differences_reads_every_bit():
    # an mpf by its mantissa and exponent, an (ints, D) pair by its ints and
    # D, through dataclasses, dicts, lists and tuples
    with mp.workdps(30):
        third = mp.mpf(1) / 3
        with mp.workdps(60):
            finer = mp.mpf(1) / 3
    A = (list(range(9)), 7)
    B = (list(range(8)) + [9], 7)
    assert compare_trees.differences(
        {"x": [third, A], "s": "1"}, {"x": [third, A], "s": "1"}) == []
    found = compare_trees.differences(
        {"x": [third, A], "s": "1"}, {"x": [finer, B], "s": "2"})
    assert [path for path, _, _ in found] == ["s", "x[0]", "x[1][0][8]"]
    assert compare_trees.differences(A, (list(range(9)), 14)) != []
    assert compare_trees.differences(np.arange(3), np.arange(3)) == []


def test_stages_compare_by_their_forms_whatever_the_layout():
    # a stand-in stage in the earlier layout, each system's forms in a bare
    # int64 `stack` counted by `limbs` and the expectation forms as single
    # forms (limbs, bits, D) named W, p4 and log_momentum, against the same
    # forms in stacks: no difference; one entry off by one in either layout
    # is one
    basis, systems, forms = build_row_stage(7, default_constants())
    ends = np.cumsum(forms.counts)
    single = [SimpleNamespace(limbs=forms.limbs[end - m:end], bits=forms.bits,
                              D=D)
              for m, end, D in zip(forms.counts, ends, forms.denominators)]

    def earlier(system):
        stack = system.stack
        return SimpleNamespace(
            stack=stack.limbs.copy(), bits=stack.bits, limbs=stack.counts,
            denominators=stack.denominators, T=system.T,
            K_float=system.K_float, P_float=system.P_float,
            cond_bits=system.cond_bits)

    named = SimpleNamespace(W=single[0], p4=tuple(single[1:4]),
                            log_momentum=tuple(single[4:]))
    assert compare_trees.exact_forms(named) == members(forms)
    old = (basis, {label: earlier(system)
                   for label, system in systems.items()}, named)
    new = (basis, systems, forms)
    assert compare_trees.differences(compare_trees.stage_values(old),
                                     compare_trees.stage_values(new)) == []
    off = earlier(systems["0"])
    off.stack[-1, 6, 6] += 1
    found = compare_trees.differences(
        compare_trees.stage_values((basis, {**old[1], "0": off}, named)),
        compare_trees.stage_values(new))
    assert [path for path, _, _ in found] == ["systems.0.forms[2][0][48]"]
