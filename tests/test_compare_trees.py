import dataclasses
import os

import numpy as np
from mpmath import mp

import hyhe
from hyhe.constants import default_constants
from hyhe.eigen import PencilSystem
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


def test_stages_compare_by_their_forms():
    # a stage's exact forms are read off its stacks, alone or as a system's
    # `stack`: a stage shows no difference against itself, and one entry off
    # by one in a system's stack is one
    basis, systems, forms = build_row_stage(7, default_constants())
    stage = (basis, systems, forms)
    assert compare_trees.exact_forms(forms) == members(forms)
    assert compare_trees.differences(compare_trees.stage_values(stage),
                                     compare_trees.stage_values(stage)) == []
    system = systems["0"]
    limbs = system.stack.limbs.copy()
    limbs[-1, 6, 6] += 1
    off = PencilSystem(dataclasses.replace(system.stack, limbs=limbs),
                       system.T, system.K_float, system.P_float,
                       system.W_diag, label=system.label, mu=system.mu)
    found = compare_trees.differences(
        compare_trees.stage_values((basis, {**systems, "0": off}, forms)),
        compare_trees.stage_values(stage))
    assert [path for path, _, _ in found] == ["systems.0.forms[2][0][48]"]
