import os

import numpy as np
from mpmath import mp

import hyhe
from hyhe.exact import form
from support import compare_trees

SRC = os.path.dirname(os.path.dirname(hyhe.__file__))


def test_a_tree_matches_itself(capsys):
    # the source tree against itself: every compared field agrees
    assert compare_trees.main([SRC, SRC, "--stage", "7", "--n", "1,7",
                               "--digits", "30", "--verbs", "3"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == \
        "0 differences in 2 (N, digits) pairs"


def test_differences_reads_every_bit():
    # an mpf by its mantissa and exponent, a Form by its limbs, bits and D,
    # through dataclasses, dicts and lists
    with mp.workdps(30):
        third = mp.mpf(1) / 3
        with mp.workdps(60):
            finer = mp.mpf(1) / 3
    A = form(list(range(9)), 3, 7, 10)
    B = form(list(range(8)) + [9], 3, 7, 10)
    assert compare_trees.differences(
        {"x": [third, A], "s": "1"}, {"x": [third, A], "s": "1"}) == []
    found = compare_trees.differences(
        {"x": [third, A], "s": "1"}, {"x": [finer, B], "s": "2"})
    assert [path for path, _, _ in found] == ["s", "x[0]", "x[1]"]
    assert compare_trees.differences(
        A, form(list(range(9)), 3, 14, 10)) != []
    assert compare_trees.differences(np.arange(3), np.arange(3)) == []
