"""The kept mutant catalogue cannot go stale: each entry still names one place in the code."""

import mutants


def test_each_mutant_old_text_occurs_once_in_its_file():
    for m in mutants.MUTANTS:
        assert (mutants.ROOT / m.file).read_text().count(m.old) == 1, m.name
        assert m.new != m.old, m.name


def test_each_mutant_names_its_tests_or_why_it_is_equivalent():
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    assert [m.name for m in mutants.MUTANTS if m.control] == ["control-comment-only"]
    for m in mutants.MUTANTS:
        assert bool(m.tests) != bool(m.equivalent), m.name
        assert all((mutants.ROOT / t).is_file() for t in m.tests), m.name
