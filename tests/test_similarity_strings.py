"""Unit tests for the string-similarity primitives."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.similarity.strings import (
    bind_edit_similarity,
    common_prefix_ratio,
    common_suffix_ratio,
    dice,
    edit_similarity,
    initials,
    jaccard,
    jaro,
    jaro_winkler,
    levenshtein,
    ngrams,
    overlap_coefficient,
    rough_phonetic,
    soundex,
)

from tests.string_oracle import (
    jaro_reference,
    jaro_winkler_reference,
    levenshtein_dp,
)

words = st.text(alphabet="abcdefgh", min_size=0, max_size=12)

# Differential inputs: a tiny alphabet (many repeated characters and
# near-equal strings), non-ASCII letters, and lengths past 64 on either
# side so the pattern bitmask outgrows a machine word.
_chars = st.sampled_from("aab éü中")
_short = st.text(alphabet=_chars, max_size=12)
_long = st.text(alphabet=_chars, min_size=65, max_size=140)
_any_length = st.one_of(_short, _long)


@st.composite
def string_pairs(draw):
    a = draw(_any_length)
    if draw(st.booleans()):
        return a, draw(_any_length)
    # A few edits away from *a*: the interesting band for a cap.
    b = list(a)
    for _ in range(draw(st.integers(0, 4))):
        pos = draw(st.integers(0, len(b)))
        op = draw(st.integers(0, 2))
        if op == 0:
            b.insert(pos, draw(_chars))
        elif b and op == 1:
            b.pop(min(pos, len(b) - 1))
        elif b:
            b[min(pos, len(b) - 1)] = draw(_chars)
    return a, "".join(b)


class TestLevenshtein:
    def test_known_values(self):
        assert levenshtein("kitten", "sitting") == 3
        assert levenshtein("abc", "abc") == 0
        assert levenshtein("", "abc") == 3
        assert levenshtein("abc", "") == 3

    def test_cap_early_exit(self):
        assert levenshtein("aaaa", "bbbbbbbbbb", cap=2) == 3  # cap + 1

    @settings(max_examples=300, deadline=None)
    @given(string_pairs())
    def test_matches_reference_dp(self, pair):
        a, b = pair
        assert levenshtein(a, b) == levenshtein_dp(a, b)

    @settings(max_examples=300, deadline=None)
    @given(string_pairs(), st.integers(1, 8))
    def test_cap_contract(self, pair, cap):
        """Within the cap the exact distance, beyond it ``cap + 1``."""
        a, b = pair
        assert levenshtein(a, b, cap) == min(levenshtein_dp(a, b), cap + 1)

    @given(words, words)
    def test_symmetry(self, a, b):
        assert levenshtein(a, b) == levenshtein(b, a)

    @given(words, words, words)
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)

    @given(words)
    def test_identity(self, a):
        assert levenshtein(a, a) == 0


class TestEditSimilarity:
    def test_range(self):
        assert edit_similarity("abc", "abd") == pytest.approx(2 / 3)
        assert edit_similarity("", "") == 1.0
        assert edit_similarity("a", "") == 0.0

    @given(words, words)
    def test_bounds(self, a, b):
        assert 0.0 <= edit_similarity(a, b) <= 1.0

    @settings(max_examples=200, deadline=None)
    @given(string_pairs())
    def test_matches_reference_dp(self, pair):
        a, b = pair
        longest = max(len(a), len(b))
        expected = 1.0 - levenshtein_dp(a, b) / longest if longest else 1.0
        assert edit_similarity(a, b) == expected

    @given(_any_length, st.lists(_any_length, max_size=4))
    def test_bound_pattern_is_reusable(self, a, others):
        similarity = bind_edit_similarity(a)
        for b in others + others:
            assert similarity(b) == edit_similarity(a, b)


class TestJaro:
    def test_known_value(self):
        assert jaro("martha", "marhta") == pytest.approx(0.944, abs=1e-3)

    def test_disjoint(self):
        assert jaro("abc", "xyz") == 0.0

    def test_winkler_prefix_bonus(self):
        assert jaro_winkler("brad", "brady") > jaro("brad", "brady")

    @given(words, words)
    def test_bounds(self, a, b):
        assert 0.0 <= jaro_winkler(a, b) <= 1.0

    @settings(max_examples=300, deadline=None)
    @given(string_pairs())
    def test_matches_reference(self, pair):
        a, b = pair
        assert jaro(a, b) == jaro_reference(a, b)
        assert jaro_winkler(a, b) == jaro_winkler_reference(a, b)


class TestSetMeasures:
    def test_jaccard(self):
        a, b = frozenset("abc"), frozenset("bcd")
        assert jaccard(a, b) == pytest.approx(0.5)
        # Empty-set reflexivity: two identical (empty) sets are a perfect
        # match, consistent with edit_similarity("", "") == 1.0.
        assert jaccard(frozenset(), frozenset()) == 1.0
        assert dice(frozenset(), frozenset()) == 1.0
        assert overlap_coefficient(frozenset(), frozenset()) == 1.0
        assert jaccard(frozenset(), frozenset("ab")) == 0.0
        assert dice(frozenset(), frozenset("ab")) == 0.0
        assert overlap_coefficient(frozenset(), frozenset("ab")) == 0.0

    def test_dice(self):
        a, b = frozenset("abc"), frozenset("bcd")
        assert dice(a, b) == pytest.approx(2 / 3)

    def test_overlap(self):
        a, b = frozenset("ab"), frozenset("abcd")
        assert overlap_coefficient(a, b) == 1.0

    @given(st.frozensets(st.characters(), max_size=8),
           st.frozensets(st.characters(), max_size=8))
    def test_jaccard_le_dice_le_overlap(self, a, b):
        if a and b and (a & b):
            assert jaccard(a, b) <= dice(a, b) <= overlap_coefficient(a, b) + 1e-12


class TestNgrams:
    def test_bigram_content(self):
        assert ngrams("ab", 2) == frozenset({"^a", "ab", "b$"})

    def test_empty(self):
        assert ngrams("", 3) == frozenset()

    def test_short_string(self):
        assert ngrams("a", 3) == frozenset({"^a$"})

    def test_short_string_padded_to_length(self):
        # "^a$" is shorter than n=4: the gram is sentinel-padded so gram
        # sets stay length-homogeneous instead of mixing sizes.
        assert ngrams("a", 4) == frozenset({"^a$$"})
        assert ngrams("ab", 5) == frozenset({"^ab$$"})

    @given(st.text(max_size=12), st.integers(min_value=1, max_value=8))
    def test_length_homogeneous(self, text, n):
        for gram in ngrams(text, n):
            assert len(gram) == n


class TestPrefixSuffix:
    def test_prefix(self):
        assert common_prefix_ratio("brad", "brady") == 1.0
        assert common_prefix_ratio("brad", "chad") == 0.0

    def test_suffix(self):
        assert common_suffix_ratio("linklater", "slater") == pytest.approx(5 / 6)

    def test_empty(self):
        assert common_prefix_ratio("", "abc") == 0.0


class TestPhonetic:
    def test_soundex_classic(self):
        assert soundex("Robert") == "R163"
        assert soundex("Rupert") == "R163"
        assert soundex("Ashcraft") == soundex("Ashcroft")

    def test_soundex_empty(self):
        assert soundex("") == ""
        assert soundex("123") == ""

    def test_rough_phonetic_digraphs(self):
        assert rough_phonetic("philip") == rough_phonetic("filip")

    def test_rough_phonetic_double_letters(self):
        assert rough_phonetic("matt") == rough_phonetic("mat")


class TestInitials:
    def test_basic(self):
        assert initials(["New", "York", "City"]) == "nyc"

    def test_empty_tokens(self):
        assert initials([]) == ""
        assert initials(["", "a"]) == "a"
