"""Tests for Table I parameters and framework config (repro.core.params)."""

from dataclasses import fields

import numpy as np
import pytest

from repro.core.params import MendelConfig, QueryParams
from repro.core.query import resolve_matrix
from repro.seq.alphabet import PROTEIN
from repro.seq.matrices import BLOSUM62


class TestQueryParamsTableI:
    def test_defaults_valid(self):
        QueryParams()

    def test_k_type_and_range(self):
        with pytest.raises(ValueError, match="k must be int"):
            QueryParams(k=0)
        with pytest.raises(ValueError, match="k must be int"):
            QueryParams(k=2.5)

    def test_n_type_and_range(self):
        with pytest.raises(ValueError, match="n must be int"):
            QueryParams(n=0)

    def test_i_fraction(self):
        with pytest.raises(ValueError, match="i"):
            QueryParams(i=1.5)
        QueryParams(i=0.0)
        QueryParams(i=1.0)

    def test_c_fraction(self):
        with pytest.raises(ValueError, match="c"):
            QueryParams(c=-0.1)

    def test_m_resolves(self):
        assert np.array_equal(
            resolve_matrix(QueryParams(M="BLOSUM62"), PROTEIN), BLOSUM62)
        with pytest.raises(ValueError, match="unknown scoring matrix"):
            QueryParams(M="NOPE")
        with pytest.raises(ValueError, match="M must be"):
            QueryParams(M="")

    def test_s_non_negative(self):
        with pytest.raises(ValueError, match="S"):
            QueryParams(S=-1.0)

    def test_l_int_non_negative(self):
        QueryParams(l=0)
        with pytest.raises(ValueError, match="l must be int"):
            QueryParams(l=-1)

    def test_e_non_negative(self):
        with pytest.raises(ValueError, match="E"):
            QueryParams(E=-0.5)

    def test_frozen(self):
        params = QueryParams()
        with pytest.raises(AttributeError):
            params.k = 9

    def test_table_rows_match_paper(self):
        rows = QueryParams.table_rows()
        names = [r[0] for r in rows]
        assert names == ["k", "n", "i", "c", "M", "S", "l", "E"]
        types = dict((r[0], r[2]) for r in rows)
        assert types["i"] == "float(0..1)"
        assert types["M"] == "string"
        # The fields are Table I's rows, no more: the walk tolerance and the
        # gapped pass's costs and budget are not query parameters.
        assert [spec.name for spec in fields(QueryParams)] == names


class TestMendelConfig:
    def test_defaults_valid(self):
        MendelConfig()

    def test_segment_length(self):
        with pytest.raises(ValueError, match="segment_length"):
            MendelConfig(segment_length=1)

    def test_group_shape(self):
        with pytest.raises(ValueError, match="group_count"):
            MendelConfig(group_count=0)

    def test_prefix_depth(self):
        MendelConfig(prefix_depth=None)
        MendelConfig(prefix_depth=3)
        with pytest.raises(ValueError, match="prefix_depth"):
            MendelConfig(prefix_depth=0)

    def test_sample_size(self):
        with pytest.raises(ValueError, match="sample_size"):
            MendelConfig(sample_size=1)

    def test_bucket_capacities(self):
        with pytest.raises(ValueError, match="bucket"):
            MendelConfig(bucket_capacity=0)
        with pytest.raises(ValueError, match="bucket"):
            MendelConfig(prefix_bucket_capacity=0)


class TestCacheKey:
    def test_stable_across_equal_instances(self):
        assert QueryParams(n=6).cache_key() == QueryParams(n=6).cache_key()

    def test_int_float_spelling_canonicalised(self):
        # S validates as "number": S=1 and S=1.0 spell the same search.
        assert QueryParams(S=1).cache_key() == QueryParams(S=1.0).cache_key()
        assert QueryParams(E=10).cache_key() == QueryParams(E=10.0).cache_key()

    def test_matrix_name_case_insensitive(self):
        assert (
            QueryParams(M="blosum62").cache_key()
            == QueryParams(M="BLOSUM62").cache_key()
        )

    def test_every_field_distinguishes(self):
        base = QueryParams().cache_key()
        assert QueryParams(k=2).cache_key() != base
        assert QueryParams(n=3).cache_key() != base
        assert QueryParams(i=0.7).cache_key() != base
        assert QueryParams(c=0.7).cache_key() != base
        assert QueryParams(M="PAM250").cache_key() != base
        assert QueryParams(S=2.0).cache_key() != base
        assert QueryParams(l=4).cache_key() != base
        assert QueryParams(E=1.0).cache_key() != base

    def test_covers_every_declared_field(self):
        # A new QueryParams field must show up in the key automatically.
        key = QueryParams().cache_key()
        for spec in fields(QueryParams):
            assert f"{spec.name}=" in key
