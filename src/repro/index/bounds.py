"""Per-query score upper bounds: the "WAND" half of the indexed kernel.

For one query descriptor, a :class:`QueryPlan` precomputes everything the
candidate generator needs to bound ``F_N(q, v)`` for any data node *v*
from (a) which probe tokens *v*'s description contains -- a bitmask
accumulated while walking the posting lists -- and (b) a handful of
per-node feature ints (:class:`repro.index.features.NodeFeatures`).

The contract is the classic WAND one: ``plan.bound(v, mask, degree) >=
scorer.node_score(q, v)`` for every node, always.  Candidates are then
evaluated in decreasing-bound order and the walk stops once the bound
falls strictly below the current k-th best admissible score -- which
can never change the top-k result (see ``repro.index.graph_index`` for
the cutoff argument).  Every formula below is therefore derived from
the exact measure in :mod:`repro.similarity.functions`; measures that
depend only on features we store exactly (type family, first/last
token, initials, length ratio, degree prior) are *computed*, not
bounded, and memoized per distinct feature value.

Soundness hinges on one inequality used throughout: the probe bitmask
tells us which expanded query tokens appear among the node's *indexed*
tokens (name + type + keywords, what the inverted index covers), a
superset of the token sets the measures intersect (``token_set`` is
name + keywords; name-token sets are smaller still).  So every
"matched token" count derived from the mask is an upper bound on the
true intersection size each measure sees.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.index.features import HAS_MEASUREMENT, HAS_NUMBERS, NodeFeatures
from repro.index.vocab import NO_TOKEN, Vocabulary
from repro.similarity import ontology
from repro.similarity.descriptors import CorpusContext, Descriptor
from repro.similarity.strings import edit_similarity, jaccard, soundex
from repro.textutil import tokenize_tuple

#: Sentinel for "query token absent from the vocabulary" -- compares
#: unequal to every stored feature id including NO_TOKEN.
_NO_QUERY_TOKEN = -1


class QueryPlan:
    """Precomputed upper-bound machinery for one (query, config) pair.

    Args:
        desc: the (non-wildcard) query descriptor.
        probe_tokens: the expanded query tokens, in a fixed order; token
            *i* owns bit ``1 << i`` of every node mask.  Tokens missing
            from the vocabulary get no bit (no node can contain them).
        weights: normalized measure weights by name
            (:func:`repro.similarity.scoring.selected_node_weights`).
        vocab: the index vocabulary (probe token ids + IDF array).
        features: per-node feature arrays.
        corpus: the scorer's corpus context (IDF for query-side tokens
            that may not appear in the graph, degree normalizer).
    """

    def __init__(
        self,
        desc: Descriptor,
        probe_tokens: Sequence[str],
        weights: Dict[str, float],
        vocab: Vocabulary,
        features: NodeFeatures,
        corpus: CorpusContext,
    ) -> None:
        self._features = features
        self._vocab = vocab
        g = weights.get
        self.w_exact = g("exact_name", 0.0)
        self.w_edit = g("name_edit", 0.0)
        self.w_jaro = g("name_jaro_winkler", 0.0)
        self.w_tjac = g("token_jaccard", 0.0)
        self.w_tdice = g("token_dice", 0.0)
        self.w_tovl = g("token_overlap", 0.0)
        self.w_prefix = g("prefix_ratio", 0.0)
        self.w_suffix = g("suffix_ratio", 0.0)
        self.w_contain = g("containment", 0.0)
        self.w_first = g("first_token_equal", 0.0)
        self.w_last = g("last_token_equal", 0.0)
        self.w_qcov = g("query_token_coverage", 0.0)
        self.w_dcov = g("data_token_coverage", 0.0)
        self.w_bigram = g("bigram_jaccard", 0.0)
        self.w_trigram = g("trigram_jaccard", 0.0)
        self.w_soundex = g("soundex_first_token", 0.0)
        self.w_phon = g("phonetic_name", 0.0)
        self.w_acrof = g("acronym_forward", 0.0)
        self.w_acrob = g("acronym_backward", 0.0)
        self.w_initsim = g("initials_similarity", 0.0)
        self.w_best_edit = g("best_token_edit", 0.0)
        self.w_syn = g("synonym_token", 0.0)
        self.w_synset = g("synset_jaccard", 0.0)
        self.w_type_exact = g("type_exact", 0.0)
        self.w_type_syn = g("type_synonym", 0.0)
        self.w_type_ont = g("type_ontology", 0.0)
        self.w_type_sub = g("type_subsumption", 0.0)
        self.w_type_tok = g("type_token_overlap", 0.0)
        self.w_kjac = g("keyword_jaccard", 0.0)
        self.w_kovl = g("keyword_overlap", 0.0)
        self.w_kin = g("keyword_in_name", 0.0)
        self.w_nik = g("name_in_keyword", 0.0)
        self.w_tfidf = g("tfidf_cosine", 0.0)
        self.w_idfcov = g("idf_weighted_coverage", 0.0)
        self.w_rare = g("rare_token_bonus", 0.0)
        self.w_lenratio = g("length_ratio", 0.0)
        self.w_numeric = g("numeric_exact", 0.0) + g("numeric_close", 0.0)
        self.w_unit = g("unit_convert_match", 0.0)
        self.w_degree = g("degree_prior", 0.0)
        # ``wildcard`` scores 0 for the non-wildcard queries this plan
        # serves, so its weight never enters a bound.

        # -- probe tokens / per-bit constants ---------------------------
        name_set = desc.name_token_set
        name_mult: Dict[str, int] = {}
        for qt in desc.name_tokens:
            name_mult[qt] = name_mult.get(qt, 0) + 1
        eq_set = set(desc.token_set)
        for t in desc.token_set:
            eq_set |= ontology.synonyms_of(t)
        self._eq_size = len(eq_set)

        self.probe_tids: List[int] = []
        self._bit_in_name_set: List[bool] = []
        self._bit_name_mult: List[int] = []
        self._bit_in_kw: List[bool] = []
        self._bit_in_qset: List[bool] = []
        self._bit_idf: List[float] = []
        self._bit_synset_c: List[int] = []
        bit_of: Dict[str, int] = {}
        idf_arr = vocab.idf
        for token in probe_tokens:
            tid = vocab.get(token)
            if tid is None:
                continue  # no graph node contains it: no posting, no bit
            bit_of[token] = len(self.probe_tids)
            self.probe_tids.append(tid)
            self._bit_in_name_set.append(token in name_set)
            self._bit_name_mult.append(name_mult.get(token, 0))
            self._bit_in_kw.append(token in desc.keyword_tokens)
            self._bit_in_qset.append(token in desc.token_set)
            self._bit_idf.append(idf_arr[tid])
            self._bit_synset_c.append(
                len(({token} | ontology.synonyms_of(token)) & eq_set)
            )

        # exact_name needs every distinct query name token matched; a
        # query token no graph node contains makes it unsatisfiable.
        req = 0
        impossible = False
        for qt in name_set:
            bit = bit_of.get(qt)
            if bit is None:
                impossible = True
                break
            req |= 1 << bit
        self._name_req_mask = req
        self._exact_impossible = impossible

        # synonym_token: one mask per query name-token *position* whose
        # token has a synonym set; a hit needs any of those synonyms
        # (which always include the token itself) among the node's
        # tokens.  Positions whose synonyms all miss the vocabulary can
        # never hit.
        syn_masks: List[int] = []
        for qt in desc.name_tokens:
            syns = ontology.synonyms_of(qt)
            if not syns:
                continue
            m = 0
            for s in syns:
                bit = bit_of.get(s)
                if bit is not None:
                    m |= 1 << bit
            if m:
                syn_masks.append(m)
        self._syn_masks = syn_masks

        # -- query-side scalar constants --------------------------------
        self._q_type = desc.type
        self._q_type_tokens = desc.type_tokens
        self._lq = len(desc.name_lower)
        self._q_first_char = ord(desc.name_lower[0]) if desc.name_lower else -1
        self._q_last_char = ord(desc.name_lower[-1]) if desc.name_lower else -1
        self._n_q = len(name_set)
        self._len_tuple = len(desc.name_tokens)
        self._n_kw = len(desc.keyword_tokens)
        self._q_bi = len(desc.bigrams)
        self._q_tri = len(desc.trigrams)
        self._q_phon = len(desc.phonetic)
        self._q_soundex = desc.soundex_first
        self._q_initials = desc.initials
        self._q_has_numbers = bool(desc.numbers)
        self._q_has_meas = any(
            desc.name_tokens[i].isdigit()
            for i in range(len(desc.name_tokens) - 1)
        )
        first = desc.name_tokens[0] if desc.name_tokens else None
        self._q_first_tid = (
            vocab.get(first) if first is not None else None
        )
        if self._q_first_tid is None:
            self._q_first_tid = _NO_QUERY_TOKEN
        last = desc.name_tokens[-1] if desc.name_tokens else None
        self._q_last_tid = vocab.get(last) if last is not None else None
        if self._q_last_tid is None:
            self._q_last_tid = _NO_QUERY_TOKEN
        # acronym_forward: the query's single compact token vs the data
        # name's initials (exact, memoized per initials id).
        self._acro_fwd_token: Optional[str] = None
        if len(desc.name_tokens) == 1 and 2 <= len(desc.name_tokens[0]) <= 6:
            self._acro_fwd_token = desc.name_tokens[0]
        # acronym_backward: a single-token data name vs the query's
        # initials (exact, memoized per first-token id).
        self._acro_bwd_ok = (
            len(desc.name_tokens) >= 2 and 2 <= len(desc.initials) <= 6
        )
        # abbreviation_tokens: per query token, can *any* data token
        # abbreviate/expand it?  Prefix-style needs len >= 3 on the
        # short side (and >= 5 if the query token is the long side,
        # subsumed by >= 3); otherwise only a table hit can fire.
        if desc.name_tokens:
            possible = sum(
                1 for qt in desc.name_tokens
                if len(qt) >= 3 or ontology.expand_abbreviation(qt)
            )
            self._abb_const = (
                g("abbreviation_tokens", 0.0) * possible / len(desc.name_tokens)
            )
        else:
            self._abb_const = 0.0
        idf_of = corpus.idf_of
        self._norm_q = math.sqrt(
            sum(idf_of(t) ** 2 for t in desc.token_set)
        )
        self._total_idf = sum(idf_of(t) for t in desc.token_set)
        self._log_max = corpus.log_max_degree

        # -- memos -------------------------------------------------------
        self._mask_memo: Dict[int, Tuple] = {}
        self._type_memo: Dict[int, float] = {}
        self._soundex_memo: Dict[int, str] = {}
        self._initials_memo: Dict[int, float] = {}
        self._acrof_memo: Dict[int, bool] = {}
        self._acrob_memo: Dict[int, bool] = {}
        self._degree_memo: Dict[int, float] = {}

    # ------------------------------------------------------------------
    def mask_for(self, tokens) -> int:
        """Probe bitmask a node with indexed *tokens* would accumulate
        (test/verification helper; the generator builds masks from the
        posting walk instead)."""
        vocab_get = self._vocab.get
        tids = {vocab_get(t) for t in tokens}
        mask = 0
        for bit, tid in enumerate(self.probe_tids):
            if tid in tids:
                mask |= 1 << bit
        return mask

    def _mask_stats(self, mask: int) -> Tuple:
        stats = self._mask_memo.get(mask)
        if stats is not None:
            return stats
        m_set = m_mult = m_kw = m_qset = 0
        idf_sum = idf_sq = idf_max = 0.0
        synset = 0
        in_name = self._bit_in_name_set
        mult = self._bit_name_mult
        in_kw = self._bit_in_kw
        in_qset = self._bit_in_qset
        idf = self._bit_idf
        syn_c = self._bit_synset_c
        m = mask
        while m:
            b = (m & -m).bit_length() - 1
            m &= m - 1
            if in_name[b]:
                m_set += 1
            m_mult += mult[b]
            if in_kw[b]:
                m_kw += 1
            if in_qset[b]:
                m_qset += 1
                v = idf[b]
                idf_sum += v
                idf_sq += v * v
                if v > idf_max:
                    idf_max = v
            synset += syn_c[b]
        syn_hits = 0
        for sm in self._syn_masks:
            if sm & mask:
                syn_hits += 1
        exact_ok = (
            not self._exact_impossible
            and (mask & self._name_req_mask) == self._name_req_mask
        )
        stats = (m_set, m_mult, m_kw, m_qset, idf_sum, idf_sq, idf_max,
                 synset, syn_hits, exact_ok)
        self._mask_memo[mask] = stats
        return stats

    def _type_contrib(self, type_id: int) -> float:
        """Exact weighted sum of the five type measures for one distinct
        data type (memoized per interned type id)."""
        val = self._type_memo.get(type_id)
        if val is not None:
            return val
        d_type = (
            self._features.pool_strings[type_id]
            if type_id != NO_TOKEN else ""
        )
        v = 0.0
        q_type = self._q_type
        if q_type and d_type:
            if self.w_type_exact and q_type.lower() == d_type.lower():
                v += self.w_type_exact
            if self.w_type_syn and ontology.are_synonyms(q_type, d_type):
                v += self.w_type_syn
            if self.w_type_ont:
                dist = ontology.type_distance(q_type, d_type)
                if dist is not None:
                    v += self.w_type_ont / (1.0 + dist)
            if self.w_type_sub and (
                ontology.is_subtype(d_type, q_type)
                or ontology.is_subtype(q_type, d_type)
            ):
                v += self.w_type_sub
        if self.w_type_tok:
            v += self.w_type_tok * jaccard(
                self._q_type_tokens, frozenset(tokenize_tuple(d_type))
            )
        self._type_memo[type_id] = v
        return v

    def _soundex_of(self, tid: int) -> str:
        code = self._soundex_memo.get(tid)
        if code is None:
            code = soundex(self._vocab.strings[tid])
            self._soundex_memo[tid] = code
        return code

    def _initials_sim(self, iid: int) -> float:
        val = self._initials_memo.get(iid)
        if val is None:
            d_init = self._features.pool_strings[iid]
            val = (
                edit_similarity(self._q_initials, d_init) if d_init else 0.0
            )
            self._initials_memo[iid] = val
        return val

    def _acro_forward(self, iid: int) -> bool:
        val = self._acrof_memo.get(iid)
        if val is None:
            val = self._features.pool_strings[iid] == self._acro_fwd_token
            self._acrof_memo[iid] = val
        return val

    def _acro_backward(self, tid: int) -> bool:
        val = self._acrob_memo.get(tid)
        if val is None:
            token = self._vocab.strings[tid]
            val = 2 <= len(token) <= 6 and token == self._q_initials
            self._acrob_memo[tid] = val
        return val

    # ------------------------------------------------------------------
    def bound(self, nid: int, mask: int, degree: int) -> float:
        """Upper bound on ``node_score(query, nid)``; clamped to 1.0 like
        the score itself."""
        f = self._features
        (m_set, m_mult, m_kw, m_qset, idf_sum, idf_sq, idf_max,
         synset, syn_hits, exact_ok) = self._mask_stats(mask)
        ub = self._type_contrib(f.type_id[nid])

        # Whole-name measures, from the stored name length.
        ld = f.name_len[nid]
        lq = self._lq
        if ld:
            longer = lq if lq > ld else ld
            shorter = lq + ld - longer
            # name_edit >= similarity is impossible beyond the length
            # gap; length_ratio equals the same ratio exactly.
            ub += (self.w_edit + self.w_lenratio) * (shorter / longer)
            ub += self.w_jaro + self.w_contain
            if exact_ok and ld == lq:
                ub += self.w_exact
            if f.first_char[nid] == self._q_first_char:
                ub += self.w_prefix
            if f.last_char[nid] == self._q_last_char:
                ub += self.w_suffix
        bd = f.bigram_count[nid]
        if bd and self._q_bi:
            hi = bd if bd > self._q_bi else self._q_bi
            ub += self.w_bigram * ((bd + self._q_bi - hi) / hi)
        td = f.trigram_count[nid]
        if td and self._q_tri:
            hi = td if td > self._q_tri else self._q_tri
            ub += self.w_trigram * ((td + self._q_tri - hi) / hi)
        pd = f.phon_len[nid]
        if pd and self._q_phon:
            longer = pd if pd > self._q_phon else self._q_phon
            shorter = pd + self._q_phon - longer
            ub += self.w_phon * (shorter / longer)

        # Name-token measures.
        ntd = f.name_token_count[nid]
        if self._len_tuple and m_mult:
            ub += self.w_qcov * (m_mult / self._len_tuple)
        if ntd:
            ub += self.w_best_edit + self._abb_const
            if m_qset:
                ub += self.w_dcov
        nd = f.distinct_name_count[nid]
        inter = m_set if m_set < nd else nd
        if inter:
            n_q = self._n_q
            ub += self.w_tjac * (inter / (n_q + nd - inter))
            ub += self.w_tdice * (2.0 * inter / (n_q + nd))
            ub += self.w_tovl * (inter / (n_q if n_q < nd else nd))
        ftid = f.first_tid[nid]
        if ftid != NO_TOKEN:
            if ftid == self._q_first_tid:
                ub += self.w_first
            if self.w_soundex and self._q_soundex:
                code = self._soundex_of(ftid)
                if code and code == self._q_soundex:
                    ub += self.w_soundex
            if (self._acro_bwd_ok and ntd == 1
                    and self._acro_backward(ftid)):
                ub += self.w_acrob
        ltid = f.last_tid[nid]
        if ltid != NO_TOKEN and ltid == self._q_last_tid:
            ub += self.w_last
        iid = f.initials_id[nid]
        if iid != NO_TOKEN:
            if self.w_initsim and self._q_initials:
                ub += self.w_initsim * self._initials_sim(iid)
            if (self._acro_fwd_token is not None and ntd >= 2
                    and self._acro_forward(iid)):
                ub += self.w_acrof

        # Synonyms.
        if syn_hits:
            ub += self.w_syn * (syn_hits / self._len_tuple)
        if synset and self._eq_size:
            r = synset / self._eq_size
            ub += self.w_synset * (r if r < 1.0 else 1.0)

        # Keywords.
        kd = f.kw_count[nid]
        n_kw = self._n_kw
        if kd and n_kw:
            ikw = m_kw if m_kw < kd else kd
            if ikw:
                ub += self.w_kjac * (ikw / (n_kw + kd - ikw))
                ub += self.w_kovl * (ikw / (n_kw if n_kw < kd else kd))
        if m_kw and n_kw:
            ub += self.w_kin * (m_kw / n_kw)
        if kd and m_mult:
            ub += self.w_nik * (m_mult / self._len_tuple)

        # TF-IDF family.
        if m_qset:
            v = math.sqrt(idf_sq) / self._norm_q
            ub += self.w_tfidf * (v if v < 1.0 else 1.0)
            if self._total_idf:
                ub += self.w_idfcov * (idf_sum / self._total_idf)
            ub += self.w_rare * idf_max

        # Numeric / measurement witnesses.
        flags = f.flags[nid]
        if self._q_has_numbers and flags & HAS_NUMBERS:
            ub += self.w_numeric
        if self._q_has_meas and flags & HAS_MEASUREMENT:
            ub += self.w_unit

        # Degree prior (exact).
        if self.w_degree:
            dv = self._degree_memo.get(degree)
            if dv is None:
                dv = math.log1p(degree) / self._log_max
                if dv > 1.0:
                    dv = 1.0
                self._degree_memo[degree] = dv
            ub += self.w_degree * dv
        return ub if ub < 1.0 else 1.0
