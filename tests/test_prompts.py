import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posinv.prompts import (
    PromptError,
    SegmentedPrompt,
    SequenceLayout,
    detokenize,
    parse_prompt_file,
    permute_documents,
    tokenize,
)


def write_prompt(tmp_path, obj):
    path = tmp_path / "prompt.json"
    path.write_text(json.dumps(obj))
    return path


class TestParsePromptFile:
    def test_direct_parse(self, tmp_path):
        p = parse_prompt_file(
            write_prompt(tmp_path, {"prefix": "S", "documents": ["A", "B"], "suffix": "Q"})
        )
        assert p.k == 2
        assert p.documents == ("A", "B")

    def test_no_documents(self, tmp_path):
        p = parse_prompt_file(
            write_prompt(tmp_path, {"prefix": "S", "documents": [], "suffix": "Q"})
        )
        assert p.k == 0

    def test_empty_document(self, tmp_path):
        path = write_prompt(tmp_path, {"prefix": "S", "documents": ["A", ""], "suffix": "Q"})
        with pytest.raises(PromptError, match="empty document"):
            parse_prompt_file(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(PromptError):
            parse_prompt_file(path)

    def test_missing_key(self, tmp_path):
        path = write_prompt(tmp_path, {"prefix": "S", "documents": []})
        with pytest.raises(PromptError):
            parse_prompt_file(path)

    def test_integer_too_long_to_parse(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text('{"prefix": ' + "1" * 5000 + ', "documents": [], "suffix": ""}')
        with pytest.raises(PromptError):
            parse_prompt_file(path)

    @pytest.mark.parametrize("obj, match", [
        (["S", ["A"], "Q"], "JSON object"),
        ({"prefix": "S", "documents": "AB", "suffix": "Q"}, "array of strings"),
        ({"prefix": "S", "documents": ["A", 3], "suffix": "Q"}, "array of strings"),
        ({"prefix": 1, "documents": ["A"], "suffix": "Q"}, "prefix and suffix"),
        ({"prefix": "S", "documents": ["A"], "suffix": None}, "prefix and suffix"),
    ], ids=["not-an-object", "documents-a-string", "non-string-document", "number-prefix",
            "null-suffix"])
    def test_wrong_types_rejected(self, tmp_path, obj, match):
        with pytest.raises(PromptError, match=match):
            parse_prompt_file(write_prompt(tmp_path, obj))

    def test_lone_surrogate_rejected(self, tmp_path):
        path = write_prompt(tmp_path, {"prefix": "S", "documents": ["A\ud800"], "suffix": "Q"})
        with pytest.raises(PromptError, match="UTF-8"):
            parse_prompt_file(path)

    # Raw bytes, plus JSON prompts whose text includes lone surrogates,
    # which raw bytes almost never spell out.
    _text = st.text(st.characters() | st.characters(categories=["Cs"]), max_size=6)

    @given(st.one_of(
        st.binary(max_size=64),
        st.builds(lambda p, d, s: json.dumps({"prefix": p, "documents": d, "suffix": s}).encode(),
                  _text, st.lists(_text, max_size=3), _text),
    ))
    @settings(max_examples=200, deadline=None)
    def test_any_bytes_raise_prompt_error_or_tokenize(self, data):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "prompt.json"
            path.write_bytes(data)
            try:
                prompt = parse_prompt_file(path)
            except PromptError:
                return
        tokens, layout = tokenize(prompt)
        assert layout.n == len(tokens)


class TestTokenize:
    def test_running_example_spans(self):
        # 1-byte prefix, three 2-byte docs, 1-byte suffix: 1+2+2+2+1 tokens.
        tokens, layout = tokenize(SegmentedPrompt("S", ("AB", "CD", "EF"), "Q"))
        assert layout.n == 8
        assert layout.prefix_len == 1
        assert layout.doc_spans == ((1, 3), (3, 5), (5, 7))
        assert layout.suffix_start == 7
        assert tokens == list(b"SABCDEFQ")

    def test_minimal_layout(self):
        tokens, layout = tokenize(SegmentedPrompt("", ("X",), ""))
        assert layout.n == 1
        assert layout.doc_spans == ((0, 1),)

    def test_bos_joins_prefix(self):
        tokens, layout = tokenize(SegmentedPrompt("S", ("A",), "Q"), bos=True)
        assert tokens[0] == 256
        assert layout.prefix_len == 2

    def test_permutation_keeps_geometry_for_equal_lengths(self):
        p = SegmentedPrompt("S", ("AB", "CD", "EF"), "Q")
        _, base = tokenize(p)
        _, permuted = tokenize(permute_documents(p, [2, 0, 1]))
        assert permuted.n == base.n
        assert permuted.prefix_len == base.prefix_len
        assert permuted.suffix_start == base.suffix_start
        assert permuted.doc_spans == base.doc_spans

    def test_n_invariant_for_unequal_lengths(self):
        p = SegmentedPrompt("S", ("A", "BCD"), "Q")
        _, base = tokenize(p)
        _, permuted = tokenize(permute_documents(p, [1, 0]))
        assert permuted.n == base.n
        assert sorted(e - s for s, e in permuted.doc_spans) == sorted(
            e - s for s, e in base.doc_spans
        )

    def test_roundtrip(self):
        text = "prefix αβ docs"
        tokens, _ = tokenize(SegmentedPrompt(text, (), ""))
        assert detokenize(tokens) == text

    def test_doc_hashes_follow_content(self):
        p = SegmentedPrompt("S", ("AB", "CD"), "Q")
        _, a = tokenize(p)
        _, b = tokenize(permute_documents(p, [1, 0]))
        assert a.doc_hashes == (b.doc_hashes[1], b.doc_hashes[0])

    @pytest.mark.parametrize("hashes", [(), (7,), (7, 8, 9)])
    def test_one_hash_per_document(self, hashes):
        # Every document needs a content hash: the canonical order sorts by them.
        with pytest.raises(PromptError, match="hashes for 2 documents"):
            SequenceLayout(n=6, prefix_len=1, doc_spans=((1, 3), (3, 5)), suffix_start=5,
                           doc_hashes=hashes)


class TestPermuteDocuments:
    def test_identity(self):
        p = SegmentedPrompt("S", ("A", "B"), "Q")
        assert permute_documents(p, [0, 1]) == p

    def test_swap(self):
        p = SegmentedPrompt("S", ("A", "B"), "Q")
        assert permute_documents(p, [1, 0]).documents == ("B", "A")

    def test_invalid(self):
        p = SegmentedPrompt("S", ("A", "B"), "Q")
        with pytest.raises(PromptError):
            permute_documents(p, [0, 0])

    @given(st.permutations(list(range(4))))
    @settings(max_examples=24, deadline=None)
    def test_inverse_restores(self, perm):
        p = SegmentedPrompt("S", ("A", "BB", "CCC", "DDDD"), "Q")
        inverse = [0] * 4
        for i, j in enumerate(perm):
            inverse[j] = i
        assert permute_documents(permute_documents(p, perm), inverse) == p
