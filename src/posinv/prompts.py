"""Structured prompts: a prefix, k order-agnostic documents, and a suffix.

Tokenization is byte-level (token id == byte value); ids 256+ are reserved
for specials.  Document boundaries are supplied explicitly by the prompt
file, never inferred from delimiters, so segment spans are token-exact.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Sequence

BOS_TOKEN = 256
N_SPECIALS = 2
BYTE_VOCAB = 256


class PromptError(ValueError):
    """Malformed prompt file or invalid segment structure."""


class PromptDecodeError(PromptError):
    """A file that is not JSON in UTF-8, or text that cannot be encoded as UTF-8."""


@dataclass(frozen=True)
class SegmentedPrompt:
    prefix: str
    documents: tuple[str, ...]
    suffix: str

    def __post_init__(self):
        for d in self.documents:
            if d == "":
                raise PromptError("empty document")
        for text in (self.prefix, *self.documents, self.suffix):
            try:
                text.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise PromptDecodeError(f"prompt text is not encodable as UTF-8: {exc}") from exc

    @property
    def k(self) -> int:
        return len(self.documents)


@dataclass(frozen=True)
class SequenceLayout:
    """Partition of the token sequence into prefix / documents / suffix.

    Spans are half-open [start, end) storage-index ranges, contiguous and
    ordered prefix < docs < suffix.  ``doc_hashes``, one per document, are
    stable 64-bit content hashes of its token ids, used for
    permutation-invariant tie-breaking downstream.
    """

    n: int
    prefix_len: int
    doc_spans: tuple[tuple[int, int], ...]
    suffix_start: int
    doc_hashes: tuple[int, ...]

    def __post_init__(self):
        if len(self.doc_hashes) != len(self.doc_spans):
            raise PromptError(f"{len(self.doc_hashes)} content hashes for {self.k} documents")

    @property
    def k(self) -> int:
        return len(self.doc_spans)

    def doc_len(self, j: int) -> int:
        s, e = self.doc_spans[j]
        return e - s

    def extend(self, extra: int) -> "SequenceLayout":
        """Layout covering ``extra`` more suffix tokens (decoded tokens
        are suffix queries)."""
        return replace(self, n=self.n + extra)


def content_hash(token_ids: Sequence[int]) -> int:
    """Stable 64-bit hash of a token id sequence (process-independent)."""
    raw = b"".join(int(t).to_bytes(4, "little") for t in token_ids)
    return int.from_bytes(hashlib.blake2b(raw, digest_size=8).digest(), "little")


def read_json_object(path, what: str) -> dict:
    """The JSON object a UTF-8 file holds; ``what`` names the file in errors."""
    with open(path, encoding="utf-8") as f:
        try:
            obj = json.load(f)
        except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, huge ints, too deep
            raise PromptDecodeError(f"malformed {what} {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise PromptError(f"{what} must be a JSON object")
    return obj


def parse_prompt_file(path) -> SegmentedPrompt:
    """Load a JSON prompt file with keys prefix, documents, suffix."""
    obj = read_json_object(path, "prompt file")
    try:
        prefix = obj["prefix"]
        documents = obj["documents"]
        suffix = obj["suffix"]
    except KeyError as exc:
        raise PromptError(f"prompt file missing key {exc}") from exc
    if not isinstance(documents, list) or not all(isinstance(d, str) for d in documents):
        raise PromptError("documents must be an array of strings")
    if not isinstance(prefix, str) or not isinstance(suffix, str):
        raise PromptError("prefix and suffix must be strings")
    return SegmentedPrompt(prefix, tuple(documents), suffix)


def tokenize(prompt: SegmentedPrompt, bos: bool = False) -> tuple[list[int], SequenceLayout]:
    """Byte-level tokenization; a BOS token (if enabled) joins the prefix."""
    tokens: list[int] = [BOS_TOKEN] if bos else []
    tokens.extend(prompt.prefix.encode("utf-8"))
    prefix_len = len(tokens)
    spans = []
    hashes = []
    for doc in prompt.documents:
        ids = list(doc.encode("utf-8"))
        spans.append((len(tokens), len(tokens) + len(ids)))
        hashes.append(content_hash(ids))
        tokens.extend(ids)
    suffix_start = len(tokens)
    tokens.extend(prompt.suffix.encode("utf-8"))
    layout = SequenceLayout(
        n=len(tokens),
        prefix_len=prefix_len,
        doc_spans=tuple(spans),
        suffix_start=suffix_start,
        doc_hashes=tuple(hashes),
    )
    return tokens, layout


def detokenize(token_ids: Sequence[int]) -> str:
    """Inverse of tokenize for byte ids; specials are dropped."""
    return bytes(t for t in token_ids if t < BYTE_VOCAB).decode("utf-8", errors="replace")


def permute_documents(prompt: SegmentedPrompt, perm: Sequence[int]) -> SegmentedPrompt:
    """Reorder documents by ``perm``; prefix and suffix are untouched."""
    if sorted(perm) != list(range(prompt.k)):
        raise PromptError(f"invalid permutation {tuple(perm)} for k={prompt.k}")
    return replace(prompt, documents=tuple(prompt.documents[p] for p in perm))
