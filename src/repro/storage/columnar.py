"""Columnar batch representation for the local (non-provider) hot paths.

Per-record Python dicts and per-pair string loops dominate the system's
non-provider time (see ``RunProfile``'s provider/local split).  This module
introduces the columnar substrate those hot paths vectorize over:

- :class:`Vocabulary` — a deterministic (sorted) token -> id mapping shared
  by every row of a column, so set metrics and joins run over ``int32``
  arrays instead of Python string sets;
- :class:`TokenColumn` — one column of strings with **one-pass cached
  tokenization**: each distinct text is tokenized exactly once, and the
  column keeps flat CSR-style arrays of token ids, sorted-unique token-id
  sets and character codepoints;
- :class:`ColumnarBlock` — a batch of records as named columns, with a
  JSON-safe codec (:meth:`ColumnarBlock.to_payload`) so blocks interoperate
  with the streaming engine's :class:`repro.storage.spill.SpillStore`;
- low-level packing kernels (:func:`pack_codepoints`, :func:`token_id_rows`,
  :func:`unique_id_rows`) used by the vectorized similarity functions in
  :mod:`repro.text.similarity`;
- the batched MinHash / LSH kernels (:func:`minhash_signatures_many`,
  :func:`band_keys_many`) behind the dedup candidate scan.

Every vectorized call site is the only production path; the scalar
implementation it replaced stays beside it as the reference the
equivalence suites compare against by name.

Determinism contract: token ids are assigned in sorted token order and all
array layouts are pure functions of the input rows, so two processes (or a
spill/restore round trip) always agree bit for bit.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "Vocabulary",
    "TokenColumn",
    "ColumnarBlock",
    "pack_codepoints",
    "token_id_rows",
    "unique_id_rows",
    "spill_encode",
    "spill_decode",
    "minhash_signatures_many",
    "band_keys_many",
]


# ---------------------------------------------------------------------------
# Packing kernels
# ---------------------------------------------------------------------------


def pack_codepoints(texts: Sequence[str], fill: int = -1) -> tuple[np.ndarray, np.ndarray]:
    """Pack strings into a padded ``(n, max_len)`` int32 codepoint matrix.

    Returns ``(codes, lengths)``.  Cells past a row's length hold ``fill``;
    pick distinct fills for the two sides of a pair batch so padding never
    compares equal.  An all-empty batch yields a ``(n, 0)`` matrix.
    """
    n = len(texts)
    lengths = np.fromiter((len(t) for t in texts), dtype=np.int64, count=n)
    width = int(lengths.max()) if n else 0
    codes = np.full((n, width), fill, dtype=np.int32)
    if width:
        flat = np.frombuffer(
            "".join(texts).encode("utf-32-le"), dtype=np.uint32
        ).astype(np.int32)
        mask = np.arange(width)[None, :] < lengths[:, None]
        codes[mask] = flat
    return codes, lengths


def token_id_rows(
    rows: Sequence[Sequence[str]], vocab: "Vocabulary"
) -> tuple[np.ndarray, np.ndarray]:
    """Flatten token rows into ``(ids, offsets)`` CSR arrays (order kept)."""
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(row) for row in rows], out=offsets[1:])
    ids = np.empty(int(offsets[-1]), dtype=np.int32)
    position = 0
    lookup = vocab._ids
    for row in rows:
        for token in row:
            ids[position] = lookup.get(token, -1)
            position += 1
    return ids, offsets


def unique_id_rows(
    ids: np.ndarray, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row sorted-unique reduction of a CSR token-id layout."""
    n = len(offsets) - 1
    out_offsets = np.zeros(n + 1, dtype=np.int64)
    chunks: list[np.ndarray] = []
    for i in range(n):
        row = np.unique(ids[offsets[i] : offsets[i + 1]])
        chunks.append(row)
        out_offsets[i + 1] = out_offsets[i] + len(row)
    flat = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int32)
    return flat.astype(np.int32, copy=False), out_offsets


# ---------------------------------------------------------------------------
# Vocabulary
# ---------------------------------------------------------------------------


class Vocabulary:
    """Deterministic token -> id mapping (ids follow sorted token order).

    Sorted assignment is the whole point: a vocabulary built from the same
    token multiset is identical across runs, platforms and processes, so
    every downstream array (and every float accumulated in id order) is
    reproducible.
    """

    __slots__ = ("tokens", "_ids")

    def __init__(self, tokens: Iterable[str]):
        self.tokens: tuple[str, ...] = tuple(sorted(set(tokens)))
        self._ids: dict[str, int] = {t: i for i, t in enumerate(self.tokens)}

    @classmethod
    def from_token_rows(cls, rows: Iterable[Sequence[str]]) -> "Vocabulary":
        """Build from many token rows in one pass."""
        seen: set[str] = set()
        for row in rows:
            seen.update(row)
        return cls(seen)

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._ids

    def id_of(self, token: str) -> int:
        """Id of ``token`` (``-1`` when out of vocabulary)."""
        return self._ids.get(token, -1)

    def encode(self, tokens: Sequence[str]) -> np.ndarray:
        """Encode a token sequence to an int32 id array (OOV -> ``-1``)."""
        return np.fromiter(
            (self._ids.get(t, -1) for t in tokens), dtype=np.int32, count=len(tokens)
        )

    def to_payload(self) -> list[str]:
        """JSON-safe form."""
        return list(self.tokens)

    @classmethod
    def from_payload(cls, payload: Sequence[str]) -> "Vocabulary":
        """Rebuild from :meth:`to_payload` output."""
        vocab = cls.__new__(cls)
        vocab.tokens = tuple(payload)
        vocab._ids = {t: i for i, t in enumerate(vocab.tokens)}
        return vocab


# ---------------------------------------------------------------------------
# TokenColumn
# ---------------------------------------------------------------------------


def _default_tokenizer(text: str) -> list[str]:
    return text.split()


class TokenColumn:
    """One column of a :class:`ColumnarBlock`: texts plus derived arrays.

    Arrays:

    - ``token_ids`` / ``offsets`` — every token of every row, in row order
      (CSR layout over the column's :class:`Vocabulary`);
    - ``set_ids`` / ``set_offsets`` — per-row **sorted unique** token ids,
      the layout set metrics and joins consume;
    - ``char_codes`` / ``char_offsets`` — per-row Unicode codepoints for
      edit-distance metrics.

    Tokenization is one-pass cached: each *distinct* text in the column is
    tokenized exactly once, however many rows repeat it.
    """

    __slots__ = (
        "texts",
        "vocab",
        "token_ids",
        "offsets",
        "set_ids",
        "set_offsets",
        "char_codes",
        "char_offsets",
    )

    def __init__(
        self,
        texts: Sequence[str],
        tokenizer: Callable[[str], list[str]] | None = None,
        vocab: Vocabulary | None = None,
    ):
        tokenize = tokenizer or _default_tokenizer
        self.texts: tuple[str, ...] = tuple(texts)
        token_cache: dict[str, list[str]] = {}
        rows: list[list[str]] = []
        for text in self.texts:
            cached = token_cache.get(text)
            if cached is None:
                cached = tokenize(text)
                token_cache[text] = cached
            rows.append(cached)
        self.vocab = vocab if vocab is not None else Vocabulary.from_token_rows(rows)
        self.token_ids, self.offsets = token_id_rows(rows, self.vocab)
        self.set_ids, self.set_offsets = unique_id_rows(self.token_ids, self.offsets)
        flat_codes: list[np.ndarray] = []
        self.char_offsets = np.zeros(len(self.texts) + 1, dtype=np.int64)
        for i, text in enumerate(self.texts):
            codes = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
            flat_codes.append(codes.astype(np.int32))
            self.char_offsets[i + 1] = self.char_offsets[i] + len(codes)
        self.char_codes = (
            np.concatenate(flat_codes) if flat_codes else np.empty(0, dtype=np.int32)
        )

    def __len__(self) -> int:
        return len(self.texts)

    def row_token_ids(self, i: int) -> np.ndarray:
        """Token ids of row ``i`` in text order."""
        return self.token_ids[self.offsets[i] : self.offsets[i + 1]]

    def row_set_ids(self, i: int) -> np.ndarray:
        """Sorted unique token ids of row ``i``."""
        return self.set_ids[self.set_offsets[i] : self.set_offsets[i + 1]]

    def arrays(self) -> dict[str, np.ndarray]:
        """The derived arrays by name (used by tests and the codec)."""
        return {
            "token_ids": self.token_ids,
            "offsets": self.offsets,
            "set_ids": self.set_ids,
            "set_offsets": self.set_offsets,
            "char_codes": self.char_codes,
            "char_offsets": self.char_offsets,
        }

    def arrays_equal(self, other: "TokenColumn") -> bool:
        """Whether every derived array (and the vocab) matches exactly."""
        if self.texts != other.texts or self.vocab.tokens != other.vocab.tokens:
            return False
        mine, theirs = self.arrays(), other.arrays()
        return all(np.array_equal(mine[name], theirs[name]) for name in mine)

    def to_payload(self) -> dict[str, Any]:
        """JSON-safe form; arrays are stored explicitly, not re-derived."""
        payload: dict[str, Any] = {
            "texts": list(self.texts),
            "vocab": self.vocab.to_payload(),
        }
        for name, array in self.arrays().items():
            payload[name] = array.tolist()
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "TokenColumn":
        """Rebuild from :meth:`to_payload` output (bit-exact arrays)."""
        column = cls.__new__(cls)
        column.texts = tuple(payload["texts"])
        column.vocab = Vocabulary.from_payload(payload["vocab"])
        column.token_ids = np.asarray(payload["token_ids"], dtype=np.int32)
        column.offsets = np.asarray(payload["offsets"], dtype=np.int64)
        column.set_ids = np.asarray(payload["set_ids"], dtype=np.int32)
        column.set_offsets = np.asarray(payload["set_offsets"], dtype=np.int64)
        column.char_codes = np.asarray(payload["char_codes"], dtype=np.int32)
        column.char_offsets = np.asarray(payload["char_offsets"], dtype=np.int64)
        return column


# ---------------------------------------------------------------------------
# ColumnarBlock
# ---------------------------------------------------------------------------

_BLOCK_MARKER = "__columnar_block__"


class ColumnarBlock:
    """A batch of records as named :class:`TokenColumn` columns."""

    __slots__ = ("columns", "n_rows")

    def __init__(self, columns: Mapping[str, TokenColumn]):
        self.columns: dict[str, TokenColumn] = dict(columns)
        sizes = {len(column) for column in self.columns.values()}
        if len(sizes) > 1:
            raise ValueError(f"ragged block: column sizes {sorted(sizes)}")
        self.n_rows = sizes.pop() if sizes else 0

    @classmethod
    def from_records(
        cls,
        records: Sequence[Mapping[str, Any]],
        fields: Sequence[str],
        clean: Callable[[Any], str] | None = None,
        tokenizer: Callable[[str], list[str]] | None = None,
    ) -> "ColumnarBlock":
        """Columnarize ``records`` over ``fields``.

        ``clean`` maps a raw field value to the text that is columnarized
        (default: ``str(value)`` with ``None`` -> ``""``), applied once per
        distinct raw value.
        """
        to_text = clean or (lambda value: "" if value is None else str(value))
        clean_cache: dict[Any, str] = {}
        columns: dict[str, TokenColumn] = {}
        for field in fields:
            texts: list[str] = []
            for record in records:
                value = record.get(field)
                # Type-tagged key: True == 1 == 1.0 as dict keys, but they
                # clean to different texts.
                key = (
                    (type(value).__name__, value)
                    if isinstance(value, (str, int, float, bool))
                    else None
                )
                if key is not None and key in clean_cache:
                    texts.append(clean_cache[key])
                    continue
                text = to_text(value)
                if key is not None:
                    clean_cache[key] = text
                texts.append(text)
            columns[field] = TokenColumn(texts, tokenizer=tokenizer)
        return cls(columns)

    def column(self, name: str) -> TokenColumn:
        """Fetch a column by field name."""
        return self.columns[name]

    def arrays_equal(self, other: "ColumnarBlock") -> bool:
        """Whether both blocks hold identical columns and arrays."""
        if set(self.columns) != set(other.columns):
            return False
        return all(
            column.arrays_equal(other.columns[name])
            for name, column in self.columns.items()
        )

    def to_payload(self) -> dict[str, Any]:
        """JSON-safe form understood by :func:`spill_decode`."""
        return {
            _BLOCK_MARKER: 1,
            "columns": {name: col.to_payload() for name, col in self.columns.items()},
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "ColumnarBlock":
        """Rebuild from :meth:`to_payload` output."""
        return cls(
            {
                name: TokenColumn.from_payload(column)
                for name, column in payload["columns"].items()
            }
        )


def spill_encode(value: Any) -> Any:
    """Spill-store codec: columnar blocks become JSON payloads, rest passes."""
    if isinstance(value, ColumnarBlock):
        return value.to_payload()
    return value


def spill_decode(value: Any) -> Any:
    """Inverse of :func:`spill_encode`."""
    if isinstance(value, Mapping) and value.get(_BLOCK_MARKER) == 1:
        return ColumnarBlock.from_payload(value)
    return value


# ---------------------------------------------------------------------------
# MinHash / LSH kernels (vectorized counterparts of repro.text.minhash)
# ---------------------------------------------------------------------------

# Shingle ids and the multipliers both live below 2**31, so a*x + b stays
# under 2**62: uint64 arithmetic computes the exact residue and the kernels
# below are *bitwise* equal to the scalar oracles, not approximately so.
_MINHASH_PRIME = np.uint64((1 << 31) - 1)


def minhash_signatures_many(
    id_rows: Sequence[Sequence[int]], a: Sequence[int], b: Sequence[int]
) -> np.ndarray:
    """MinHash signatures for a batch of shingle-id sets.

    ``a``/``b`` come from :func:`repro.text.minhash.minhash_params`.  Returns
    an ``(n_docs, num_perm)`` ``uint64`` array; empty rows get the all-
    ``EMPTY_SLOT`` (= prime) sentinel, matching the scalar oracle.
    """
    num_perm = len(a)
    a_arr = np.asarray(a, dtype=np.uint64)
    b_arr = np.asarray(b, dtype=np.uint64)
    out = np.full((len(id_rows), num_perm), _MINHASH_PRIME, dtype=np.uint64)
    for row_index, ids in enumerate(id_rows):
        if not len(ids):
            continue
        x = np.asarray(ids, dtype=np.uint64)
        # (n_ids, num_perm) residue table; min over the id axis.
        hashed = (x[:, None] * a_arr[None, :] + b_arr[None, :]) % _MINHASH_PRIME
        out[row_index] = hashed.min(axis=0)
    return out


def band_keys_many(signatures: np.ndarray, bands: int, rows: int) -> list[list[str]]:
    """LSH band keys per signature row, bitwise-equal to the scalar path.

    The digest input is the 4-byte little-endian band index followed by the
    band's values packed ``<u4`` — exactly the :func:`repro.text.minhash.band_key`
    layout — so candidate buckets agree with the scalar reference.
    """
    import hashlib
    import struct

    if signatures.ndim != 2 or signatures.shape[1] != bands * rows:
        raise ValueError(
            f"signatures must be (n, {bands * rows}), got {signatures.shape}"
        )
    packed = signatures.astype("<u4")
    prefixes = [struct.pack("<I", i) for i in range(bands)]
    keys: list[list[str]] = []
    for row in packed:
        keys.append(
            [
                hashlib.blake2b(
                    prefixes[i] + row[i * rows : (i + 1) * rows].tobytes(),
                    digest_size=8,
                ).hexdigest()
                for i in range(bands)
            ]
        )
    return keys
