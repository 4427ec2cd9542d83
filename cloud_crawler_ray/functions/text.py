"""Text kernels for the training-data pipeline operators.

All functions are pure and deterministic, designed to be bit-identical with
the DuckDB SQL the driver runs as the correctness oracle:
- tokenize ≡ regexp_split_to_array(lower(text), '\\s+') minus empty strings
- fingerprint ≡ md5(trim(regexp_replace(lower(text), '\\s+', ' ', 'g')))
Counts are returned as ints (never ratios) so Ray/SQL hash comparison is
exact.
"""

from __future__ import annotations

import hashlib
import re

_WS = re.compile(r"\s+")
_PUNCT = set(".,!?;:'\"()[]{}-")

# small fixed stopword list (quality scoring; reference analog: the user-DSL
# word-count examples, examples/word_count.rb)
STOPWORDS = ("the", "a", "of", "and", "to", "in")

# per-language marker tokens for the n-gram/stopword language heuristic
LANG_MARKERS: dict[str, frozenset] = {
    "en": frozenset({"the", "a", "and", "of", "to", "is", "in", "that", "it", "for"}),
    "de": frozenset({"der", "die", "das", "und", "ist", "nicht", "ein", "zu", "mit", "von"}),
    "fr": frozenset({"le", "la", "les", "et", "est", "un", "une", "de", "que", "pour"}),
    "es": frozenset({"el", "la", "los", "y", "es", "un", "una", "de", "que", "por"}),
}
_CJK = re.compile(r"[一-鿿]")


def tokenize(text: str) -> list[str]:
    # str.split() splits on exactly the characters \s matches in a str
    # pattern and drops empty tokens: the regex split minus empty strings
    return text.lower().split()


def token_count(text: str) -> int:
    return len(tokenize(text))


def normalize_text(text: str) -> str:
    return _WS.sub(" ", text.lower()).strip()


def fingerprint(text: str) -> str:
    """Document fingerprint: md5 of the whitespace/case-normalized text."""
    return hashlib.md5(normalize_text(text).encode("utf-8")).hexdigest()


_TOKHASH_CACHE: dict[str, int] = {}


def _tok_hash(tok: str) -> int:
    """Memoized token hash — natural-language token streams repeat heavily,
    and blake2b per occurrence dominated the scoring hook. Bounded cache."""
    h = _TOKHASH_CACHE.get(tok)
    if h is None:
        if len(_TOKHASH_CACHE) > 1_000_000:
            _TOKHASH_CACHE.clear()
        h = int.from_bytes(hashlib.blake2b(tok.encode(), digest_size=4).digest(), "little")
        _TOKHASH_CACHE[tok] = h
    return h


def rolling_fingerprint(text: str, window: int = 8, mod: int = 1 << 31) -> int:
    """Polynomial rolling hash over the token stream (Rabin-Karp style) —
    the order-sensitive fingerprint variant; deterministic, not SQL-oracled."""
    h = 0
    cached = _TOKHASH_CACHE.get  # _tok_hash's lookup, inlined
    for tok in tokenize(text):
        th = cached(tok)
        if th is None:
            th = _tok_hash(tok)
        h = (h * 1000003 + th) % mod
    return h


def quality_counts(text: str) -> dict[str, int]:
    toks = tokenize(text)
    return {
        "n_chars": len(text),
        "n_tokens": len(toks),
        # C-speed scans (identical counts to the per-token/per-char loops:
        # a token equals at most one stopword)
        "n_stopwords": sum(map(toks.count, STOPWORDS)),
        "n_punct": sum(text.count(c) for c in _PUNCT),
        "n_alpha": _n_alpha(text),
    }


_ASCII_LETTERS = bytes(range(65, 91)) + bytes(range(97, 123))


def _n_alpha(text: str) -> int:
    """sum(map(str.isalpha, text)); an ASCII text's letters are A-Z, a-z,
    counted by deleting them from its bytes."""
    if text.isascii():
        b = text.encode("ascii")
        return len(b) - len(b.translate(None, _ASCII_LETTERS))
    return sum(map(str.isalpha, text))


def lang_id(text: str) -> str:
    """Heuristic language ID: CJK character share → zh; otherwise the
    language whose marker-token hit count is highest (ties break by fixed
    language order, unknown when no marker hits)."""
    if len(_CJK.findall(text)) >= max(1, len(text) // 20):
        return "zh"
    toks = tokenize(text)
    best_lang, best_hits = "unknown", 0
    for lang in ("en", "de", "fr", "es"):
        hits = sum(1 for t in toks if t in LANG_MARKERS[lang])
        if hits > best_hits:
            best_lang, best_hits = lang, hits
    return best_lang


def char_shingles(text: str, k: int = 5) -> set[str]:
    s = normalize_text(text)
    if len(s) < k:
        return {s} if s else set()
    return {s[i : i + k] for i in range(len(s) - k + 1)}


def word_shingles(text: str, k: int = 3) -> set[str]:
    toks = tokenize(text)
    if len(toks) < k:
        return {" ".join(toks)} if toks else set()
    return {" ".join(toks[i : i + k]) for i in range(len(toks) - k + 1)}


def change_rate_fp(n_changed, n_checked):
    """Cho & Garcia-Molina (TOIT 2003) Poisson change-rate estimator from
    one recheck pass: lambda-hat = -ln(1 - X/n) per unit recheck interval,
    returned in 2^20 fixed point (int64). Vectorized over numpy arrays;
    X == n (every recheck changed) saturates the estimator -> sentinel -1
    (recrawl 'as often as possible'); n == 0 -> 0. Both the distributed
    query and its serial twin call THIS function, so the fixed-point
    floats are bit-identical by construction."""
    import numpy as np

    n_changed = np.asarray(n_changed, np.int64)
    n_checked = np.asarray(n_checked, np.int64)
    out = np.zeros(len(n_changed), np.int64)
    ok = (n_checked > 0) & (n_changed < n_checked)
    frac = np.zeros(len(out), np.float64)
    np.divide(n_changed, n_checked, out=frac, where=n_checked > 0)
    lam = np.floor(-np.log1p(-frac[ok]) * (1 << 20))
    out[ok] = lam.astype(np.int64)
    out[(n_checked > 0) & (n_changed >= n_checked)] = -1
    return out
