"""Sparse rational series over X-words, Y-words, and T-graded Y-words.

Every series carries an explicit weight_bound: terms above the bound are
dropped on construction, and binary operations truncate to the minimum of the
two bounds.  Coefficients are exact rationals; zero coefficients are never
stored.  Instances are immutable: attributes cannot be set, no method
mutates terms, and all operations return new series.  The three classes share
one body and differ only in their keys.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable, Mapping

from .errors import NonzeroLowWeight
from .words import XWord, YWord, is_xword, is_yword

TWord = tuple  # (t_exp, YWord)

JSON_FORMAT = "ncseries-v1"


def _coeff(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def _json_coeff(value) -> Fraction:
    """An exact coefficient read from JSON: an integer or a "p"/"p/q" string.
    Floats are rejected, not converted to their binary value."""
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in coefficient {value!r}") from None
    raise ValueError(f"coefficient must be an integer or a string, got {value!r}")


def _json_terms(data: dict, alphabet: str, key) -> tuple[list, int]:
    """The (key, coeff) pairs and the weight bound of a series JSON object,
    checked for format, alphabet, well-formed terms and exact coefficients;
    key(term) reads and checks the word of one term."""
    if data.get("format") != JSON_FORMAT:
        raise ValueError(f"unknown series format: {data.get('format')!r}")
    if data.get("alphabet") != alphabet:
        raise ValueError(f"expected alphabet {alphabet!r}, got {data.get('alphabet')!r}")
    bound = data.get("weight_bound")
    if type(bound) is not int or bound < 0:
        raise ValueError(f"weight_bound must be a nonnegative integer, got {bound!r}")
    terms = data.get("terms")
    if not isinstance(terms, list):
        raise ValueError("series JSON needs a list of terms")
    out = []
    for t in terms:
        try:
            out.append((key(t), _json_coeff(t["coeff"])))
        except (KeyError, TypeError):
            raise ValueError(f"malformed term: {t!r}") from None
    return out, bound


def coeff_str(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _normalize(items: Iterable[tuple], weight_bound: int, weight) -> dict:
    out: dict = {}
    for w, c in items:
        if weight(w) > weight_bound:
            continue
        c = _coeff(c)
        if c == 0:
            continue
        acc = out.get(w)
        if acc is None:
            out[w] = c
        else:
            acc = acc + c
            if acc == 0:
                del out[w]
            else:
                out[w] = acc
    return out


class _SeriesOps:
    """The body shared by the three sparse series classes.

    A subclass declares only its keys: _weight(key), the key test _is_key
    and its noun for the error message, the JSON alphabet, the JSON fields
    of one key (_key_json) and their reader (_read_key), and how a key is
    shown in the repr (_show).
    """

    terms: dict
    weight_bound: int

    def __init__(self, items=(), weight_bound: int = 0):
        if isinstance(items, Mapping):
            items = items.items()
        terms = _normalize(items, weight_bound, self._weight)
        for key in terms:
            if not self._is_key(key):
                raise ValueError(f"not {self._noun}: {key!r}")
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "weight_bound", weight_bound)

    def __init_subclass__(cls):
        # Each class holds its own reader, so that it can be rebound on one
        # alphabet alone (bench/tracing.py times XSeries reads this way).
        cls.from_json_dict = classmethod(_SeriesOps.from_json_dict.__func__)

    def __setattr__(self, name, *_):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    @classmethod
    def zero(cls, bound: int):
        return cls((), bound)

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.terms == other.terms
            and self.weight_bound == other.weight_bound
        )

    __hash__ = None

    def _sorted_items(self) -> list:
        return sorted(self.terms.items(), key=lambda kv: (len(str(kv[0])), str(kv[0])))

    def __repr__(self):
        name = type(self).__name__
        if not self.terms:
            return f"{name}(0; bound={self.weight_bound})"
        body = " + ".join(f"{coeff_str(c)}*{self._show(w)}" for w, c in self._sorted_items())
        return f"{name}({body}; bound={self.weight_bound})"

    def to_json_dict(self) -> dict:
        return {
            "format": JSON_FORMAT,
            "alphabet": self._alphabet,
            "weight_bound": self.weight_bound,
            "terms": [
                {**self._key_json(w), "coeff": coeff_str(c)} for w, c in self._sorted_items()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict):
        return cls(*_json_terms(data, cls._alphabet, cls._read_key))

    def coeff(self, key) -> Fraction:
        return self.terms.get(key, Fraction(0))

    def is_zero(self) -> bool:
        return not self.terms

    def component(self, k: int):
        """The weight-k homogeneous part, same bound."""
        w = self._weight
        return type(self)(
            ((key, c) for key, c in self.terms.items() if w(key) == k), self.weight_bound
        )

    def min_weight(self) -> int | None:
        return min(map(self._weight, self.terms), default=None)

    def max_weight(self) -> int | None:
        return max(map(self._weight, self.terms), default=None)

    def truncate(self, bound: int):
        """Drop terms above bound and record the new (lower) bound."""
        return type(self)(self.terms.items(), min(bound, self.weight_bound))

    def with_bound(self, bound: int):
        """Re-declare the truncation order (may raise or lower it)."""
        return type(self)(self.terms.items(), bound)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return type(self)(
            chain(self.terms.items(), other.terms.items()),
            min(self.weight_bound, other.weight_bound),
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return type(self)(((w, -c) for w, c in self.terms.items()), self.weight_bound)

    def scale(self, c):
        c = _coeff(c)
        if c == 0:
            return type(self)((), self.weight_bound)
        return type(self)(((w, c * v) for w, v in self.terms.items()), self.weight_bound)

    def __mul__(self, c):
        return self.scale(c)

    def __rmul__(self, c):
        return self.scale(c)

    def __bool__(self):
        return bool(self.terms)


class XSeries(_SeriesOps):
    """Rational formal sum of X-words, truncated at weight_bound."""

    _weight = staticmethod(len)
    _is_key = staticmethod(is_xword)
    _noun = "an X-word"
    _alphabet = "x01"

    @staticmethod
    def _key_json(w: XWord) -> dict:
        return {"word": w}

    @staticmethod
    def _read_key(t: dict) -> XWord:
        w = t["word"]
        if not is_xword(w):
            raise ValueError(f"not an X-word: {w!r}")
        return w

    @staticmethod
    def _show(w: XWord) -> str:
        return f"[{w or '1'}]"

    @classmethod
    def unit(cls, bound: int) -> "XSeries":
        return cls([("", 1)], bound)

    @classmethod
    def word(cls, w: XWord, coeff=1, bound: int | None = None) -> "XSeries":
        return cls([(w, coeff)], len(w) if bound is None else bound)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, text: str) -> "XSeries":
        return cls.from_json_dict(json.loads(text))


class YSeries(_SeriesOps):
    """Rational formal sum of Y-words, truncated at weight_bound."""

    _weight = staticmethod(sum)
    _is_key = staticmethod(is_yword)
    _noun = "a Y-word"
    _alphabet = "y"

    @staticmethod
    def _key_json(w: YWord) -> dict:
        return {"yword": list(w)}

    @staticmethod
    def _read_key(t: dict) -> YWord:
        w = t["yword"]
        if not (isinstance(w, list) and all(type(k) is int and k >= 1 for k in w)):
            raise ValueError(f"yword must be a list of positive integers, got {w!r}")
        return tuple(w)

    @staticmethod
    def _show(w: YWord) -> str:
        return f"y{list(w)}"

    @classmethod
    def unit(cls, bound: int) -> "YSeries":
        return cls([((), 1)], bound)

    @classmethod
    def word(cls, w: YWord, coeff=1, bound: int | None = None) -> "YSeries":
        w = tuple(w)
        return cls([(w, coeff)], sum(w) if bound is None else bound)


class TYSeries(_SeriesOps):
    """Rational formal sum of (t_exp, Y-word) pairs.

    The graded weight of a term (t, w) is t + 1 + wt(w): it equals the weight
    of any X-word that projects onto the term, so binary truncation composes
    with the projection from X-series.
    """

    _noun = "a (t_exp, Y-word) key"
    _alphabet = "ty"

    @staticmethod
    def _weight(key: TWord) -> int:
        t, w = key
        return t + 1 + sum(w)

    @staticmethod
    def _is_key(key: TWord) -> bool:
        t, w = key
        return isinstance(t, int) and t >= 0 and is_yword(w)

    @staticmethod
    def _key_json(key: TWord) -> dict:
        t, w = key
        return {"t": t, "yword": list(w)}

    @staticmethod
    def _read_key(t: dict) -> TWord:
        e = t["t"]
        if type(e) is not int or e < 0:
            raise ValueError(f"t must be a nonnegative integer, got {e!r}")
        return e, YSeries._read_key(t)

    @staticmethod
    def _show(key: TWord) -> str:
        t, w = key
        return f"T^{t}*y{list(w)}"

    def _sorted_items(self) -> list:
        return sorted(self.terms.items())

    def t_layer(self, t: int) -> YSeries:
        """The Y-series multiplying T^t, with the bound lowered accordingly."""
        return YSeries(
            ((w, c) for (s, w), c in self.terms.items() if s == t),
            max(self.weight_bound - t - 1, 0),
        )


@dataclass(frozen=True)
class CornerDecomposition:
    """The four middle series of a sorting by first and last letter.

    For an input with zero coefficients at weight <= 1, the input equals
    x0*c00*x0 + x0*c01*x1 + x1*c10*x0 + x1*c11*x1 on every weight >= 2
    component; each middle series is two weights lighter.
    """

    c00: XSeries
    c01: XSeries
    c10: XSeries
    c11: XSeries

    def reassemble(self) -> XSeries:
        parts = []
        for (a, b), mid in self.items():
            for w, c in mid.terms.items():
                parts.append((a + w + b, c))
        bound = min(s.weight_bound for s in (self.c00, self.c01, self.c10, self.c11)) + 2
        return XSeries(parts, bound)

    def items(self):
        return (
            (("0", "0"), self.c00),
            (("0", "1"), self.c01),
            (("1", "0"), self.c10),
            (("1", "1"), self.c11),
        )


def corner_decompose(a: XSeries) -> CornerDecomposition:
    """Sort every word of a by its first and last letter.

    Raises NonzeroLowWeight unless the coefficients of the empty word, of x0,
    and of x1 all vanish.
    """
    for w in ("", "0", "1"):
        if a.coeff(w) != 0:
            raise NonzeroLowWeight(
                f"corner decomposition needs zero coefficient on {w or 'the empty word'}"
            )
    corners: dict[tuple, list] = {("0", "0"): [], ("0", "1"): [], ("1", "0"): [], ("1", "1"): []}
    for w, c in a.terms.items():
        corners[(w[0], w[-1])].append((w[1:-1], c))
    bound = max(a.weight_bound - 2, 0)
    return CornerDecomposition(
        c00=XSeries(corners[("0", "0")], bound),
        c01=XSeries(corners[("0", "1")], bound),
        c10=XSeries(corners[("1", "0")], bound),
        c11=XSeries(corners[("1", "1")], bound),
    )


def load_series(path) -> XSeries | YSeries | TYSeries:
    """Load a series of any of the three alphabets from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: a series file holds one JSON object")
    alphabet = data.get("alphabet")
    if alphabet == "x01":
        return XSeries.from_json_dict(data)
    if alphabet == "y":
        return YSeries.from_json_dict(data)
    if alphabet == "ty":
        return TYSeries.from_json_dict(data)
    raise ValueError(f"unknown alphabet: {alphabet!r}")
