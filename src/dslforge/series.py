"""Sparse rational series over X-words, Y-words, and T-graded Y-words.

Every series carries an explicit weight_bound: terms above the bound are
dropped on construction, and binary operations truncate to the minimum of the
two bounds.  Coefficients are exact rationals held in one normal form: a
plain int when the value is integral, a Fraction only when its denominator
is above 1, so integer inputs and bases run in native int arithmetic.  Zero
coefficients are never stored.  coeff() returns a Fraction, for a missing
word too, so dividing two coefficients stays exact.  A coefficient string,
in a file or in process, is "p" or "p/q" (_json_coeff), as str writes a
stored coefficient.  Instances are immutable: attributes cannot be set, no
method mutates terms, and all operations return new series.  The three
classes share one body and differ only in their keys.
"""

from __future__ import annotations

import json
import re
import reprlib
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import itemgetter
from typing import Iterable, Mapping

from .errors import NonzeroLowWeight
from .words import XWord, YWord, is_xword, is_yword, only_01

TWord = tuple  # (t_exp, YWord)

JSON_FORMAT = "ncseries-v1"


# A rejected value as a reader's error message shows it, bounded by reprlib.
_BOUNDED = reprlib.Repr()
_BOUNDED.maxlevel = 2
_shown = _BOUNDED.repr


def _coeff(value) -> int | Fraction:
    """An exact coefficient in normal form: an int when integral (a bool
    counts as 0 or 1), otherwise a Fraction with denominator above 1."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    if isinstance(value, str):
        return _json_coeff(value)  # the file grammar, in process too
    raise TypeError(f"not an exact rational: {_shown(value)}")


# The coefficient strings a file may hold, as str writes them: "p" or
# "p/q" in ASCII digits; and "p" strings joined by ",", a whole list at once.
_COEFF = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
_INTS = re.compile(r"-?[0-9]+(?:,-?[0-9]+)*")


def _json_coeff(value) -> int | Fraction:
    """An exact coefficient read from JSON, or from a string in process: an
    integer or a "p"/"p/q" string with a nonzero denominator, in normal form.
    Floats and any other string ("0.5", "1e3", " 7", "1_0") are rejected,
    not converted."""
    if type(value) is int:
        return value
    m = _COEFF.fullmatch(value) if isinstance(value, str) else None
    if m is None:
        raise ValueError(f"coefficient must be an integer, 'p' or 'p/q', got {_shown(value)}")
    p, q = m.groups()
    if q is not None and not int(q):
        raise ValueError(f"zero denominator in coefficient {_shown(value)}")
    return int(p) if q is None else _coeff(Fraction(int(p), int(q)))


def _json_object(text: str, name: str) -> dict:
    """The JSON object that text holds (series files and text, cache entries);
    any other text, too deeply nested included, is a ValueError naming name."""
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError(f"{name}: JSON nested too deeply") from None
    if not isinstance(data, dict):
        raise ValueError(f"{name}: a series file holds one JSON object")
    return data


def _json_header(data: dict, alphabet: str) -> tuple[int, list]:
    """The weight bound and the term list of a series JSON object, checked
    for format, alphabet, a nonnegative integer bound and a list of terms."""
    if not isinstance(data, dict):
        raise ValueError(f"series JSON must be an object, got {type(data).__name__}")
    if data.get("format") != JSON_FORMAT:
        raise ValueError(f"unknown series format: {_shown(data.get('format'))}")
    if data.get("alphabet") != alphabet:
        raise ValueError(f"expected alphabet {alphabet!r}, got {_shown(data.get('alphabet'))}")
    bound = data.get("weight_bound")
    if type(bound) is not int or bound < 0:
        raise ValueError(f"weight_bound must be a nonnegative integer, got {_shown(bound)}")
    terms = data.get("terms")
    if not isinstance(terms, list):
        raise ValueError("series JSON needs a list of terms")
    return bound, terms


def _json_terms(terms: list, bound: int, key, weight) -> dict:
    """The {key: coeff} terms of a JSON term list, each read by key(term),
    checked well formed, distinct, within the bound and exact.  A file is not
    truncated or summed, so no listed term is lost."""
    out = {}
    for t in terms:
        try:
            w, c = key(t), _json_coeff(t["coeff"])
        except (KeyError, TypeError):
            raise ValueError(f"malformed term: {_shown(t)}") from None
        if w in out:
            raise ValueError(f"repeated term: {_shown(t)}")
        if weight(w) > bound:
            raise ValueError(f"term above weight_bound {bound}: {_shown(t)}")
        out[w] = c
    return out


def _read_word_terms(terms: list, bound: int) -> dict | None:
    """The terms {word: int} of an X-series term list, checked in a few
    passes over the whole list: every term has a word and a coefficient,
    every word is a '0'/'1' string within the bound, no word repeats, and
    every coefficient is a "p" string, as str writes an integer, all
    matched by one regex over their joined text.  None otherwise, so the
    per-term reader decides, with its messages, and reads JSON integers and
    fractions."""
    try:
        words = list(map(itemgetter("word"), terms))
        coeffs = list(map(itemgetter("coeff"), terms))
    except (KeyError, TypeError):
        return None
    if not (set(map(type, words)) <= {str} and set(map(type, coeffs)) <= {str}):
        return None
    if not only_01("".join(words)) or max(map(len, words), default=0) > bound:
        return None
    if not _INTS.fullmatch(",".join(coeffs)):
        return None
    try:  # a string holding "," matches above and fails here, as does a long one
        out = dict(zip(words, map(int, coeffs)))
    except ValueError:
        return None
    return out if len(out) == len(words) else None


def _object_text(fields: dict, sort_keys: bool) -> str:
    """The JSON object of fields as json.dumps writes it, with sort_keys as
    given, from its values already written as JSON texts.  The keys are
    written as they are, so none may need a JSON escape."""
    order = sorted(fields) if sort_keys else fields
    return "{" + ", ".join(f'"{f}": {fields[f]}' for f in order) + "}"


def _accumulate(items: Iterable[tuple]) -> dict:
    """The sum of the (key, exact coefficient) pairs as {key: coefficient} in
    normal form (see _coeff), with no zero coefficient stored."""
    out: dict = {}
    get = out.get
    for w, c in items:
        if type(c) is not int:
            c = _coeff(c)
        if not c:
            continue
        acc = get(w)
        if acc is None:
            out[w] = c
        else:
            acc += c
            if not acc:
                del out[w]
            elif type(acc) is int or acc.denominator != 1:
                out[w] = acc
            else:
                out[w] = acc.numerator
    return out


class _SeriesOps:
    """The body shared by the three sparse series classes.

    A subclass declares only its keys: _weight(key), the key test _is_key
    and its noun for the error message, the JSON alphabet, the JSON fields
    of one key (_key_json) and their reader (_read_key), and how a key is
    shown in the repr (_show).  XSeries's own from_json_dict tries its batch
    reader before the per-term loop.

    The constructor sums its (key, coefficient) pairs.  A mapping whose
    values are all nonzero plain ints and whose keys are all within the
    bound is already in normal form: it is checked with a few whole-mapping
    passes and copied, not summed again.
    """

    terms: dict
    weight_bound: int

    def __init__(self, items=(), weight_bound: int = 0):
        if weight_bound < 0:
            raise ValueError(f"weight_bound must be nonnegative, got {weight_bound}")
        weight = self._weight
        if (
            isinstance(items, Mapping)
            and set(map(type, items.values())) <= {int}
            and all(items.values())
            and max(map(weight, items), default=0) <= weight_bound
        ):
            terms = dict(items)
        else:
            if isinstance(items, Mapping):
                items = items.items()
            terms = _accumulate((w, c) for w, c in items if weight(w) <= weight_bound)
        self._check_keys(terms)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "weight_bound", weight_bound)

    @classmethod
    def _check_keys(cls, keys) -> None:
        """Raise ValueError naming the first key that fails _is_key."""
        for key in keys:
            if not cls._is_key(key):
                raise ValueError(f"not {cls._noun}: {_shown(key)}")

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
        body = " + ".join(f"{c}*{self._show(w)}" for w, c in self._sorted_items())
        return f"{name}({body}; bound={self.weight_bound})"

    def to_json_dict(self) -> dict:
        return {
            "format": JSON_FORMAT,
            "alphabet": self._alphabet,
            "weight_bound": self.weight_bound,
            "terms": [
                {**self._key_json(w), "coeff": str(c)} for w, c in self._sorted_items()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict):
        """The series a JSON value holds; ValueError for any other value."""
        bound, terms = _json_header(data, cls._alphabet)
        return cls(_json_terms(terms, bound, cls._read_key, cls._weight), bound)

    def coeff(self, key) -> Fraction:
        c = self.terms.get(key, 0)
        return c if type(c) is Fraction else Fraction(c)

    def is_zero(self) -> bool:
        return not self.terms

    def _by_weight(self) -> tuple[list, list]:
        """The (key, coefficient) pairs sorted by weight, and their weights."""
        weight = self._weight
        items = sorted(self.terms.items(), key=lambda t: weight(t[0]))
        return items, [weight(w) for w, _ in items]

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

    @classmethod
    def _check_keys(cls, keys) -> None:
        # one type test and one scan of all the letters; the per-key loop
        # runs only to name the first bad key
        if not (set(map(type, keys)) <= {str} and only_01("".join(keys))):
            super()._check_keys(keys)

    @staticmethod
    def _key_json(w: XWord) -> dict:
        return {"word": w}

    @staticmethod
    def _read_key(t: dict) -> XWord:
        w = t["word"]
        if not is_xword(w):
            raise ValueError(f"not an X-word: {_shown(w)}")
        return w

    def _sorted_words(self) -> list:
        # by length, then by word: two sorts keyed in C
        return sorted(sorted(self.terms), key=len)

    def _sorted_items(self) -> list:
        terms = self.terms
        return [(w, terms[w]) for w in self._sorted_words()]

    @staticmethod
    def _show(w: XWord) -> str:
        return f"[{w or '1'}]"

    @classmethod
    def unit(cls, bound: int) -> "XSeries":
        return cls([("", 1)], bound)

    @classmethod
    def word(cls, w: XWord, coeff=1, bound: int | None = None) -> "XSeries":
        return cls([(w, coeff)], len(w) if bound is None else bound)

    def _json_texts(self, *sort_keys: bool) -> list[str]:
        """The series as json.dumps writes to_json_dict(), once for each flag,
        with sort_keys as the flag says.  The terms are read once, and their
        strings are written as they are: no word or coefficient needs a JSON
        escape, as words are '0'/'1' and str writes "p" or "p/q"."""
        words = self._sorted_words()
        coeffs = list(map(str, map(self.terms.__getitem__, words)))
        head = {"format": f'"{JSON_FORMAT}"', "alphabet": f'"{self._alphabet}"',
                "weight_bound": json.dumps(self.weight_bound)}
        texts = []
        for s in sort_keys:
            if s:
                a, b, pairs = "coeff", "word", zip(coeffs, words)
            else:
                a, b, pairs = "word", "coeff", zip(words, coeffs)
            start = f'{{"{a}": "'
            terms = f"[{start}" + f'"}}, {start}'.join(map(f'", "{b}": "'.join, pairs)) + '"}]'
            texts.append(_object_text({**head, "terms": terms if words else "[]"}, s))
        return texts

    def to_json(self) -> str:
        return self._json_texts(False)[0]

    @classmethod
    def from_json_dict(cls, data: dict) -> "XSeries":
        # the whole list in one batch, or term by term when the batch declines
        bound, terms = _json_header(data, cls._alphabet)
        out = _read_word_terms(terms, bound)
        return cls(_json_terms(terms, bound, cls._read_key, len) if out is None else out, bound)

    @classmethod
    def from_json(cls, text: str) -> "XSeries":
        """The series a JSON text holds; ValueError for any other text."""
        return cls.from_json_dict(_json_object(text, "series JSON"))


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
            raise ValueError(f"yword must be a list of positive integers, got {_shown(w)}")
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
            raise ValueError(f"t must be a nonnegative integer, got {_shown(e)}")
        return e, YSeries._read_key(t)

    @staticmethod
    def _show(key: TWord) -> str:
        t, w = key
        return f"T^{t}*y{list(w)}"

    def _sorted_items(self) -> list:
        return sorted(self.terms.items())


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


_BY_ALPHABET = {cls._alphabet: cls for cls in (XSeries, YSeries, TYSeries)}


def load_series(path) -> XSeries | YSeries | TYSeries:
    """Load a series of any of the three alphabets from a JSON file; any
    malformed file, nested too deeply included, is a ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        data = _json_object(fh.read(), path)
    alphabet = data.get("alphabet")
    cls = _BY_ALPHABET.get(alphabet) if isinstance(alphabet, str) else None
    if cls is None:
        raise ValueError(f"unknown alphabet: {_shown(alphabet)}")
    return cls.from_json_dict(data)
