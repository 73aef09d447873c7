"""Carpet specs, the columnar rect layout and the cylinder walk.

A carpet is described by horizontal rows stacked bottom to top.  Row i has
height ratio b_i (the b_i sum to 1) and carries n_i >= 0 cells; cell j of row i
is a rectangle of width a_ij < b_i at horizontal offset c_ij.  Each cell (i, j)
defines the affine contraction

    S_ij(x, y) = (a_ij * x + c_ij,  b_i * y + d_i),    d_i = b_1 + ... + b_{i-1},

and the attractor is the unique compact set E with E = union of S_ij(E).
Cylinders are images of the unit square under finite digit words.

Cylinder families (all words of one length, or the stopping set of a scale)
come from one breadth-first walk of the word tree (per level, one `np.repeat`
of the parent columns and one in-place multiply-add) as float64 rect columns
(`Rects`, the one rect layout the package computes on), not as one Python
object per word; the digit-index matrix of the words is assembled from the
walk's level columns only when read.  A box count reads the same walk in
bounded runs of consecutive words, so it holds one piece, not the family.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import re
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

from .errors import BudgetExceeded, EmptyAttractor, InvalidDigit, InvalidRatio, InvalidSetting
from .errors import SchemaError

# The one budget of every call unless LG_MAX_CYLINDERS sets another; README lists what it counts.
DEFAULT_MAX_CYLINDERS = 10_000_000

# Child rows past which a bounded stopping walk (`_walk`) cuts its frontier into pieces.
BLOCK_ROWS = 2**14

# One digit is a (row, cell) pair, both 1-based; a word is a digit sequence.
Digit = tuple[int, int]
Word = tuple[Digit, ...]


class Cell(NamedTuple):
    a: float  # width ratio, 0 < a < row height
    c: float  # horizontal offset of the cell's left edge


@dataclass(frozen=True)
class RowSpec:
    b: float
    cells: tuple[Cell, ...]


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle, possibly degenerate (zero width or height)."""

    x0: float
    y0: float
    w: float
    h: float

    @property
    def x1(self) -> float:
        return self.x0 + self.w

    @property
    def y1(self) -> float:
        return self.y0 + self.h


class Rects(Sequence):
    """Rects as float64 columns x0, y0, w, h; items are `Rect`s of Python floats."""

    def __init__(self, x0: np.ndarray, y0: np.ndarray, w: np.ndarray, h: np.ndarray):
        self.x0, self.y0, self.w, self.h = x0, y0, w, h
        with np.errstate(over="ignore"):  # an overflowing corner is refused in `of`
            self.x1, self.y1 = x0 + w, y0 + h

    @classmethod
    def of(cls, rects) -> "Rects":
        """The columns of `rects`: a `Rects` as is, or any iterable of `Rect`.

        Every rect must have finite corners and w, h >= 0; otherwise raises
        ValueError naming the first that does not.
        """
        if isinstance(rects, Rects):
            cols = rects
        else:
            a = np.array([(r.x0, r.y0, r.w, r.h) for r in rects], dtype=float)
            cols = cls(*a.reshape(-1, 4).T.copy())
        ok = (np.isfinite(cols.x0) & np.isfinite(cols.y0) & np.isfinite(cols.x1)
              & np.isfinite(cols.y1) & (cols.w >= 0.0) & (cols.h >= 0.0))
        if not ok.all():
            k = int(np.argmin(ok))
            raise ValueError(f"rect {k} must have finite corners and w, h >= 0, "
                             f"got {cols[k]}")
        return cols

    def __len__(self) -> int:
        return len(self.x0)

    def __getitem__(self, k: int) -> Rect:
        return Rect(float(self.x0[k]), float(self.y0[k]),
                    float(self.w[k]), float(self.h[k]))


@dataclass(frozen=True)
class Cylinder:
    """Image of the unit square under the word's map; rect.w, rect.h are its scale products."""

    word: Word
    rect: Rect


class Cylinders(Sequence):
    """Cylinders in lexicographic word order: their `rects`, and digit indices
    of word k in row k of `words`, padded with -1.  Items are `Cylinder`s."""

    def __init__(self, digits: tuple[Digit, ...], columns: list[np.ndarray], rects: Rects):
        self.digits, self._columns, self.rects = digits, columns, rects

    @cached_property
    def words(self) -> np.ndarray:
        return _word_matrix(self._columns, np.min_scalar_type(-len(self.digits)))

    def __len__(self) -> int:
        return len(self.rects)

    def __getitem__(self, k: int) -> Cylinder:
        word = tuple(self.digits[g] for g in self.words[k].tolist() if g >= 0)
        return Cylinder(word, self.rects[k])


@dataclass(frozen=True)
class Violation:
    constraint: str
    where: tuple[int, ...]
    message: str


@dataclass(frozen=True)
class CarpetSpec:
    rows: tuple[RowSpec, ...]

    @cached_property
    def m(self) -> int:
        return len(self.rows)

    @cached_property
    def d(self) -> tuple[float, ...]:
        """Bottom edge of each row: cumulative sum of the b_i below it."""
        out, acc = [], 0.0
        for row in self.rows:
            out.append(acc)
            acc += row.b
        return tuple(out)

    @cached_property
    def digits(self) -> tuple[Digit, ...]:
        return tuple(
            (i, j)
            for i, row in enumerate(self.rows, start=1)
            for j in range(1, len(row.cells) + 1)
        )

    @cached_property
    def nonempty_rows(self) -> tuple[int, ...]:
        return tuple(i for i, row in enumerate(self.rows, start=1) if row.cells)

    @cached_property
    def a_min(self) -> float:
        return min(c.a for i in _nonempty(self) for c in self.rows[i - 1].cells)

    @cached_property
    def a_max(self) -> float:
        return max(c.a for i in _nonempty(self) for c in self.rows[i - 1].cells)

    @cached_property
    def row_max_width(self) -> tuple[float, ...]:
        """Widest cell ratio per row (0.0 for empty rows)."""
        return tuple(max((c.a for c in row.cells), default=0.0) for row in self.rows)

    @cached_property
    def spec_hash(self) -> str:
        payload = json.dumps(
            {"rows": [{"b": row.b, "cells": [[c.a, c.c] for c in row.cells]}
                      for row in self.rows]},
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def row(self, i: int) -> RowSpec:
        if not 1 <= i <= len(self.rows):
            raise InvalidDigit(f"row index {i} out of range 1..{len(self.rows)}")
        return self.rows[i - 1]

    def cell(self, i: int, j: int) -> Cell:
        row = self.row(i)
        if not 1 <= j <= len(row.cells):
            raise InvalidDigit(
                f"cell index {j} out of range 1..{len(row.cells)} in row {i}"
            )
        return row.cells[j - 1]


_EXPONENT = re.compile(r"[eE]([-+]?\d[\d_]*)")


def _real(value: str | int | float) -> float:
    """A number as a float, a string as float(Fraction(value)); inf past the float range.

    Refuses (ValueError, ZeroDivisionError) what Fraction refuses, but raises 10 to
    an exponent only once it is clamped to where the float stops changing.
    """
    if isinstance(value, str):
        found = _EXPONENT.search(value)
        # with the exponent's digits zeroed, refused as the text is, read as its mantissa
        value = Fraction(_EXPONENT.sub(lambda m: re.sub(r"\d", "0", m[0]), value, 1))
        if found:  # |value| * 10**low < 2**-1075 and |value| * 10**high > 2**1024
            low, high = -value.numerator.bit_length() - 330, value.denominator.bit_length() + 310
            value *= Fraction(10) ** min(max(int(found[1]), low), high)
    try:
        return float(value)
    except OverflowError:  # an int or a fraction beyond the float range
        return math.inf


def _number(value: object, where: str) -> float:
    """Accept finite JSON numbers and 'p/q' / decimal strings; reject the rest.

    Non-finite values (JSON's NaN and Infinity, or numbers beyond the float
    range) are refused: every comparison with a NaN is false, so a NaN slips
    past any check that tests for the bad case.
    """
    if isinstance(value, bool):
        raise SchemaError(f"{where}: expected a number, got a boolean")
    if not isinstance(value, (str, int, float)):
        raise SchemaError(f"{where}: expected a number, got {type(value).__name__}")
    try:
        number = _real(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"{where}: bad numeric string {value!r}") from exc
    if not math.isfinite(number):
        raise SchemaError(f"{where}: expected a finite number, got {number}")
    return number


def spec_from_dict(obj: object) -> CarpetSpec:
    if not isinstance(obj, dict):
        raise SchemaError("spec must be a JSON object")
    if "rows" not in obj:
        raise SchemaError("spec is missing the 'rows' field")
    raw_rows = obj["rows"]
    if not isinstance(raw_rows, list):
        raise SchemaError("'rows' must be a list")
    rows = []
    for i, raw in enumerate(raw_rows, start=1):
        if not isinstance(raw, dict):
            raise SchemaError(f"row {i} must be an object")
        if "b" not in raw:
            raise SchemaError(f"row {i} is missing 'b'")
        if "cells" not in raw:
            raise SchemaError(f"row {i} is missing 'cells'")
        if not isinstance(raw["cells"], list):
            raise SchemaError(f"row {i}: 'cells' must be a list")
        cells = []
        for j, rc in enumerate(raw["cells"], start=1):
            if not isinstance(rc, dict) or "a" not in rc or "c" not in rc:
                raise SchemaError(f"cell ({i},{j}) must be an object with 'a' and 'c'")
            cells.append(Cell(_number(rc["a"], f"cell ({i},{j}).a"),
                              _number(rc["c"], f"cell ({i},{j}).c")))
        rows.append(RowSpec(_number(raw["b"], f"row {i}.b"), tuple(cells)))
    return CarpetSpec(tuple(rows))


def parse_spec(text: str) -> CarpetSpec:
    """Parse a spec from JSON text.  Malformed JSON raises json.JSONDecodeError, and
    JSON the decoder cannot read (too deep, too long an integer) SchemaError."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError:
        raise
    except (RecursionError, ValueError) as exc:
        raise SchemaError(f"unreadable spec: {exc}") from exc
    return spec_from_dict(obj)


def load_spec(path: str | os.PathLike) -> CarpetSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise SchemaError(f"unreadable spec {path}: {exc}") from exc
    return parse_spec(text)


def spec_to_dict(spec: CarpetSpec) -> dict:
    return {"rows": [{"b": row.b, "cells": [{"a": c.a, "c": c.c} for c in row.cells]}
                     for row in spec.rows]}


_TOL = 1e-12


def validate(spec: CarpetSpec) -> list[Violation]:
    """Check the geometric constraints; an empty list means the spec is valid.

    Strict inequalities (a_ij < b_i, 0 < b_i < 1) flag equality as a violation;
    non-strict ones (column gaps, widths fitting in [0,1]) get a 1e-12 slack.
    Each check states the condition that must hold, so a NaN fails it.
    """
    out: list[Violation] = []
    if spec.m < 2:
        out.append(Violation("m_rows", (), f"need at least 2 rows, got {spec.m}"))
    b_sum = 0.0
    for i, row in enumerate(spec.rows, start=1):
        b_sum += row.b
        if not 0.0 < row.b < 1.0:
            out.append(Violation("b_range", (i,), f"b_{i}={row.b} not in (0,1)"))
        a_sum = 0.0
        for j, cell in enumerate(row.cells, start=1):
            a_sum += cell.a
            if not cell.a > 0.0:
                out.append(Violation("a_range", (i, j), f"a=({cell.a}) must be > 0"))
            if not row.b - cell.a > 0.0:
                out.append(Violation(
                    "a_lt_b", (i, j),
                    f"cell width {cell.a} must be strictly less than row height {row.b}"))
            if j == 1 and not cell.c >= -_TOL:
                out.append(Violation("c_low", (i, j), f"c={cell.c} must be >= 0"))
            if j > 1:
                prev = row.cells[j - 2]
                gap = cell.c - prev.c - prev.a
                if not gap >= -_TOL:
                    out.append(Violation(
                        "c_gap", (i, j),
                        f"cell {j} overlaps cell {j - 1} (gap {gap})"))
            if j == len(row.cells) and not 1.0 - cell.c - cell.a >= -_TOL:
                out.append(Violation(
                    "c_high", (i, j),
                    f"cell sticks out past x=1 (right edge {cell.c + cell.a})"))
        if not a_sum - 1.0 <= _TOL:
            out.append(Violation("a_sum", (i,), f"row widths sum to {a_sum} > 1"))
    if not abs(b_sum - 1.0) <= _TOL:
        out.append(Violation("b_sum", (), f"row heights sum to {b_sum}, expected 1"))
    return out


def word_map(spec: CarpetSpec, word: Iterable[Digit],
             start: tuple[float, float, float, float] = (1.0, 0.0, 1.0, 0.0),
             ) -> tuple[float, float, float, float]:
    """Affine coefficients (sx, tx, sy, ty) of the composed map of `word`.

    The composition is leftmost-outermost: word (w1, w2) means S_w1 after S_w2.
    `start` is the map of a prefix u, so word_map(spec, v, word_map(spec, u))
    is word_map(spec, u + v) with the same float operations.
    """
    sx, tx, sy, ty = start
    for i, j in word:
        cell = spec.cell(i, j)
        row = spec.rows[i - 1]
        tx += sx * cell.c
        ty += sy * spec.d[i - 1]
        sx *= cell.a
        sy *= row.b
    return sx, tx, sy, ty


def _budget(count: int, what: str, tail: str = "") -> int:
    """The one budget gate: refuse `count` pieces of `what` above the cap,
    LG_MAX_CYLINDERS (an integer >= 1) or else the default; returns the cap."""
    text = os.environ.get("LG_MAX_CYLINDERS", str(DEFAULT_MAX_CYLINDERS))
    if not (text.isdecimal() and int(text) >= 1):
        raise InvalidSetting(f"LG_MAX_CYLINDERS must be an integer >= 1, got {text!r}")
    cap = int(text)
    if count > cap:
        raise BudgetExceeded(f"{what} exceeds cap {cap}{tail}")
    return cap


def _whole(value, low: int, what: str) -> int:
    """The one whole-number gate: `value` as an int, so 3.0 is 3 in every
    result and message.  Refuses (ValueError) a `what` that is not a whole
    number >= low: NaN, inf and 2.5 included, which no walk level would ever
    reach, and a boolean, which compares as 0 or 1 but is no count."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{what} must be a whole number, got a boolean")
    if not value >= low:
        raise ValueError(f"{what} must be >= {low}, got {value}")
    if not (value < math.inf and value % 1 == 0):
        raise ValueError(f"{what} must be a finite whole number, got {value}")
    return int(value)


def _nonempty(spec: CarpetSpec) -> tuple[int, ...]:
    """The one attractor gate: the spec's nonempty rows, or EmptyAttractor
    when there are none, since an all-empty spec has no attractor."""
    if not spec.nonempty_rows:
        raise EmptyAttractor("every row is empty")
    return spec.nonempty_rows


def _step(s: np.ndarray, t: np.ndarray, column: np.ndarray,
          scale: np.ndarray, offset: np.ndarray) -> None:
    """The level step of a word-tree walk, in place: row k of s, t takes
    digit g = column[k], t += s * offset[g] and then s *= scale[g],
    word_map's float operations in its order."""
    step = offset[:, column]
    step *= s
    t += step
    del step
    s *= scale[:, column]


def _sure(h: np.ndarray, live: np.ndarray, b: np.ndarray, delta: float | None,
          depth: int | None, level: int) -> int:
    """Words rows of heights h at `level` surely have, over height ratios b:
    1 per stopped row, len(b)**m per live one, m in 1..64: depth - level on a
    depth walk (delta None), else the k with h * min(b)**k > delta * (1 +
    2**-40), a level short to absorb rounding, by logs over live rows only.
    A level with no live row is counted at once; a depth walk, or live rows
    all of one height, take one m for every live row."""
    n = int(np.count_nonzero(live))
    if not n:
        return len(live)
    if delta is None:
        m = depth - level
    else:
        h = h[live]
        if h.min() == h.max():
            h = h[:1]
        m = np.ceil(np.log(delta * (1.0 + 2.0**-40) / h) / math.log(b.min())) - 1.0
        if len(m) > 1:
            per_m = np.bincount(np.clip(m, 1, 64).astype(np.int64)).tolist()
            return len(live) - n + sum(c * len(b)**k for k, c in enumerate(per_m))
        m = int(m[0])
    return len(live) - n + n * len(b)**min(max(m, 1), 64)


def _walk(scale: np.ndarray, offset: np.ndarray, what: str,
          delta: float | None = None, depth: int | None = None, bounded: bool = False):
    """Breadth-first walk of the word tree of one digit table, in runs.

    Digit g maps axis k by u -> scale[k, g] * u + offset[k, g]; the last axis
    is the height.  A word stops at length `depth`, or else once it is
    nonempty with height product <= delta, which needs height ratios in (0,
    1).  Each level repeats a stopped row once and a live row once per child,
    so rows stay in lexicographic order; t += s * offset[g] and s *= scale[g]
    are word_map's float operations in its order.  A stopped row's digit -1
    reads an appended identity column (scale 1, offset 0), which keeps its
    finite s and t bit for bit: t starts at +0.0, and a sum is -0.0 only if
    both terms are.  Yields runs of consecutive words: each level's digit
    column, digits padded with -1 in the smallest signed dtype that holds
    them (for `_word_matrix`), and the s, t columns.  There is one run unless
    a `bounded` delta walk cuts a level wider than BLOCK_ROWS into pieces of
    max(1, BLOCK_ROWS // g) rows, each walked to its end before the next.
    At every level the cap is held against the words yielded plus the words
    each pending row, waiting or current, surely has (`_sure`), which, as
    every live word has a stopping descendant, never pass the set's size and
    end at it: a set within the cap is never refused.
    """
    (axes, g), b = scale.shape, scale[-1]
    ok = (0.0 < b) & (b < 1.0)
    if delta is not None and not ok.all():
        raise InvalidRatio(f"{what}: height ratio {b[~ok][0]} is not in (0, 1)")
    scale, offset = np.c_[scale, np.ones(axes)], np.c_[offset, np.zeros(axes)]
    dtype, per = np.min_scalar_type(-g), max(1, BLOCK_ROWS // g)
    cap, done = 0, 0
    # waiting pieces, the next last: s, t (copies, to free the cut level), live, level, sure words
    pieces = [(np.ones((axes, 1)), np.zeros((axes, 1)), np.ones(1, dtype=bool), 0, 0)]
    while pieces:
        s, t, live, start, _ = pieces.pop()
        columns = []
        for level in itertools.count(start):
            live &= (level != depth) if depth is not None else (level == 0) | (s[-1] > delta)
            grow = np.where(live, g, 1)
            if bounded and grow.sum() > BLOCK_ROWS and len(live) > per:
                for at in reversed(range(per, len(live), per)):
                    cut = slice(at, at + per)
                    pieces.append((s[:, cut].copy(), t[:, cut].copy(), live[cut], level,
                                   _sure(s[-1, cut], live[cut], b, delta, depth, level)))
                s, t, live, grow = s[:, :per], t[:, :per], live[:per], grow[:per]
            count = done + sum(p[-1] for p in pieces) + _sure(s[-1], live, b, delta, depth, level)
            if count > cap:
                cap = _budget(count, what, f" by length {level + 1}")
            if not live.any():
                break
            column = (np.arange(grow.sum()) - np.repeat(np.cumsum(grow) - grow, grow)).astype(dtype)
            live = np.repeat(live, grow)
            column[~live] = -1
            columns.append(column)
            s, t = np.repeat(s, grow, axis=1), np.repeat(t, grow, axis=1)
            _step(s, t, column, scale, offset)
        done += len(live)
        yield columns, s, t


def _word_matrix(columns: list[np.ndarray], dtype) -> np.ndarray:
    """The words of a walk as rows of digit indices, from its level columns.

    Each level's rows are the rows of the level before, a live row replaced
    by its children with digits 0, 1, ... and a stopped row kept with -1, so
    a digit <= 0 starts the next parent's run; each word's digits are read
    back from the last level up.
    """
    rows = len(columns[-1]) if columns else 1
    words = np.empty((rows, len(columns)), dtype=dtype)
    row = np.arange(rows)
    for level in reversed(range(len(columns))):
        words[:, level] = columns[level][row]
        row = (np.cumsum(columns[level] <= 0) - 1)[row]
    return words


def _digit_table(spec: CarpetSpec):
    """Scale and offset of each digit's map, x axis over y axis, one column
    per digit of `spec.digits`."""
    _nonempty(spec)
    cells, rows = [spec.cell(i, j) for i, j in spec.digits], [i - 1 for i, _ in spec.digits]
    scale = np.array([[c.a for c in cells], [spec.rows[i].b for i in rows]])
    offset = np.array([[c.c for c in cells], [spec.d[i] for i in rows]])
    return scale, offset


def _cylinders(spec: CarpetSpec, what: str, **stop) -> Cylinders:
    columns, s, t = next(_walk(*_digit_table(spec), what, **stop))
    return Cylinders(spec.digits, columns, Rects(t[0], t[1], s[0], s[1]))


def enumerate_depth(spec: CarpetSpec, depth: int) -> Cylinders:
    """All cylinders of exactly `depth` digits, in lexicographic word order."""
    depth = _whole(depth, 0, "depth")
    return _cylinders(spec, f"depth {depth}", depth=depth)


def enumerate_stopping(spec: CarpetSpec, delta: float) -> Cylinders:
    """Shortest-word cylinders whose height product just drops to <= delta.

    A word stops when its b-product is <= delta while its parent's is > delta,
    so the stopping set partitions the attractor into pieces of height in
    (delta * b_min, delta].  delta >= 1 stops every word at length 1.
    """
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    return _cylinders(spec, f"stopping set at delta={delta}", delta=delta)
