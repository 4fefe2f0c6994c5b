"""Deterministic finite controlled Markov processes.

An environment is a dense transition table ``state x action -> state``.
Grids use four actions (up, down, left, right, in that order); moving into
a wall or off the boundary is a self-loop, so random-walk data collection
never terminates early. Arbitrary directed graphs can be built from an
explicit transition table, either in code or from a plain-text file.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import operator
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

# (dx, dy) of up, down, left, right: a fixed order for reproducible tie-breaking.
_GRID_DELTAS = ((0, -1), (0, 1), (-1, 0), (1, 0))


class ConfigError(ValueError):
    """Raised for invalid configuration or construction arguments."""


# A refused value whose repr is longer than this is shown by its start and
# its length: an integer of hundreds of digits would bury the message.
_SHOWN_CHARS = 32


def _shown(value) -> str:
    text = repr(value)
    if len(text) <= _SHOWN_CHARS:
        return text
    return f"{text[:_SHOWN_CHARS]}... ({len(text)} characters)"


def check_number(label: str, value, kind: str, interval=None) -> None:
    """Raise ConfigError naming ``label`` unless ``value`` is an integer
    (``kind`` "int") or a real that converts to a finite float (``kind``
    "float"), never a bool, inside ``interval`` if one is given: text such
    as "(0, 1]" or "[1, inf)", where a bracket takes in its end and a
    parenthesis leaves it out. The message shows a long value shortened."""
    wanted, name = (numbers.Integral, "an integer") if kind == "int" else (numbers.Real, "a number")
    if isinstance(value, bool) or not isinstance(value, wanted):
        raise ConfigError(f"{label} must be {name}, got {_shown(value)}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an integer beyond the float range: fine for an int setting only
        finite = kind == "int"
    if not finite:
        raise ConfigError(f"{label} must be finite, got {_shown(value)}")
    if interval is not None:
        lo, hi = (float(end) for end in interval[1:-1].split(","))
        below = value < lo if interval[0] == "[" else value <= lo
        above = value > hi if interval[-1] == "]" else value >= hi
        if below or above:
            raise ConfigError(f"{label} must lie in {interval}, got {_shown(value)}")


# The most entries, states * actions * states, of a goal-conditioned table:
# 256 MB of float64. A run holds a few arrays of that size (the table and its
# target's lag), so a 1-step trl sweep on a 2896-cell corridor, the longest
# at the bound, peaks at 885 MB RSS (2-vCPU Xeon, numpy 2.4.6).
MAX_TABLE_ENTRIES = 2**25


def _check_table_size(label: str, num_states: int, num_actions: int) -> None:
    """Raise ConfigError naming ``label`` unless the tables of an
    environment of that size hold at most MAX_TABLE_ENTRIES entries: every
    GraphEnv checks, and a grid or file env first, before it is sized."""
    entries = num_states * num_actions * num_states
    check_number(f"{label}: table entries states * actions * states", entries, "int",
                 f"[1, {MAX_TABLE_ENTRIES}]")


@contextlib.contextmanager
def open_input(path: str, mode: str = "r"):
    """``with open(path, mode)`` for an input file. A file that cannot be
    opened, or that a text-mode read cannot decode, is a ConfigError naming
    it."""
    try:
        fh = open(path, mode)
    except OSError as exc:
        raise ConfigError(f"cannot open {path}: {exc.strerror}") from exc
    with fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path} is not a text file: {exc}") from None


@dataclass
class GraphEnv:
    """Deterministic controlled Markov process over integer states.

    Attributes:
        num_states: number of states, indexed 0..num_states-1.
        num_actions: number of discrete actions, shared by every state.
        transition: int array of shape (num_states, num_actions);
            transition[s, a] is the successor state.
        state_coords: optional int array of shape (num_states, 2) with
            (x, y) cell coordinates; present for grid environments.
    """

    num_states: int
    num_actions: int
    transition: np.ndarray
    state_coords: Optional[np.ndarray] = None

    def __post_init__(self):
        self.transition = np.asarray(self.transition, dtype=np.int64)
        check_number("environment num_states", self.num_states, "int", "[1, inf)")
        check_number("environment num_actions", self.num_actions, "int", "[1, inf)")
        _check_table_size("environment", self.num_states, self.num_actions)
        if self.transition.shape != (self.num_states, self.num_actions):
            raise ConfigError(
                f"transition table shape {self.transition.shape} does not match "
                f"({self.num_states}, {self.num_actions})"
            )
        if self.transition.min() < 0 or self.transition.max() >= self.num_states:
            raise ConfigError("transition table contains out-of-range state indices")
        if self.state_coords is not None:
            self.state_coords = np.asarray(self.state_coords, dtype=np.int64)
            if self.state_coords.shape != (self.num_states, 2):
                raise ConfigError("state_coords must have shape (num_states, 2)")


def parse_walls(spec) -> set[tuple[int, int]]:
    """Wall cells from ``'x,y;x,y'`` text or a list of ``[x, y]`` pairs of
    integers (never a bool, a string or an object).

    Raises ConfigError naming the first malformed cell.
    """
    text = isinstance(spec, str)
    tokens = [t for t in spec.split(";") if t.strip()] if text else spec
    if not isinstance(tokens, (list, tuple)):
        raise ConfigError(f"walls must be 'x,y;x,y' or a list of [x, y] pairs, got {spec!r}")
    walls = set()
    for token in tokens:
        try:
            if text:
                x, y = (int(p) for p in token.split(","))
            elif isinstance(token, (list, tuple)) and not any(isinstance(p, bool) for p in token):
                x, y = map(operator.index, token)
            else:
                raise TypeError
        except (TypeError, ValueError):
            raise ConfigError(f"bad wall cell {token!r}: expected two integers x,y") from None
        walls.add((x, y))
    return walls


# The range of each grid dimension, and of its env.* row in harness._SETTINGS.
_INTERVALS = {"width": "[1, inf)", "height": "[1, inf)"}


def build_grid_env(width: int, height: int, walls: Iterable[tuple[int, int]] = ()) -> GraphEnv:
    """Build a 4-connected grid with the given walled cells removed.

    Free cells become the states, enumerated row-major ((x, y) -> index).
    Blocked moves (wall or boundary) are self-loops.
    """
    for name, value in (("width", width), ("height", height)):
        check_number(f"config key 'env.{name}'", value, "int", _INTERVALS[name])
    wall_set = set((int(x), int(y)) for x, y in walls)
    for x, y in wall_set:
        if not (0 <= x < width and 0 <= y < height):
            raise ConfigError(f"wall cell {(x, y)} outside the {width}x{height} grid")
    num_states = width * height - len(wall_set)
    if not num_states:
        raise ConfigError("all cells are walled; no states remain")
    _check_table_size("config keys 'env.width' and 'env.height'", num_states, len(_GRID_DELTAS))

    cells = [(x, y) for y in range(height) for x in range(width) if (x, y) not in wall_set]
    index = {cell: i for i, cell in enumerate(cells)}

    transition = np.empty((len(cells), 4), dtype=np.int64)
    for (x, y), s in index.items():
        for a, (dx, dy) in enumerate(_GRID_DELTAS):
            nxt = (x + dx, y + dy)
            transition[s, a] = index.get(nxt, s)
    coords = np.array(cells, dtype=np.int64)
    return GraphEnv(len(cells), 4, transition, coords)


def adjacency_matrix(env: GraphEnv) -> np.ndarray:
    """Boolean (S, S) matrix of the one-step reachability relation (no self-loops)."""
    adj = np.zeros((env.num_states, env.num_states), dtype=bool)
    src = np.repeat(np.arange(env.num_states), env.num_actions)
    dst = env.transition.ravel()
    keep = src != dst
    adj[src[keep], dst[keep]] = True
    return adj


def load_env(path: str) -> GraphEnv:
    """Read an environment from a plain-text transition table.

    The first line holds ``num_states num_actions``; then one line per
    state s, in order, lists the num_actions successor states
    transition[s, 0..num_actions-1] as whitespace-separated integers.
    Blank lines and lines whose first non-blank character is # are ignored.
    """
    with open_input(path) as fh:
        lines = [ln for ln in map(str.strip, fh) if ln and not ln.startswith("#")]
    if not lines:
        raise ConfigError(f"environment file {path} is empty")
    try:
        num_states, num_actions = (int(tok) for tok in lines[0].split())
    except ValueError as exc:
        raise ConfigError(f"bad header in {path}: {lines[0]!r}") from exc
    _check_table_size(path, num_states, num_actions)
    if len(lines) - 1 != num_states:
        raise ConfigError(
            f"{path}: expected {num_states} transition rows, found {len(lines) - 1}"
        )
    rows = []
    for s, line in enumerate(lines[1:]):
        try:
            row = [int(tok) for tok in line.split()]
        except ValueError:
            raise ConfigError(f"{path}: row {s} is not integers: {line!r}") from None
        if len(row) != num_actions:
            raise ConfigError(f"{path}: row {s} has {len(row)} entries, expected {num_actions}")
        rows.append(row)
    return GraphEnv(num_states, num_actions, np.array(rows, dtype=np.int64))
