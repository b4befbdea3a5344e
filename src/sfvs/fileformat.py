"""Line-oriented instance files.

One canonical text format serves all six problem kinds::

    # comments run to end of line, blank lines are ignored
    p <kind> <n> <m>        kind in {wsfvs, sfvs, fvs, nmc, nmcdt, wnmcdt}
    w <v> <weight>          optional, default weight 1
    e <u> <v>               exactly m of these
    set <v1> <v2> ...       the S or T set; absent means empty
    k <budget>              optional decision budget

Reduction sources reuse the same line machinery with their own headers:
``p vc3 n m`` plus ``part A|B|C <ids...>`` lines, and ``p mcis n m`` plus
``class <i> <ids...>`` lines.

Emission is canonical (sorted edges and sets, weight lines only for non-unit
weights), so parse(emit(inst)) == inst.
"""

from __future__ import annotations

from itertools import compress

from .graph import Graph, GraphError, PreconditionError
from .oracle import ProblemInstance
from .reductions import MulticoloredInstance, ReductionOutput, TripartiteGraph

FILE_KINDS = ("wsfvs", "sfvs", "fvs", "nmc", "nmcdt", "wnmcdt")


class ParseError(ValueError):
    """A rejected input text.  ``line_no`` is the faulty line, or 0 when the
    fault belongs to no line (an unreadable or empty file), which the message
    then does not name."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}" if line_no else message)


def _lines(text: str) -> list[str]:
    """The text's lines, line number i at index i - 1, comments cut off.

    A text with no ``#`` anywhere skips the per-line comment cut."""
    lines = text.splitlines()
    if "#" in text:
        lines = [line.partition("#")[0] for line in lines]
    return lines


def _tokenized(lines: list[str]):
    for line_no, line in enumerate(lines, start=1):
        tokens = line.split()
        if tokens:
            yield line_no, tokens


def _int(token: str, line_no: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(line_no, f"{what} must be an integer, got {token!r}") from None


class _Body:
    """Shared parsing of weight/edge/set/budget lines after the header.

    Edges go straight into the adjacency masks ``adj``: each edge line is
    validated here and nowhere else, and :meth:`graph` hands the masks to
    :class:`Graph` without a second check.

    Most lines of a large file are ``e u v`` lines naming vertices seen
    before, so :meth:`read` keeps two tables that the checked path
    :meth:`_edge` fills on first sight: ``ids`` maps a canonical id token
    (``str(v)``, 1 <= v <= n) to its vertex, and ``bits`` maps a vertex to
    ``1 << v``.  An edge line whose two tokens are both in ``ids``, name
    distinct vertices and are not joined yet costs two dict lookups and two
    ORs, with no ``int()``, range test or shift.  Every other edge line takes
    the checked path: another spelling of an id (``07``, ``+7``, ``1_0``), a
    repeated edge, a self-loop, a bad token.  So each line is read, and each
    error reported, as it would be without the tables.  The tables are lazy
    because an eager ``1 << v`` for every v <= n is Θ(n²) bits, over 600 MB
    for ``p sfvs 100000 0``; the lazy one holds only the bits of vertices
    some edge line names, which the masks hold anyway.
    """

    def __init__(self, n: int, m: int):
        self.n = n
        self.m = m
        self.weights: dict[int, int] = {}
        self.adj = [0] * (n + 1)
        self.special: tuple[int, ...] | None = None
        self.budget: int | None = None
        self.ids: dict[str, int] = {}
        self.bits: dict[int, int] = {}

    def _vertex(self, token: str, line_no: int) -> int:
        v = _int(token, line_no, "vertex id")
        if not (1 <= v <= self.n):
            raise ParseError(line_no, f"vertex id {v} out of range 1..{self.n}")
        return v

    def read(self, lines: list[str], line_no: int, extra=None) -> int:
        """Feed every line after the header (line ``line_no``) and return the
        number of the last one that holds tokens.  ``extra(line_no, tokens)``
        takes the format's own directives and returns False for an unknown
        one."""
        adj = self.adj
        ids = self.ids
        bits = self.bits
        start = line_no
        for line_no, line in enumerate(lines[start:], start + 1):
            tokens = line.split()
            if len(tokens) == 3 and tokens[0] == "e":
                u = ids.get(tokens[1])
                v = ids.get(tokens[2])
                if u and v and u != v and not adj[u] & bits[v]:
                    adj[u] |= bits[v]
                    adj[v] |= bits[u]
                else:
                    self._edge(line_no, tokens)
            elif tokens and not (self._feed(line_no, tokens) or extra and extra(line_no, tokens)):
                raise ParseError(line_no, f"unknown directive {tokens[0]!r}")
        while line_no > start and not lines[line_no - 1].split():
            line_no -= 1
        # no edge line sets a bit twice, so the masks count the edge lines
        m = sum(a.bit_count() for a in adj) // 2
        if m != self.m:
            raise ParseError(line_no, f"header promises {self.m} edges, file has {m}")
        return line_no

    def _edge(self, line_no: int, tokens: list[str]) -> None:
        """Check one edge line, add the edge and fill the fast tables."""
        n = self.n
        adj = self.adj
        if len(tokens) != 3:
            raise ParseError(line_no, "edge line needs 'e <u> <v>'")
        try:
            u = int(tokens[1])
            v = int(tokens[2])
        except ValueError:
            u = v = 0
        if not (0 < u <= n and 0 < v <= n):
            # let _vertex report the first bad token
            u = self._vertex(tokens[1], line_no)
            v = self._vertex(tokens[2], line_no)
        if u == v:
            raise ParseError(line_no, f"self-loop at vertex {u}")
        if adj[u] >> v & 1:
            raise ParseError(line_no, f"duplicate edge {min(u, v)}-{max(u, v)}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        for token, x in ((tokens[1], u), (tokens[2], v)):
            self.bits[x] = 1 << x
            if token == str(x):
                self.ids[token] = x

    def _feed(self, line_no: int, tokens: list[str]) -> bool:
        head = tokens[0]
        if head == "e":
            self._edge(line_no, tokens)
        elif head == "w":
            if len(tokens) != 3:
                raise ParseError(line_no, "weight line needs 'w <v> <weight>'")
            v = self._vertex(tokens[1], line_no)
            w = _int(tokens[2], line_no, "weight")
            if w < 1:
                raise ParseError(line_no, f"weight of vertex {v} must be >= 1")
            if v in self.weights:
                raise ParseError(line_no, f"duplicate weight line for vertex {v}")
            self.weights[v] = w
        elif head == "set":
            if self.special is not None:
                raise ParseError(line_no, "more than one set line")
            members = [self._vertex(tok, line_no) for tok in tokens[1:]]
            if len(set(members)) != len(members):
                raise ParseError(line_no, "set line repeats a vertex")
            self.special = tuple(sorted(members))
        elif head == "k":
            if self.budget is not None:
                raise ParseError(line_no, "more than one budget line")
            if len(tokens) != 2:
                raise ParseError(line_no, "budget line needs 'k <budget>'")
            b = _int(tokens[1], line_no, "budget")
            if b < 0:
                raise ParseError(line_no, "budget must be nonnegative")
            self.budget = b
        else:
            return False
        return True

    def graph(self) -> Graph:
        return Graph._from_adjacency(self.n, self.adj, self.weights)


def _header(lines: list[str], expected_kinds) -> tuple[int, str, int, int]:
    for line_no, tokens in _tokenized(lines):
        if tokens[0] != "p" or len(tokens) != 4:
            raise ParseError(line_no, "first line must be 'p <kind> <n> <m>'")
        kind = tokens[1]
        if kind not in expected_kinds:
            raise ParseError(line_no, f"unknown kind {kind!r}")
        n = _int(tokens[2], line_no, "vertex count")
        m = _int(tokens[3], line_no, "edge count")
        if n < 0 or m < 0:
            raise ParseError(line_no, "vertex and edge counts must be nonnegative")
        return line_no, kind, n, m
    raise ParseError(0, "empty file")


def parse_instance(text: str) -> ProblemInstance:
    lines = _lines(text)
    line_no, kind, n, m = _header(lines, FILE_KINDS)
    body = _Body(n, m)
    line_no = body.read(lines, line_no)
    special = body.special or ()
    if kind == "fvs":
        everyone = tuple(range(1, n + 1))
        if body.special not in (None, everyone):
            raise ParseError(line_no, "an fvs instance must have set = all vertices")
        special = everyone
    try:
        return ProblemInstance(body.graph(), kind, special, body.budget)
    except (GraphError, PreconditionError) as exc:  # pragma: no cover - guarded above
        raise ParseError(line_no, str(exc)) from exc


# bytes.translate table from a binary numeral's digits to compress() flags
_DIGIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


def emit_instance(inst: ProblemInstance) -> str:
    """Canonical text.  The edge lines of each u come in one join over
    ``"e u "``; its later neighbours are read off the reversed binary numeral
    of ``adj[u] >> (u + 1)``, whose digit i is that of vertex u + 1 + i."""
    g = inst.graph
    adj = g._adj
    out = [f"p {inst.kind} {g.n} {g.edge_count()}"]
    for v in g.vertices():
        if g.weight(v) != 1:
            out.append(f"w {v} {g.weight(v)}")
    names = [str(v) for v in range(g.n + 1)]
    for u in g.vertices():
        later = adj[u] >> (u + 1)
        if later:
            head = f"e {u} "
            flags = bin(later)[:1:-1].encode().translate(_DIGIT_FLAGS)
            later_names = names[u + 1 : u + 1 + len(flags)]
            out.append(head + ("\n" + head).join(compress(later_names, flags)))
    if inst.kind == "fvs":
        pass  # set defaults to all vertices
    elif inst.special:
        out.append("set " + " ".join(str(v) for v in inst.special))
    if inst.budget is not None:
        out.append(f"k {inst.budget}")
    return "\n".join(out) + "\n"


def parse_solution_ids(text: str, n: int) -> tuple[int, ...]:
    """A removed set of a graph on ``1..n``: whitespace-separated vertex ids,
    comments allowed.

    The first faulty id in reading order is reported, at its own line.
    """
    removed: set[int] = set()
    for line_no, tokens in _tokenized(_lines(text)):
        for tok in tokens:
            v = _int(tok, line_no, "vertex id")
            if not (1 <= v <= n):
                raise ParseError(line_no, f"solution vertex {v} out of range 1..{n}")
            if v in removed:
                raise ParseError(line_no, "solution repeats a vertex")
            removed.add(v)
    return tuple(sorted(removed))


def parse_tripartite(text: str) -> tuple[TripartiteGraph, int | None]:
    """A 'p vc3 n m' file with part A/B/C lines; returns the optional budget too."""
    lines = _lines(text)
    line_no, _, n, m = _header(lines, ("vc3",))
    body = _Body(n, m)
    parts: dict[str, tuple[int, ...]] = {}

    def part(line_no: int, tokens: list[str]) -> bool:
        if tokens[0] != "part":
            return False
        if len(tokens) < 2 or tokens[1] not in ("A", "B", "C"):
            raise ParseError(line_no, "part line needs 'part A|B|C <ids...>'")
        name = tokens[1]
        if name in parts:
            raise ParseError(line_no, f"duplicate part {name}")
        parts[name] = tuple(body._vertex(tok, line_no) for tok in tokens[2:])
        return True

    body.read(lines, line_no, part)
    triple = tuple(parts.get(name, ()) for name in "ABC")
    return TripartiteGraph(body.graph(), triple), body.budget


def parse_multicolored(text: str) -> MulticoloredInstance:
    """A 'p mcis n m' file with 'class <i> <ids...>' lines, i = 1..k."""
    lines = _lines(text)
    line_no, _, n, m = _header(lines, ("mcis",))
    body = _Body(n, m)
    classes: dict[int, tuple[int, ...]] = {}

    def class_line(line_no: int, tokens: list[str]) -> bool:
        if tokens[0] != "class":
            return False
        if len(tokens) < 3:
            raise ParseError(line_no, "class line needs 'class <i> <ids...>'")
        i = _int(tokens[1], line_no, "class index")
        if i < 1:
            raise ParseError(line_no, "class indices start at 1")
        if i in classes:
            raise ParseError(line_no, f"duplicate class {i}")
        classes[i] = tuple(body._vertex(tok, line_no) for tok in tokens[2:])
        return True

    line_no = body.read(lines, line_no, class_line)
    if not classes:
        raise ParseError(line_no, "an mcis file needs at least one class line")
    k = max(classes)
    if sorted(classes) != list(range(1, k + 1)):
        raise ParseError(line_no, f"class indices must be exactly 1..{k}")
    return MulticoloredInstance(body.graph(), tuple(classes[i] for i in range(1, k + 1)))


def emit_mapping(out: ReductionOutput) -> str:
    return "".join(f"{role} {v}\n" for role, v in out.mapping)
