"""Line-oriented algebra file format.

    field F 3          # or: field Q
    dim 4
    1 1 : 2:1          # e1 ∘ e1 = 1·e2
    1 2 : 4:1 3:2      # e1 ∘ e2 = e4 + 2·e3

Unlisted products are zero, indices are 1-based, coefficients use the
scalar syntax of the header field (`-3`, `7/2` over Q; integers mod p).
`#` starts a comment; listing the same unordered product twice is an error.
A `dim` above the `dim` bound of JORDAN_LIMITS raises ResourceLimitError
before any table is allocated.
"""

from .algebra import Algebra
from .field import QQ, GF
from .limits import Limits, ResourceLimitError


class AlgebraFileError(ValueError):
    def __init__(self, line_no, message):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _is_digits(text):
    # str.isdigit also accepts digits such as '²' that int() rejects
    return text.isascii() and text.isdigit()


def _content_lines(text):
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield no, line


def parse_algebra_file(text):
    lines = list(_content_lines(text))
    if not lines:
        raise AlgebraFileError(0, "empty algebra file")
    no, header = lines[0]
    parts = header.split()
    if parts[0] != "field":
        raise AlgebraFileError(no, "expected `field Q` or `field F <p>`")
    if parts[1:] == ["Q"]:
        fld = QQ
    elif len(parts) == 3 and parts[1] == "F":
        try:
            p = int(parts[2])
        except ValueError:
            raise AlgebraFileError(no, f"bad prime {parts[2]!r}") from None
        try:
            fld = GF(p)
        except ValueError as exc:
            raise AlgebraFileError(no, str(exc)) from None
    else:
        raise AlgebraFileError(no, "expected `field Q` or `field F <p>`")

    if len(lines) < 2:
        raise AlgebraFileError(no, "missing `dim <n>` line")
    no, dim_line = lines[1]
    parts = dim_line.split()
    if len(parts) != 2 or parts[0] != "dim" or not _is_digits(parts[1]):
        raise AlgebraFileError(no, "expected `dim <n>`")
    dim = int(parts[1])
    bound = Limits.from_env().max_dim
    if dim > bound:
        raise ResourceLimitError(
            f"line {no}: dim {dim} is above the bound {bound} "
            "(JORDAN_LIMITS dim=N overrides it)")

    consts = {}
    listed = set()
    for no, line in lines[2:]:
        if ":" not in line:
            raise AlgebraFileError(no, "expected `i j : k:coeff ...`")
        head, _, tail = line.partition(":")
        idx = head.split()
        if len(idx) != 2 or not all(_is_digits(t.lstrip("-")) for t in idx):
            raise AlgebraFileError(no, f"bad product indices {head.strip()!r}")
        i, j = int(idx[0]), int(idx[1])
        if not (1 <= i <= dim and 1 <= j <= dim):
            raise AlgebraFileError(no, f"product index ({i},{j}) out of range")
        if i > j:
            i, j = j, i
        if (i, j) in listed:
            raise AlgebraFileError(no, f"duplicate product ({i},{j})")
        listed.add((i, j))
        terms = tail.split()
        if not terms:
            raise AlgebraFileError(no, "empty product expansion")
        seen_k = set()
        for term in terms:
            k_txt, sep, c_txt = term.partition(":")
            if not sep or not _is_digits(k_txt):
                raise AlgebraFileError(no, f"bad term {term!r}, expected k:coeff")
            k = int(k_txt)
            if not 1 <= k <= dim:
                raise AlgebraFileError(no, f"target index {k} out of range")
            if k in seen_k:
                raise AlgebraFileError(no, f"target index {k} listed twice")
            seen_k.add(k)
            try:
                c = fld.parse(c_txt)
            except ValueError as exc:
                raise AlgebraFileError(no, str(exc)) from None
            if c:
                consts[(i, j, k)] = c
    return Algebra(fld, dim, consts)


def render_algebra(a):
    fld = a.field
    out = ["field Q" if fld.kind == "Q" else f"field F {fld.p}",
           f"dim {a.dim}"]
    grouped = {}
    for (i, j, k), c in sorted(a.constants.items()):
        grouped.setdefault((i, j), []).append((k, c))
    for (i, j), terms in sorted(grouped.items()):
        body = " ".join(f"{k}:{fld.render(c)}" for k, c in sorted(terms))
        out.append(f"{i} {j} : {body}")
    return "\n".join(out) + "\n"
