"""Reference values computed apart from poslink, and parsers for its output.

Nothing here imports poslink.  Polynomials are plain dicts:

* a Jones polynomial V(t) maps half-steps to coefficients (key k means
  t^(k/2)), so links with an even number of components are exact;
* a Conway polynomial, an unnormalized Jones polynomial J(q) and a graded
  Euler characteristic map integer exponents to coefficients;
* a Khovanov table maps (i, j) to (free rank, number of Z/2 summands).

Conventions are the ones poslink documents: the positive (right-handed)
trefoil has V = t + t^3 - t^4, J(q) = (q + 1/q) V with t^(1/2) -> -q, and
the crossing-free unknot has Kh = Z at (0, -1) and (0, 1).
"""

from __future__ import annotations

import re

Poly = dict[int, int]
KhTable = dict[tuple[int, int], tuple[int, int]]


def clean(p: Poly) -> Poly:
    return {k: v for k, v in p.items() if v}


def mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            out[ka + kb] = out.get(ka + kb, 0) + va * vb
    return clean(out)


def add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return clean(out)


# --------------------------------------------------------------------------
# closed forms


def lucas(n: int) -> int:
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def _divide_exact(num: list[int], den: list[int]) -> list[int]:
    """Quotient of two ordinary polynomials (coefficient lists, ascending),
    raising if the division leaves a remainder."""
    num = list(num)
    quotient = [0] * (len(num) - len(den) + 1)
    for k in range(len(quotient) - 1, -1, -1):
        c, r = divmod(num[k + len(den) - 1], den[-1])
        if r:
            raise ArithmeticError("inexact polynomial division")
        quotient[k] = c
        for m, d in enumerate(den):
            num[k + m] -= c * d
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return quotient


def _list_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _binomial_minus_one(n: int) -> list[int]:
    """t^n - 1 as an ascending coefficient list."""
    return [-1] + [0] * (n - 1) + [1]


def torus_jones(p: int, q: int) -> Poly:
    """V of the positive torus knot T(p, q), p and q coprime:
    t^((p-1)(q-1)/2) (1 - t^(p+1) - t^(q+1) + t^(p+q)) / (1 - t^2)."""
    num = [0] * (p + q + 1)
    num[0] += 1
    num[p + 1] -= 1
    num[q + 1] -= 1
    num[p + q] += 1
    quotient = _divide_exact(num, [1, 0, -1])
    base = (p - 1) * (q - 1) // 2
    return clean({2 * (base + k): c for k, c in enumerate(quotient)})


def torus_conway(p: int, q: int) -> Poly:
    """Conway polynomial of T(p, q) from its Alexander polynomial
    (t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)), via z = t^(1/2) - t^(-1/2)."""
    alexander = _divide_exact(
        _list_mul(_binomial_minus_one(p * q), _binomial_minus_one(1)),
        _list_mul(_binomial_minus_one(p), _binomial_minus_one(q)),
    )
    genus2 = len(alexander) - 1
    if genus2 % 2 or alexander != alexander[::-1]:
        raise ArithmeticError("torus Alexander polynomial is not symmetric")
    g = genus2 // 2
    # Delta = a_0 + sum_k a_k (t^k + t^-k); t^k + t^-k is a polynomial in
    # x = t + 1/t (s_k = x s_(k-1) - s_(k-2)), and x = z^2 + 2.
    x: Poly = {2: 1, 0: 2}
    s_prev: Poly = {0: 2}
    s_cur: Poly = x
    result: Poly = {0: alexander[g]}
    for k in range(1, g + 1):
        result = add(result, {e: alexander[g + k] * c for e, c in s_cur.items()})
        s_prev, s_cur = s_cur, add(mul(x, s_cur), {e: -c for e, c in s_prev.items()})
    return result


# --------------------------------------------------------------------------
# Kauffman bracket straight from a braid word


def braid_components(strands: int, letters: list[int]) -> int:
    """Number of components of the braid closure (cycles of its permutation)."""
    perm = list(range(strands))
    for k in letters:
        i = abs(k) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    seen = [False] * strands
    cycles = 0
    for start in range(strands):
        if not seen[start]:
            cycles += 1
            p = start
            while not seen[p]:
                seen[p] = True
                p = perm[p]
    return cycles


def braid_jones(strands: int, letters: list[int]) -> Poly:
    """V(t) of a braid closure by a state sum on the braid picture itself.

    The strand at position p between letters L and L+1 is node
    (L, p); a crossing is smoothed either vertically (strands pass
    straight through) or horizontally (a cap below, a cup above).  The
    vertical smoothing is the oriented one, which is the A-smoothing of a
    positive crossing and the B-smoothing of a negative one.
    """
    n, m = strands, len(letters)
    levels = m + 1

    def node(level: int, p: int) -> int:
        return level * n + p

    fixed: list[tuple[int, int]] = []
    for level, k in enumerate(letters):
        i = abs(k) - 1
        for p in range(n):
            if p not in (i, i + 1):
                fixed.append((node(level, p), node(level + 1, p)))
    for p in range(n):
        fixed.append((node(m, p), node(0, p)))
    vertical = [
        ((node(L, abs(k) - 1), node(L + 1, abs(k) - 1)),
         (node(L, abs(k)), node(L + 1, abs(k))))
        for L, k in enumerate(letters)
    ]
    horizontal = [
        ((node(L, abs(k) - 1), node(L, abs(k))),
         (node(L + 1, abs(k) - 1), node(L + 1, abs(k))))
        for L, k in enumerate(letters)
    ]
    total = levels * n
    profile: dict[tuple[int, int], int] = {}
    for mask in range(1 << m):
        parent = list(range(total))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(a: int, b: int) -> None:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[rb] = ra

        for a, b in fixed:
            union(a, b)
        b_count = 0
        for e, k in enumerate(letters):
            is_b = (mask >> e) & 1
            b_count += is_b
            # A-smoothing: vertical for positive letters, horizontal for negative
            use_vertical = (k > 0) != bool(is_b)
            for a, b in (vertical[e] if use_vertical else horizontal[e]):
                union(a, b)
        circles = sum(1 for x in range(total) if find(x) == x)
        key = (b_count, circles)
        profile[key] = profile.get(key, 0) + 1

    # <D> = sum A^(#A - #B) delta^(circles - 1), delta = -A^2 - A^-2
    delta = {2: -1, -2: -1}
    bracket: Poly = {}
    powers: dict[int, Poly] = {0: {0: 1}}
    for (b_count, circles), count in profile.items():
        e = circles - 1
        while e not in powers:
            top = max(powers)
            powers[top + 1] = mul(powers[top], delta)
        bracket = add(bracket, {k + (m - 2 * b_count): count * v for k, v in powers[e].items()})
    writhe = sum(1 if k > 0 else -1 for k in letters)
    sign = -1 if writhe % 2 else 1
    v: Poly = {}
    for a_exp, c in bracket.items():
        shifted = a_exp - 3 * writhe  # (-A^3)^(-w)
        if shifted % 2:
            raise ArithmeticError("odd A-exponent after the writhe correction")
        v[-shifted // 2] = sign * c  # t^(1/2) = A^-2
    return clean(v)


# --------------------------------------------------------------------------
# invariants of invariants


def unnormalized(v: Poly) -> Poly:
    """J(q) = (q + 1/q) V with t^(1/2) -> -q."""
    substituted = {k: (-c if k % 2 else c) for k, c in v.items()}
    return mul(substituted, {1: 1, -1: 1})


def euler_characteristic(kh: KhTable) -> Poly:
    out: Poly = {}
    for (i, j), (rank, _) in kh.items():
        out[j] = out.get(j, 0) + (-rank if i % 2 else rank)
    return clean(out)


def jones_at_i(v: Poly) -> tuple[int, int]:
    """V at t^(1/2) = i, so t = -1, as (real, imaginary)."""
    units = ((1, 0), (0, 1), (-1, 0), (0, -1))
    re_, im = 0, 0
    for k, c in v.items():
        a, b = units[k % 4]
        re_ += a * c
        im += b * c
    return re_, im


def conway_at_2i(nabla: Poly) -> tuple[int, int]:
    """Conway polynomial at z = 2i, the value of t^(1/2) - t^(-1/2) at t = -1."""
    re_, im = 0, 0
    for k, c in nabla.items():
        mag = c * 2**k
        if k % 4 == 0:
            re_ += mag
        elif k % 4 == 1:
            im += mag
        elif k % 4 == 2:
            re_ -= mag
        else:
            im -= mag
    return re_, im


def abs2(z: tuple[int, int]) -> int:
    return z[0] * z[0] + z[1] * z[1]


def span_halves(v: Poly) -> int:
    return max(v) - min(v)


# --------------------------------------------------------------------------
# the positivity inequalities of the paper


def gamma(p1: int, lead_conway: int | None) -> int | None:
    if p1 == 0:
        return 0
    if lead_conway is None:
        return None
    if p1 == 1:
        return 2 * lead_conway - 2
    if p1 == 2:
        return lead_conway
    return None


def inequality_violations(v: Poly, nabla: Poly, kh: KhTable, n: int) -> list[str]:
    """Which of the two inequalities a (necessarily positive) link breaks.

    With p1 = |coefficient of t^(min deg V + 1)| in {0, 1, 2}:
        max deg V <= 4 min deg V + (n-1)/2 + gamma
        j_upper   <= 4 j_lower + n + 4 + 2 gamma
    Everything is compared in half-steps so even n stays exact.
    """
    lo, hi = min(v), max(v)
    p1 = abs(v.get(lo + 2, 0))
    lead = nabla[max(nabla)] if nabla else None
    g = gamma(p1, lead) if p1 <= 2 else None
    if g is None:
        return []
    broken = []
    if hi > 4 * lo + (n - 1) + 2 * g:
        broken.append(f"Jones inequality: {hi}/2 > 4*{lo}/2 + ({n}-1)/2 + {g}")
    js = [j for (_, j) in kh]
    j_lower, j_upper = min(js), max(js)
    if j_upper > 4 * j_lower + n + 4 + 2 * g:
        broken.append(f"Khovanov inequality: {j_upper} > 4*{j_lower} + {n} + 4 + 2*{g}")
    return broken


def kh0_of_positive_braid_knot(kh: KhTable, strands: int, crossings: int) -> str | None:
    """For the closure of a positive braid that is a knot, Kh^0 is Z + Z at
    j = s - 1 and s + 1 with s = c - n + 1 and nothing else.  Returns a
    description of the mismatch, or None."""
    s = crossings - strands + 1
    got = {j: g for (i, j), g in kh.items() if i == 0}
    want = {s - 1: (1, 0), s + 1: (1, 0)}
    if got != want:
        return f"Kh^0 is {sorted(got.items())}, expected Z at j = {s - 1} and {s + 1}"
    return None


# --------------------------------------------------------------------------
# parsers for poslink's text output


_POLY_TERM = re.compile(r"(\d*)(?:([A-Za-z])(?:\^(?:\((-?\d+)/2\)|(-?\d+)))?)?")


def parse_poly(text: str, var: str) -> Poly:
    """Parse ``t - 2t^2 + t^(5/2)`` style text into half-steps (for t) or
    integer exponents (for every other variable)."""
    text = text.strip()
    if text == "0":
        return {}
    halves = var == "t"
    tokens = text.replace(" + ", " +").replace(" - ", " -").split(" ")
    out: Poly = {}
    for token in tokens:
        sign = -1 if token.startswith("-") else 1
        body = token.lstrip("+-")
        m = _POLY_TERM.fullmatch(body)
        if not m or not body:
            raise ValueError(f"cannot parse term {token!r} of {text!r}")
        coeff_s, name, half_exp, int_exp = m.groups()
        coeff = int(coeff_s) if coeff_s else 1
        if name is None:
            exp2 = 0
        else:
            if name != var:
                raise ValueError(f"variable {name!r} in {text!r}, expected {var!r}")
            if half_exp is not None:
                if not halves:
                    raise ValueError(f"half-integer exponent in {text!r}")
                exp2 = int(half_exp)
            else:
                exp2 = int(int_exp) if int_exp is not None else 1
                if halves:
                    exp2 *= 2
        out[exp2] = out.get(exp2, 0) + sign * coeff
    return clean(out)


_T_MONO = re.compile(r"(\d*)(?:t(?:\^(-?\d+))?)?")
_KH_PIECE = re.compile(
    r"(?:\((?P<group>[^()]*)\)|(?P<mono>\S+) )?q(?:\^(?P<j>-?\d+))?(?P<torsion> T\^2)?"
)


def _t_monomial(text: str) -> tuple[int, int]:
    m = _T_MONO.fullmatch(text.strip())
    if not m or not text.strip():
        raise ValueError(f"cannot parse monomial {text!r}")
    coeff_s, exp = m.groups()
    has_t = "t" in text
    coeff = int(coeff_s) if coeff_s else 1
    i = (int(exp) if exp is not None else 1) if has_t else 0
    return coeff, i


def parse_kh(text: str) -> KhTable:
    """Parse poslink's homology text (``q + (1 + 2t)q^3 + 2t^2 q^5 T^2``)."""
    text = text.strip()
    if text == "0":
        return {}
    pieces: list[str] = []
    depth, start = 0, 0
    for pos, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and text.startswith(" + ", pos):
            pieces.append(text[start:pos])
            start = pos + 3
    pieces.append(text[start:])
    free: dict[tuple[int, int], int] = {}
    torsion: dict[tuple[int, int], int] = {}
    for piece in pieces:
        m = _KH_PIECE.fullmatch(piece.strip())
        if not m:
            raise ValueError(f"cannot parse homology term {piece!r}")
        j = int(m.group("j")) if m.group("j") is not None else 1
        if m.group("group") is not None:
            monos = [_t_monomial(s) for s in m.group("group").split(" + ")]
        elif m.group("mono") is not None:
            monos = [_t_monomial(m.group("mono"))]
        else:
            monos = [(1, 0)]
        table = torsion if m.group("torsion") else free
        for coeff, i in monos:
            table[(i, j)] = table.get((i, j), 0) + coeff
    return {
        key: (free.get(key, 0), torsion.get(key, 0))
        for key in set(free) | set(torsion)
    }
