"""Command line interface and text formats.

Four subcommands:

* ``decompose``: parse a series, decompose it into two commutators, and
  print the certificate as JSON;
* ``verify``: re-check a certificate (file or stdin) independently;
* ``trace``: print the reduced trace of a series;
* ``eval``: evaluate a series expression (sums, products, ``inv(...)``,
  ``comm(...,...)``) and print the result.

Exit codes: 0 success/valid, 1 invalid certificate or internal failure,
2 malformed input, input past a budget, or a result too large to print,
3 unsupported automorphism (order 2 or 3, or the identity).

Series are written as sums of ``coef*x^e`` terms with an optional
trailing ``O(x^k)``; coefficients are integer polynomials in ``g`` for
finite fields and rational expressions in ``t`` for qt.  Without an
explicit ``O(x^k)`` the precision defaults to the smallest exponent
plus the --prec window.
"""

from __future__ import annotations

import argparse
import itertools
import json
import re
import sys
from fractions import Fraction

from .decompose import Certificate, certificate_problem, decompose
from .errors import (
    CoefficientTooLarge,
    ExponentBeyondPrecision,
    FieldSpecError,
    IdentityAutomorphism,
    OutputTooLarge,
    SeriesSyntaxError,
    SkewLaurentError,
    UnsupportedOrder,
)
from .field_tower import FiniteFieldCtx, RationalFunctionCtx
from .reduced_trace import reduced_trace
from .skew_series import SkewSeries, commutator, from_terms, zero

_DEFAULT_PREC = 32
# Largest coefficient window (prec - val) a parsed series may have.
_MAX_WIDTH = 1 << 16
# Largest |val| of a series from text, of an eval product, or of a
# certificate's input: sigma^val costs grow with it (scale:a multiplies
# by a^val).
_MAX_EXPONENT = 1 << 12
# The budgets of a certificate's witness series exceed the input's by
# this much: decompose gives them valuations up to 2*|val| + 1 and
# windows up to 2 wider than the input's.
_WITNESS_SLACK = _MAX_EXPONENT + 2
# Largest |e| in a Q(t) coefficient power c^e.
_MAX_QT_POWER = 512
# Deepest nesting of parentheses, unary signs, inv( and comm( the parser
# takes: it recurses once per level, in up to six Python frames.
_MAX_DEPTH = 100


# ---------------------------------------------------------------------------
# field and sigma specifications


_GF_RE = re.compile(r"gf\((\d+)\^(\d+)\)(?:;poly=([0-9,\s-]+))?\Z")
_FROB_RE = re.compile(r"frob(?:\^(\d+))?\Z")
_SCALE_RE = re.compile(r"scale:(-?\d+(?:/\d+)?)\Z")


def build_ctx(field, sigma):
    """Context from a field spec (gf(p^m)[;poly=...] or qt) and sigma spec."""
    field = field.strip()
    sigma = sigma.strip()
    gf = _GF_RE.fullmatch(field)
    if gf:
        frob = _FROB_RE.fullmatch(sigma)
        if not frob:
            raise FieldSpecError(
                f"finite fields take sigma 'frob' or 'frob^e', not {sigma!r}"
            )
        try:
            p, m = int(gf.group(1)), int(gf.group(2))
            modulus = None
            if gf.group(3):
                modulus = tuple(int(c) for c in gf.group(3).replace(" ", "").split(","))
            e = int(frob.group(1)) if frob.group(1) else 1
        except ValueError as exc:  # an empty entry, or past Python's int-string limit
            raise FieldSpecError("field spec numeral is empty or too long") from exc
        return FiniteFieldCtx(p, m, frob_power=e, modulus=modulus)
    if field == "qt":
        if sigma == "shift":
            return RationalFunctionCtx("shift")
        scale = _SCALE_RE.fullmatch(sigma)
        if scale:
            try:
                factor = Fraction(scale.group(1))
            except (ValueError, ZeroDivisionError) as exc:
                raise FieldSpecError(f"bad scale factor: {exc}") from exc
            return RationalFunctionCtx("scale", scale=factor)
        raise FieldSpecError(f"qt takes sigma 'shift' or 'scale:a/b', not {sigma!r}")
    raise FieldSpecError(f"unknown field spec {field!r}")


# ---------------------------------------------------------------------------
# tokenizer and parser


# Integers, names and the nine operators.  ASCII whitespace (what
# str.isspace accepts below 128) separates tokens; any other character
# is an error.
_TOKEN_RE = re.compile(r"\d+|\w+|[-+*/^(),]", re.ASCII)
_BAD_CHAR_RE = re.compile(r"[^\t-\r\x1c-\x20\w+\-*/^(),]", re.ASCII)
# Names that end a coefficient, and that mark a parenthesised eval group
# as a series rather than a coefficient.
_SERIES_NAMES = frozenset(("x", "O", "inv", "comm"))


def _tokens(text):
    """The tokens of text and a "" sentinel, once no character is bad."""
    bad = _BAD_CHAR_RE.search(text)
    if bad:
        raise SeriesSyntaxError(f"unexpected character {bad.group()!r}", pos=bad.start())
    toks = _TOKEN_RE.findall(text)
    toks.append("")
    return toks


def _check_window(val, prec, error=SeriesSyntaxError, slack=0):
    """The budgets on a series from x^val to O(x^prec), each exceeded by at
    most slack: its width, and |val|."""
    width, top = _MAX_WIDTH + slack, _MAX_EXPONENT + slack
    if prec - val > width:
        raise error(f"window x^{val} .. O(x^{prec}) is wider than {width} coefficients")
    if not -top <= val <= top:
        raise error(f"exponent x^{val} is outside x^-{top} .. x^{top}")


class _Parser:
    """Recursive-descent parser over a list of string tokens.

    Coefficient expressions and series expressions share the tokens; a
    '*' directly before a series-level name ends the coefficient.  The
    list ends with a "" sentinel.  Text positions are found only for an
    error message.  toks, when given, is _tokens(text), already taken."""

    def __init__(self, ctx, text, relprec, eval_mode=False, toks=None):
        self.toks = _tokens(text) if toks is None else toks
        self.i = 0
        self.text = text
        self.ctx = ctx
        self.relprec = relprec
        self.eval_mode = eval_mode
        qt = isinstance(ctx, RationalFunctionCtx)
        self.var = "t" if qt else "g"
        # Q(t) powers grow the coefficients; GF powers cost O(log e).
        self.max_power = _MAX_QT_POWER if qt else None
        self.depth = 0
        # A finite field reads a parenthesised coefficient in format_elem's
        # form in one pass (_coefficient_group); Q(t) always descends.
        self.read_tokens = None if qt else ctx.read_tokens
        self.group_at = self.group = None

    def _error(self, message, at=None):
        """SeriesSyntaxError at token index at (the cursor by default)."""
        at = self.i if at is None else at
        pos = None
        if at < len(self.toks) - 1:  # no position at the end
            pos = next(itertools.islice(_TOKEN_RE.finditer(self.text), at, None)).start()
        return SeriesSyntaxError(message, pos=pos)

    def _take(self, op):
        if self.toks[self.i] != op:
            raise self._error(f"expected {op!r}")
        self.i += 1

    def _end(self):
        tok = self.toks[self.i]
        if tok:
            raise self._error(f"unexpected {tok!r}")

    def _nested(self, parse):
        """parse() one nesting level deeper, within _MAX_DEPTH."""
        if self.depth == _MAX_DEPTH:
            raise self._error(f"nested deeper than {_MAX_DEPTH} levels")
        self.depth += 1
        out = parse()
        self.depth -= 1
        return out

    def _int(self, tok):
        try:
            return int(tok)
        except ValueError as exc:  # past Python's int-string limit
            raise self._error(f"integer of {len(tok)} digits is too long") from exc

    def _integer(self):
        sign = self.toks[self.i]
        if sign == "-" or sign == "+":
            self.i += 1
        tok = self.toks[self.i]
        if not tok.isdigit():
            raise self._error("expected an integer" if tok else "unexpected end of input")
        v = self._int(tok)
        self.i += 1
        return -v if sign == "-" else v

    # -- coefficient (field element) expressions ------------------------

    def elem_sum(self):
        left = self.elem_mul()
        toks = self.toks
        while True:
            op = toks[self.i]
            if op == "+":
                self.i += 1
                left = left + self.elem_mul()
            elif op == "-":
                self.i += 1
                left = left - self.elem_mul()
            else:
                return left

    def elem_mul(self):
        left = self._elem_unary()
        toks = self.toks
        while True:
            op = toks[self.i]
            if op == "*":
                nxt = toks[self.i + 1]
                if nxt in _SERIES_NAMES or (nxt == "(" and self.eval_mode):
                    return left
                self.i += 1
                left = left * self._elem_unary()
            elif op == "/":
                self.i += 1
                left = left / self._elem_unary()
            else:
                return left

    def _elem_unary(self):
        op = self.toks[self.i]
        if op == "-":
            self.i += 1
            return -self._nested(self._elem_unary)
        if op == "+":
            self.i += 1
            return self._nested(self._elem_unary)
        base = self._elem_atom()
        if self.toks[self.i] != "^":
            return base
        self.i += 1
        e = self._integer()
        if self.max_power is not None and abs(e) > self.max_power:
            raise self._error(f"power {e} is past the budget of {self.max_power}", self.i - 1)
        return (base ** (-e)).inverse() if e < 0 else base**e

    def _elem_atom(self):
        tok = self.toks[self.i]
        if tok.isdigit():
            out = self.ctx.from_int(self._int(tok))
        elif tok == self.var:
            out = self.ctx.gen()
        elif tok == "(":
            if self.read_tokens is not None and self.depth < _MAX_DEPTH:
                group = self._coefficient_group()
                if group is not None:
                    out, self.i = group
                    return out
            self.i += 1
            out = self._nested(self.elem_sum)
            self._take(")")
            return out
        elif not tok:
            raise self._error("unexpected end of input")
        elif tok == "x":
            raise self._error("x cannot appear inside a coefficient")
        elif tok.isidentifier():
            raise self._error(f"unknown symbol {tok!r}")
        else:
            raise self._error(f"unexpected {tok!r}")
        self.i += 1
        return out

    def _coefficient_group(self):
        """(element, index past the ")") for the "(" group at the cursor
        when it holds a coefficient as format_elem prints it, else None.

        Any other group is left to the descent, which reads the same
        element or raises the same error.  The result is kept for the
        cursor, so an eval atom and the coefficient it turns out to be
        read the group once."""
        i = self.i
        if self.group_at != i:
            group = self.read_tokens(self.toks, i + 1)
            if group is not None:
                out, j = group
                group = (out, j + 1) if self.toks[j] == ")" else None
            self.group_at, self.group = i, group
        return self.group

    # -- strict series --------------------------------------------------

    def _xpow(self):
        tok = self.toks[self.i]
        if tok != "x":
            raise self._error("expected x" if tok else "unexpected end of input")
        self.i += 1
        if self.toks[self.i] != "^":
            return 1
        self.i += 1
        return self._integer()

    def _big_oh(self):
        self.i += 1  # past the O
        self._take("(")
        e = self._xpow()
        self._take(")")
        return e

    def series(self):
        """Sum of coef*x^e terms with an optional trailing O(x^k)."""
        toks = self.toks
        terms = []
        cap = None
        negate = toks[self.i] == "-"
        self.i += negate
        while True:
            tok = toks[self.i]
            if not tok:
                raise self._error("expected a series term")
            if tok == "O":
                cap = self._big_oh()
                break
            exp, coef = self._series_term()
            terms.append((exp, -coef if negate else coef))
            op = toks[self.i]
            if op != "+" and op != "-":
                break
            self.i += 1
            negate = op == "-"
        self._end()
        val = min((e for e, _ in terms), default=cap)  # no terms: O(x^cap) alone
        if cap is None:
            cap = val + self.relprec
        return self._from_terms(terms, val, cap)

    def _from_terms(self, terms, val, prec):
        """from_terms within the window budget, failing as SeriesSyntaxError."""
        _check_window(val, prec)
        try:
            return from_terms(self.ctx, terms, prec)
        except ExponentBeyondPrecision as exc:
            raise SeriesSyntaxError(str(exc)) from exc

    def _series_term(self):
        if self.toks[self.i] == "x":
            return self._xpow(), self.ctx.one()
        coef = self.elem_mul()
        if self.toks[self.i] == "*" and self.toks[self.i + 1] == "x":
            self.i += 1
            return self._xpow(), coef
        return 0, coef

    # -- eval expressions -------------------------------------------------

    def eval_expr(self):
        out = self._eval_sum()
        self._end()
        return out

    def _eval_sum(self):
        """The sum of the products; its lone c*x^e atoms become one series."""
        toks = self.toks
        terms = []  # (exp, coef) of the lone atoms
        left = None  # the sum of the other products
        negate = toks[self.i] == "-"
        self.i += negate
        while True:
            out = self._eval_product(negate)
            if type(out) is tuple:
                terms.append(out)
            else:
                left = out if left is None else left + out
            op = toks[self.i]
            if op != "+" and op != "-":
                break
            self.i += 1
            negate = op == "-"
        if not terms:
            return left
        # each atom is c*x^e + O(x^(e+relprec)), so the sum ends at the
        # lowest O; no coefficient past it is added (on Q(t), a sum can
        # cross the size budget)
        prec = min(e for e, _ in terms) + self.relprec
        if left is not None:
            prec = min(prec, left.prec)
        atoms = from_terms(self.ctx, [(e, c) for e, c in terms if e < prec], prec)
        return atoms if left is None else left + atoms

    def _eval_product(self, negate):
        """A product's series, or a lone c*x^e atom's (exp, coef) pair."""
        left = self._eval_atom()
        if type(left) is tuple:
            if self.toks[self.i] != "*" and self.relprec > 0:
                exp, coef = left
                return exp, -coef if negate else coef
            left = self._atom_series(left)
        if negate:
            left = -left
        while self.toks[self.i] == "*":
            self.i += 1
            right = self._eval_atom()
            if type(right) is tuple:
                right = self._atom_series(right)
            left = left * right
            _check_window(left.val, left.val)  # a product adds the valuations
        return left

    def _atom_series(self, atom):
        """The series exp..exp+relprec of an (exp, coef) atom."""
        exp = atom[0]
        return self._from_terms([atom], exp, exp + self.relprec)

    def _eval_atom(self):
        """A series, or the (exp, coef) pair of a c*x^e atom."""
        tok = self.toks[self.i]
        if tok == "inv" or tok == "comm":
            self.i += 1
            self._take("(")
            first = self._nested(self._eval_sum)
            if tok == "inv":
                self._take(")")
                return first.inverse()
            self._take(",")
            second = self._nested(self._eval_sum)
            self._take(")")
            return commutator(first, second)
        if tok == "O":
            e = self._big_oh()
            _check_window(e, e)
            return zero(self.ctx, e)
        if tok == "(" and self._paren_holds_series():
            self.i += 1
            inner = self._nested(self._eval_sum)
            self._take(")")
            return inner
        if not tok:
            raise self._error("expected an expression")
        exp, coef = self._series_term()
        _check_window(exp, exp + self.relprec)  # an atom's window is relprec wide
        return exp, coef

    def _paren_holds_series(self):
        """Look inside a parenthesised group for series-level names; a
        group in format_elem's form is a coefficient, and is not scanned."""
        if self.read_tokens is not None and self._coefficient_group() is not None:
            return False
        depth = 0
        for tok in self.toks[self.i :]:
            if tok in _SERIES_NAMES:
                return True
            if tok == "(":
                depth += 1
            elif tok == ")":
                depth -= 1
                if depth == 0:
                    return False
        return False


def parse_series(ctx, text, relprec=_DEFAULT_PREC):
    return _Parser(ctx, text, relprec).series()


def parse_element(ctx, text):
    """The element that text writes.  A finite-field text exactly as
    format_elem prints it is read in one pass over its tokens; any other
    text takes the full grammar, on the same tokens."""
    toks = None
    if isinstance(ctx, FiniteFieldCtx):
        toks = _tokens(text)  # the parser's error for a bad character or a non-str
        got = ctx.read_tokens(toks, 0)
        if got is not None and not toks[got[1]]:
            return got[0]
    parser = _Parser(ctx, text, 0, toks=toks)
    out = parser.elem_sum()
    parser._end()
    return out


def evaluate(ctx, text, relprec=_DEFAULT_PREC):
    return _Parser(ctx, text, relprec, eval_mode=True).eval_expr()


# ---------------------------------------------------------------------------
# certificate JSON


_encode_str = json.encoder.encode_basestring_ascii


def _coefficient_writer(ctx):
    """element -> text for the coefficients of one certificate.

    On a finite field each distinct coefficient is formatted once, in a
    memo keyed on its raw value that lives as long as the returned
    function.  Q(t) coefficients are printed with str: a Q(t) element
    hashes through Fraction, which costs more than it saves."""
    if not isinstance(ctx, FiniteFieldCtx):
        return str
    memo = {}
    fmt = ctx.format_elem

    def write(a):
        text = memo.get(a.value)
        if text is None:
            text = memo[a.value] = fmt(a)
        return text

    return write


def _typed(obj, key, kind):
    """obj[key], which must be exactly a kind (so a bool is no int)."""
    value = obj[key]
    if type(value) is not kind:
        raise TypeError(f"{key!r} is {type(value).__name__}, not {kind.__name__}")
    return value


def _coefficient_reader(ctx):
    """text -> element for the coefficients of one certificate.

    parse_element reads each distinct text once, into a memo that lives as
    long as the returned function, so every text keeps the parser's
    result, error and budget."""
    memo = {}

    def read(text):
        if type(text) is not str:  # before the memo: a list is unhashable
            return parse_element(ctx, text)  # the parser's TypeError
        out = memo.get(text)
        if out is None:
            out = memo[text] = parse_element(ctx, text)
        return out

    return read


def obj_to_series(ctx, obj, read, slack=0):
    val, prec = _typed(obj, "val", int), _typed(obj, "prec", int)
    _check_window(val, prec, ValueError, slack)
    coeffs = [read(c) for c in _typed(obj, "coeffs", list)]
    return SkewSeries(ctx, val, coeffs, prec)


def _json_list(items, pad):
    """Encoded items as json.dumps(indent=2) lays out a list on a line indented by pad."""
    if not items:
        return "[]"
    inner = "\n" + pad + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + pad + "]"


def _series_json(s, write, pad):
    """The series as json.dumps(indent=2) lays out {"val": ..., "prec": ...,
    "coeffs": [...]} at indent pad, each coefficient written by write."""
    key = "\n" + pad + "  "
    coeffs = _json_list([_encode_str(write(c)) for c in s.coeffs], key[1:])
    return (
        f'{{{key}"val": {s.val:d},{key}"prec": {s.prec:d},{key}"coeffs": {coeffs}\n{pad}}}'
    )


def certificate_to_json(cert):
    """json.dumps(obj, indent=2) of the certificate's object, written directly.

    The standard library runs its C encoder only without an indent, so the
    fixed layout is joined here, each string encoded as json.dumps does.
    """
    write = _coefficient_writer(cert.ctx)
    head = [
        f'"field": {_encode_str(cert.ctx.field_spec())}',
        f'"sigma": {_encode_str(cert.ctx.sigma_spec())}',
        f'"method": {_encode_str(cert.method)}',
        f'"prec": {cert.check_prec:d}',
        f'"input": {_series_json(cert.input, write, "  ")}',
    ]
    pad = "      "
    pairs = [
        _json_list([_series_json(b, write, pad), _series_json(w, write, pad)], "    ")
        for b, w in cert.pairs
    ]
    head.append(f'"pairs": {_json_list(pairs, "  ")}')
    if cert.experimental:
        head.append('"experimental": true')
    return "{\n  " + ",\n  ".join(head) + "\n}"


def certificate_from_json(text):
    try:
        obj = json.loads(text)
        ctx = build_ctx(_typed(obj, "field", str), _typed(obj, "sigma", str))
        pairs = _typed(obj, "pairs", list)
        if not all(type(pair) is list and len(pair) == 2 for pair in pairs):
            raise TypeError("'pairs' holds something other than [b, w] lists")
        read = _coefficient_reader(ctx)
        pairs = tuple(
            (
                obj_to_series(ctx, b, read, _WITNESS_SLACK),
                obj_to_series(ctx, w, read, _WITNESS_SLACK),
            )
            for b, w in pairs
        )
        return Certificate(
            input=obj_to_series(ctx, obj["input"], read),
            pairs=pairs,
            method=_typed(obj, "method", str),
            check_prec=_typed(obj, "prec", int),
            experimental="experimental" in obj and _typed(obj, "experimental", bool),
        )
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, RecursionError) as exc:
        # json raises RecursionError for arrays or objects nested too deep
        raise SeriesSyntaxError(f"malformed certificate: {exc}") from exc


# ---------------------------------------------------------------------------
# commands


def _add_ctx_args(sub):
    sub.add_argument("--field", required=True, help="gf(p^m)[;poly=c0,c1,...] or qt")
    sub.add_argument(
        "--sigma", required=True, help="frob[^e] for gf, shift or scale:a/b for qt"
    )
    sub.add_argument(
        "--prec",
        type=int,
        default=_DEFAULT_PREC,
        help="default relative precision for terms without O(x^k)",
    )


def build_arg_parser():
    ap = argparse.ArgumentParser(
        prog="skewlaurent",
        description="exact skew Laurent series arithmetic and "
        "two-commutator decompositions",
    )
    subs = ap.add_subparsers(dest="command", required=True)

    d = subs.add_parser("decompose", help="decompose a series, print a certificate")
    _add_ctx_args(d)
    d.add_argument("series")

    v = subs.add_parser("verify", help="re-check a certificate (file or '-')")
    v.add_argument("certificate", nargs="?", default="-")

    t = subs.add_parser("trace", help="reduced trace of a series")
    _add_ctx_args(t)
    t.add_argument("series")

    e = subs.add_parser("eval", help="evaluate a series expression")
    _add_ctx_args(e)
    e.add_argument("expression")

    return ap


def _cmd_decompose(args):
    ctx = build_ctx(args.field, args.sigma)
    f = parse_series(ctx, args.series, args.prec)
    cert = decompose(f)
    print(certificate_to_json(cert))
    return 0


def _cmd_verify(args):
    if args.certificate == "-":
        text = sys.stdin.read()
    else:
        with open(args.certificate, "r", encoding="utf-8") as fh:
            text = fh.read()
    cert = certificate_from_json(text)
    problem = certificate_problem(cert)
    if problem is None:
        print(f"valid: {cert.method} certificate at O(x^{cert.check_prec})")
        return 0
    print(f"invalid: {problem}")
    return 1


def _cmd_trace(args):
    ctx = build_ctx(args.field, args.sigma)
    f = parse_series(ctx, args.series, args.prec)
    print(reduced_trace(f))
    return 0


def _cmd_eval(args):
    ctx = build_ctx(args.field, args.sigma)
    print(evaluate(ctx, args.expression, args.prec))
    return 0


_COMMANDS = {
    "decompose": _cmd_decompose,
    "verify": _cmd_verify,
    "trace": _cmd_trace,
    "eval": _cmd_eval,
}


def main(argv=None):
    args = build_arg_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (SeriesSyntaxError, FieldSpecError, OutputTooLarge, CoefficientTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (UnsupportedOrder, IdentityAutomorphism) as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SkewLaurentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
