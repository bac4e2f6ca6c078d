"""Command line interface and text formats.

Four subcommands:

* ``decompose``: parse a series, decompose it into two commutators, and
  print the certificate as JSON;
* ``verify``: re-check a certificate (file or stdin) independently;
* ``trace``: print the reduced trace of a series;
* ``eval``: evaluate a series expression (sums, products, ``inv(...)``,
  ``comm(...,...)``) and print the result.

Exit codes: 0 success/valid, 1 invalid certificate or internal failure,
2 malformed input, 3 unsupported automorphism (order 2 or 3, or the
identity).

Series are written as sums of ``coef*x^e`` terms with an optional
trailing ``O(x^k)``; coefficients are integer polynomials in ``g`` for
finite fields and rational expressions in ``t`` for qt.  Without an
explicit ``O(x^k)`` the precision defaults to the smallest exponent
plus the --prec window.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .decompose import Certificate, certificate_problem, decompose
from .errors import (
    ExponentBeyondPrecision,
    FieldSpecError,
    IdentityAutomorphism,
    SeriesSyntaxError,
    SkewLaurentError,
    UnsupportedOrder,
)
from .field_tower import FiniteFieldCtx, RationalFunctionCtx
from .reduced_trace import reduced_trace
from .skew_series import SkewSeries, commutator, from_terms, term, zero

_DEFAULT_PREC = 32
# Largest coefficient window (prec - val) a parsed series may have.
_MAX_WIDTH = 1 << 16
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
# tokenizer


_CALL_NAMES = ("inv", "comm")
_OPS = set("+-*/^(),")


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(text):
    toks = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(_Token("int", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Token("ident", text[i:j], i))
            i = j
            continue
        if c in _OPS:
            toks.append(_Token("op", c, i))
            i += 1
            continue
        raise SeriesSyntaxError(f"unexpected character {c!r}", pos=i)
    return toks


def _too_long(tok):
    """The error for an int token past Python's int-string limit."""
    return SeriesSyntaxError(f"integer of {len(tok.text)} digits is too long", pos=tok.pos)


class _Parser:
    """Recursive-descent parser over a token list.

    Coefficient expressions and series expressions share the tokens; a
    '*' directly before a series-level symbol ends the coefficient."""

    def __init__(self, ctx, toks, relprec, eval_mode=False):
        self.ctx = ctx
        self.toks = toks
        self.i = 0
        self.relprec = relprec
        self.eval_mode = eval_mode
        self.var = "t" if isinstance(ctx, RationalFunctionCtx) else "g"
        self.depth = 0

    # -- token helpers --------------------------------------------------

    def _peek(self, ahead=0):
        idx = self.i + ahead
        return self.toks[idx] if idx < len(self.toks) else None

    def _next(self):
        tok = self._peek()
        if tok is None:
            raise SeriesSyntaxError("unexpected end of input")
        self.i += 1
        return tok

    def _accept_op(self, text):
        tok = self._peek()
        if tok is not None and tok.kind == "op" and tok.text == text:
            self.i += 1
            return True
        return False

    def _expect_op(self, text):
        tok = self._peek()
        if tok is None or tok.kind != "op" or tok.text != text:
            pos = tok.pos if tok else None
            raise SeriesSyntaxError(f"expected {text!r}", pos=pos)
        self.i += 1

    def _at_end(self):
        return self.i >= len(self.toks)

    def _nested(self, parse):
        """parse() one nesting level deeper, within _MAX_DEPTH."""
        if self.depth == _MAX_DEPTH:
            tok = self._peek()
            pos = tok.pos if tok else None
            raise SeriesSyntaxError(f"nested deeper than {_MAX_DEPTH} levels", pos=pos)
        self.depth += 1
        out = parse()
        self.depth -= 1
        return out

    # -- integers -------------------------------------------------------

    def _integer(self):
        neg = self._accept_op("-")
        if not neg:
            self._accept_op("+")
        tok = self._next()
        if tok.kind != "int":
            raise SeriesSyntaxError("expected an integer", pos=tok.pos)
        try:
            v = int(tok.text)
        except ValueError as exc:
            raise _too_long(tok) from exc
        return -v if neg else v

    # -- coefficient (field element) expressions ------------------------

    def _elem_stops_mul(self):
        """Does '*' at the cursor end the coefficient expression?"""
        nxt = self._peek(1)
        if nxt is None:
            return False
        if nxt.kind == "ident" and (
            nxt.text == "x" or nxt.text == "O" or nxt.text in _CALL_NAMES
        ):
            return True
        return self.eval_mode and nxt.kind == "op" and nxt.text == "("

    def elem_sum(self):
        left = self.elem_mul()
        while True:
            tok = self._peek()
            if tok is None or tok.kind != "op" or tok.text not in "+-":
                return left
            self.i += 1
            right = self.elem_mul()
            left = left + right if tok.text == "+" else left - right

    def elem_mul(self):
        left = self._elem_unary()
        while True:
            tok = self._peek()
            if tok is None or tok.kind != "op" or tok.text not in "*/":
                return left
            if tok.text == "*" and self._elem_stops_mul():
                return left
            self.i += 1
            right = self._elem_unary()
            left = left * right if tok.text == "*" else left / right

    def _elem_unary(self):
        if self._accept_op("-"):
            return -self._nested(self._elem_unary)
        if self._accept_op("+"):
            return self._nested(self._elem_unary)
        return self._elem_pow()

    def _elem_pow(self):
        base = self._elem_atom()
        if self._accept_op("^"):
            e = self._integer()
            if e < 0:
                return (base ** (-e)).inverse()
            return base**e
        return base

    def _elem_atom(self):
        tok = self._next()
        if tok.kind == "int":
            try:
                return self.ctx.from_int(int(tok.text))
            except ValueError as exc:
                raise _too_long(tok) from exc
        if tok.kind == "ident":
            if tok.text == self.var:
                return self.ctx.gen()
            if tok.text == "x":
                raise SeriesSyntaxError(
                    "x cannot appear inside a coefficient", pos=tok.pos
                )
            raise SeriesSyntaxError(f"unknown symbol {tok.text!r}", pos=tok.pos)
        if tok.kind == "op" and tok.text == "(":
            inner = self._nested(self.elem_sum)
            self._expect_op(")")
            return inner
        raise SeriesSyntaxError(f"unexpected {tok.text!r}", pos=tok.pos)

    # -- strict series --------------------------------------------------

    def _xpow(self):
        tok = self._next()
        if tok.kind != "ident" or tok.text != "x":
            raise SeriesSyntaxError("expected x", pos=tok.pos)
        if self._accept_op("^"):
            return self._integer()
        return 1

    def _big_oh(self):
        self._expect_op("(")
        e = self._xpow()
        self._expect_op(")")
        return e

    def series(self):
        """Sum of coef*x^e terms with an optional trailing O(x^k)."""
        terms = []
        cap = None
        negate = self._accept_op("-")
        while True:
            tok = self._peek()
            if tok is None:
                raise SeriesSyntaxError("expected a series term")
            if tok.kind == "ident" and tok.text == "O":
                self.i += 1
                cap = self._big_oh()
                break
            exp, coef = self._series_term()
            terms.append((exp, -coef if negate else coef))
            if self._accept_op("+"):
                negate = False
            elif self._accept_op("-"):
                negate = True
            else:
                break
        if not self._at_end():
            tok = self._peek()
            raise SeriesSyntaxError(f"unexpected {tok.text!r}", pos=tok.pos)
        return self._assemble(terms, cap)

    def _series_term(self):
        tok = self._peek()
        if tok.kind == "ident" and tok.text == "x":
            return self._xpow(), self.ctx.one()
        coef = self.elem_mul()
        nxt = self._peek()
        if (
            nxt is not None
            and nxt.kind == "op"
            and nxt.text == "*"
            and self._peek(1) is not None
            and self._peek(1).kind == "ident"
            and self._peek(1).text == "x"
        ):
            self.i += 1
            return self._xpow(), coef
        return 0, coef

    def _check_width(self, val, prec):
        if prec - val > _MAX_WIDTH:
            raise SeriesSyntaxError(
                f"window x^{val} .. O(x^{prec}) is wider than {_MAX_WIDTH} coefficients"
            )

    def _assemble(self, terms, cap):
        if terms:
            val = min(e for e, _ in terms)
            if cap is None:
                cap = val + self.relprec
            self._check_width(val, cap)
        elif cap is None:
            raise SeriesSyntaxError("empty series")
        try:
            return from_terms(self.ctx, terms, cap)
        except ExponentBeyondPrecision as exc:
            raise SeriesSyntaxError(str(exc)) from exc

    # -- eval expressions -------------------------------------------------

    def eval_expr(self):
        out = self._eval_sum()
        if not self._at_end():
            tok = self._peek()
            raise SeriesSyntaxError(f"unexpected {tok.text!r}", pos=tok.pos)
        return out

    def _eval_sum(self):
        left = self._eval_product(self._accept_op("-"))
        while True:
            if self._accept_op("+"):
                left = left + self._eval_product(False)
            elif self._accept_op("-"):
                left = left + self._eval_product(True)
            else:
                return left

    def _eval_product(self, negate):
        left = self._eval_atom()
        if negate:
            left = -left
        while self._accept_op("*"):
            left = left * self._eval_atom()
        return left

    def _eval_atom(self):
        tok = self._peek()
        if tok is None:
            raise SeriesSyntaxError("expected an expression")
        if tok.kind == "ident":
            if tok.text == "inv":
                self.i += 1
                self._expect_op("(")
                inner = self._nested(self._eval_sum)
                self._expect_op(")")
                return inner.inverse()
            if tok.text == "comm":
                self.i += 1
                self._expect_op("(")
                first = self._nested(self._eval_sum)
                self._expect_op(",")
                second = self._nested(self._eval_sum)
                self._expect_op(")")
                return commutator(first, second)
            if tok.text == "O":
                self.i += 1
                return zero(self.ctx, self._big_oh())
            if tok.text == "x":
                e = self._xpow()
                if self.relprec > _MAX_WIDTH:
                    self._check_width(e, e + self.relprec)
                return term(self.ctx, self.ctx.one(), e, e + self.relprec)
        if tok.kind == "op" and tok.text == "(" and self._paren_holds_series():
            self.i += 1
            inner = self._nested(self._eval_sum)
            self._expect_op(")")
            return inner
        exp, coef = self._series_term()
        return self._assemble_atom(exp, coef)

    def _assemble_atom(self, exp, coef):
        prec = exp + self.relprec
        if self.relprec > _MAX_WIDTH:  # an atom's window is relprec wide
            self._check_width(exp, prec)
        return from_terms(self.ctx, [(exp, coef)], prec)

    def _paren_holds_series(self):
        """Look inside a parenthesised group for series-level symbols."""
        depth = 0
        for tok in self.toks[self.i :]:
            if tok.kind == "op" and tok.text == "(":
                depth += 1
            elif tok.kind == "op" and tok.text == ")":
                depth -= 1
                if depth == 0:
                    return False
            elif tok.kind == "ident" and (
                tok.text == "x" or tok.text == "O" or tok.text in _CALL_NAMES
            ):
                return True
        return False


def parse_series(ctx, text, relprec=_DEFAULT_PREC):
    return _Parser(ctx, _tokenize(text), relprec).series()


def parse_element(ctx, text):
    parser = _Parser(ctx, _tokenize(text), 0)
    out = parser.elem_sum()
    if not parser._at_end():
        tok = parser._peek()
        raise SeriesSyntaxError(f"unexpected {tok.text!r}", pos=tok.pos)
    return out


def evaluate(ctx, text, relprec=_DEFAULT_PREC):
    return _Parser(ctx, _tokenize(text), relprec, eval_mode=True).eval_expr()


# ---------------------------------------------------------------------------
# certificate JSON


def series_to_obj(s):
    return {"val": s.val, "prec": s.prec, "coeffs": [str(c) for c in s.coeffs]}


def obj_to_series(ctx, obj):
    coeffs = [parse_element(ctx, c) for c in obj["coeffs"]]
    return SkewSeries(ctx, obj["val"], coeffs, obj["prec"])


def certificate_to_json(cert):
    obj = {
        "field": cert.ctx.field_spec(),
        "sigma": cert.ctx.sigma_spec(),
        "method": cert.method,
        "prec": cert.check_prec,
        "input": series_to_obj(cert.input),
        "pairs": [[series_to_obj(b), series_to_obj(w)] for b, w in cert.pairs],
    }
    if cert.experimental:
        obj["experimental"] = True
    return json.dumps(obj, indent=2)


def certificate_from_json(text):
    try:
        obj = json.loads(text)
        ctx = build_ctx(obj["field"], obj["sigma"])
        pairs = tuple(
            (obj_to_series(ctx, b), obj_to_series(ctx, w)) for b, w in obj["pairs"]
        )
        return Certificate(
            input=obj_to_series(ctx, obj["input"]),
            pairs=pairs,
            method=obj["method"],
            check_prec=obj["prec"],
            experimental=bool(obj.get("experimental", False)),
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
    except (SeriesSyntaxError, FieldSpecError) as exc:
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
