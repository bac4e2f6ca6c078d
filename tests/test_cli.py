"""CLI: specs, parsing, printing, certificate JSON, exit codes."""

import contextlib
import io
import json
import random
import sys

import pytest

import skewlaurent.cli as cli_module
from skewlaurent.cli import (
    build_ctx,
    certificate_from_json,
    certificate_to_json,
    evaluate,
    main,
    parse_element,
    parse_series,
)
from skewlaurent.decompose import Certificate, decompose, verify_certificate
from skewlaurent.errors import FieldSpecError, SeriesSyntaxError
from skewlaurent.field_tower import FiniteFieldCtx, RationalFunctionCtx, _x_tables
from skewlaurent.skew_series import SkewSeries, commutator, term, zero

from conftest import random_series


def run_cli(argv, stdin_text=None):
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# field and sigma specs


def test_build_ctx_specs():
    ctx = build_ctx("gf(3^4)", "frob")
    assert isinstance(ctx, FiniteFieldCtx) and ctx.sigma_order == 4
    ctx = build_ctx("gf(2^8);poly=1,0,1,1,1,0,0,0,1", "frob^2")
    assert ctx.sigma_order == 4 and ctx.subfield_degree == 2
    ctx = build_ctx("qt", "shift")
    assert isinstance(ctx, RationalFunctionCtx)
    ctx = build_ctx("qt", "scale:3/2")
    assert str(ctx.scale) == "3/2"
    for field, sigma in (
        ("gf(3^4)", "shift"),
        ("qt", "frob"),
        ("zz", "frob"),
        ("gf(3^4)", "frob^0"),
        ("qt", "scale:1"),
    ):
        with pytest.raises(FieldSpecError):
            build_ctx(field, sigma)


def test_ctx_spec_round_trip():
    for field, sigma in (
        ("gf(3^4)", "frob"),
        ("gf(2^5)", "frob"),
        ("gf(2^8)", "frob^3"),
        ("qt", "shift"),
        ("qt", "scale:-7/2"),
    ):
        ctx = build_ctx(field, sigma)
        again = build_ctx(ctx.field_spec(), ctx.sigma_spec())
        assert again == ctx


# ---------------------------------------------------------------------------
# series parsing


def test_parse_series_frozen(gf34, qt_shift):
    f = parse_series(gf34, "2*x^-3 + g*x^0 + O(x^4)")
    assert f.val == -3 and f.prec == 4
    assert f.coeff_at(-3) == gf34.from_int(2)
    assert f.coeff_at(0) == gf34.gen()

    assert parse_series(gf34, "x^1 + x^1") == term(gf34, gf34.from_int(2), 1, 33)

    f = parse_series(qt_shift, "(t^2+1)/(t-3) * x^0")
    t = qt_shift.gen()
    assert f.coeff_at(0) == (t * t + 1) / (t - 3)
    assert f.prec == 32

    f = parse_series(gf34, "g^3 + 2*g", relprec=5)
    assert f.val == 0 and f.prec == 5
    g = gf34.gen()
    assert f.coeff_at(0) == g**3 + 2 * g

    assert parse_series(gf34, "O(x^6)").is_zero
    assert parse_series(gf34, "x^2 - x^2", relprec=8).is_zero
    assert parse_series(gf34, "-x^3").coeff_at(3) == -gf34.one()
    assert parse_series(gf34, "x").valuation() == 1


def test_parse_series_precision_override(gf34):
    assert parse_series(gf34, "x^2", relprec=10).prec == 12
    assert parse_series(gf34, "x^2 + O(x^5)", relprec=10).prec == 5
    assert parse_series(gf34, "x^-4 + x^3", relprec=10).prec == 6


def test_parse_series_errors(gf34, qt_shift):
    bad = [
        "",
        "x^",
        "x^1 +",
        "2*",
        "g*x^2 + ?",
        "O(x^2) + x^1",
        "t*x^0",  # wrong variable for the field
        "(x+1)*x^2",  # x inside a coefficient
        "x^9 + O(x^4)",  # exponent at or beyond the cap
        "inv(x^1)",  # call syntax is eval-only
    ]
    for text in bad:
        with pytest.raises(SeriesSyntaxError):
            parse_series(gf34, text)
    with pytest.raises(SeriesSyntaxError):
        parse_series(qt_shift, "g*x^0")


def test_parse_error_positions(gf34):
    with pytest.raises(SeriesSyntaxError) as exc:
        parse_series(gf34, "x^1 + ?")
    assert "position 6" in str(exc.value)


# (parser, field, text, message, position), captured from the
# character-at-a-time tokenizer this parser replaced
_MALFORMED = [
    (parse_series, "gf", "2*x^3 + g*x^", "unexpected end of input", None),
    (parse_series, "gf", "x^1 +", "expected a series term", None),
    (parse_series, "gf", "", "expected a series term", None),
    (parse_series, "gf", "O(x^2) + x^1", "unexpected '+' (at position 7)", 7),
    (parse_series, "gf", "g^x", "expected an integer (at position 2)", 2),
    (parse_series, "gf", "x^--1", "expected an integer (at position 3)", 3),
    (parse_series, "gf", "(g+1*x^2", "expected ')' (at position 4)", 4),
    (parse_series, "gf", "(x+1)*x^2", "x cannot appear inside a coefficient (at position 1)", 1),
    (parse_series, "gf", "h*x", "unknown symbol 'h' (at position 0)", 0),
    (parse_series, "qt", "g*x^0", "unknown symbol 'g' (at position 0)", 0),
    (parse_series, "gf", "2 x^3", "unexpected 'x' (at position 2)", 2),
    (parse_series, "gf", "O x^2", "expected '(' (at position 2)", 2),
    (parse_series, "gf", "x^3 + O(y^4)", "expected x (at position 8)", 8),
    (evaluate, "gf", "comm(x^1)", "expected ',' (at position 8)", 8),
    (evaluate, "gf", "inv(x^1", "expected ')'", None),
    (evaluate, "gf", "x^1 * * x", "unexpected '*' (at position 6)", 6),
    (evaluate, "gf", "x^1 +", "expected an expression", None),
    (evaluate, "gf", "comm(x, g*x) )", "unexpected ')' (at position 13)", 13),
    (parse_element, "qt", "(t+1)/", "unexpected end of input", None),
    (parse_element, "qt", "t\x1c+\x1f1 $", "unexpected character '$' (at position 6)", 6),
]


@pytest.mark.parametrize("parse, field, text, message, pos", _MALFORMED)
def test_parse_error_messages_and_positions(gf34, qt_shift, parse, field, text, message, pos):
    with pytest.raises(SeriesSyntaxError) as exc:
        parse(gf34 if field == "gf" else qt_shift, text)
    assert str(exc.value) == message and exc.value.pos == pos


def test_parse_rejects_non_ascii(gf34):
    # "²" passes str.isdigit and int("٣") is 3, but neither is ASCII
    for text, char, pos in (("x^\u00b2", "\u00b2", 2), ("\u0663*x", "\u0663", 0), ("\u00e9", "\u00e9", 0)):
        with pytest.raises(SeriesSyntaxError) as exc:
            parse_series(gf34, text)
        assert str(exc.value) == f"unexpected character {char!r} (at position {pos})"
    code, out, err = run_cli(["eval", "--field", "gf(3^4)", "--sigma", "frob", "x^\u00b2"])
    assert code == 2 and out == "" and err.startswith("error: unexpected character")


def test_print_parse_round_trip(gf9, gf34, gf28, qt_shift):
    rng = random.Random("print-parse")
    scale = RationalFunctionCtx("scale", scale=random.Random("s").choice([3, -2]))
    for ctx in (gf9, gf34, gf28, qt_shift, scale):
        for _ in range(100):
            f = random_series(ctx, rng, -9, 9, rng.randint(1, 12), dense=False)
            assert parse_series(ctx, str(f)) == f
        assert parse_series(ctx, str(SkewSeries(ctx, 3, (), 3))) == SkewSeries(ctx, 3, (), 3)


def test_parse_element_round_trip(gf34, gf28, qt_shift):
    rng = random.Random("elem-rt")
    for ctx in (gf34, gf28, qt_shift):
        for _ in range(150):
            a = ctx.random_elem(rng)
            assert parse_element(ctx, str(a)) == a


# ---------------------------------------------------------------------------
# eval expressions


def test_evaluate(gf34, qt_shift):
    one = qt_shift.one()
    t = qt_shift.gen()
    r = evaluate(qt_shift, "comm(x^1, t*x^0)")
    assert r.coeff_at(1) == one

    r = evaluate(gf34, "inv(x^1 - x^2) * (x^1 - x^2)")
    assert r.coeff_at(0) == gf34.one() and r.valuation() == 0

    r = evaluate(qt_shift, "(x^1 + x^2) * inv(x^1)")
    assert r.coeff_at(0) == one and r.coeff_at(1) == one

    r = evaluate(qt_shift, "x^1 * t*x^0")
    assert r.coeff_at(1) == t + 1  # the twist moves t past x

    r = evaluate(gf34, "O(x^3) + x^1")
    assert r.prec == 3

    r = evaluate(gf34, "2*(g+1)*x^2")
    assert r.coeff_at(2) == 2 * (gf34.gen() + 1)

    with pytest.raises(SeriesSyntaxError):
        evaluate(gf34, "comm(x^1)")
    with pytest.raises(SeriesSyntaxError):
        evaluate(gf34, "inv()")


def test_evaluate_matches_library(gf34):
    rng = random.Random("eval-lib")
    for _ in range(25):
        f = random_series(gf34, rng, -3, 3, 6)
        g = random_series(gf34, rng, -3, 3, 6)
        text = f"comm({f}, {g})"
        from skewlaurent.skew_series import commutator

        expect = commutator(f, g)
        got = evaluate(gf34, text)
        assert got == expect


def _eval_operand(ctx, rng, relprec, depth):
    """(text, series) of one random product or atom of an eval sum, the
    series built from term and the series operations."""

    def atom():
        e = rng.randint(-3, 12)  # exponents repeat, and pass the first window
        c = ctx.zero() if rng.random() < 0.2 else ctx.random_elem(rng)
        return f"({c})*x^{e}", term(ctx, c, e, e + relprec)

    kind = rng.choice(("atom", "atom", "atom", "O", "group", "inv", "comm", "product"))
    if kind == "atom" or depth == 0:
        return atom()
    if kind == "O":
        k = rng.randint(0, 14)
        return f"O(x^{k})", zero(ctx, k)
    if kind == "inv":
        e, c = rng.randint(-2, 2), ctx.random_elem(rng)
        lead = term(ctx, ctx.one(), e, e + relprec)
        second = term(ctx, c, e + 1, e + 1 + relprec)
        return f"inv(x^{e} + ({c})*x^{e + 1})", (lead + second).inverse()
    a_text, a = _eval_sum_case(ctx, rng, relprec, depth - 1)
    b_text, b = _eval_sum_case(ctx, rng, relprec, depth - 1)
    if kind == "group":
        return f"({a_text})", a
    if kind == "comm":
        return f"comm({a_text}, {b_text})", commutator(a, b)
    c_text, c = atom()
    return f"({a_text}) * {c_text} * ({b_text})", a * c * b


def _eval_sum_case(ctx, rng, relprec, depth):
    """(text, series) of a random eval sum, added operand by operand."""
    text, total = "", None
    for k in range(rng.randint(1, 6)):
        op_text, s = _eval_operand(ctx, rng, relprec, depth)
        negate = rng.random() < 0.3  # a leading '-' on the first
        text += ("-" if negate else "") if k == 0 else (" - " if negate else " + ")
        text += op_text
        s = -s if negate else s
        total = s if total is None else total + s
    return text, total


def test_evaluate_folds_lone_atoms_like_the_atom_by_atom_sum(gf34, gf220, qt_shift):
    rng = random.Random("eval-fold")
    for ctx in (gf34, gf220, qt_shift):
        for relprec in (1, 6, 32):
            for _ in range(40):
                text, want = _eval_sum_case(ctx, rng, relprec, 2)
                got = evaluate(ctx, text, relprec)
                assert got.prec == want.prec and got.eq_to_prec(want, got.prec), (ctx, text)
                assert str(got) == str(want), (ctx, text)


def test_evaluate_adds_no_atom_past_the_sum_precision(qt_shift):
    # the two coefficients at x^5 sum past the Q(t) size budget, but the
    # sum ends at O(x^3) before either is added
    text = "O(x^3) + 1/(t+1)^300*x^5 + 1/(t+2)^300*x^5"
    assert evaluate(qt_shift, text) == zero(qt_shift, 3)


def test_evaluate_keeps_the_error_of_a_window_past_its_exponent(gf34, qt_shift):
    # a non-positive --prec fails at the first atom, as before atoms were folded
    for ctx, text, relprec, message in (
        (qt_shift, "x", -5, "exponent 1 is not below precision -4"),
        (gf34, "x^2 + )", -5, "exponent 2 is not below precision -3"),
        (gf34, "(g)*x^2 * x", 0, "exponent 2 is not below precision 2"),
        (gf34, "O(x^3) - (g)*x^-1", 0, "exponent -1 is not below precision -1"),
        (gf34, "x^5000 + )", 1, "exponent x^5000 is outside x^-4096 .. x^4096"),
    ):
        with pytest.raises(SeriesSyntaxError) as exc:
            evaluate(ctx, text, relprec)
        assert str(exc.value) == message, text
    code, out, err = run_cli(["eval", "--field", "qt", "--sigma", "shift", "--prec", "-5", "x"])
    assert (code, out, err) == (2, "", "error: exponent 1 is not below precision -4\n")


# ---------------------------------------------------------------------------
# certificate JSON


def test_certificate_json_round_trip(gf34, gf25, qt_shift):
    rng = random.Random("cert-json")
    for ctx in (gf34, gf25, qt_shift):
        for _ in range(12):
            f = random_series(ctx, rng, -5, 5, 10)
            cert = decompose(f)
            js = certificate_to_json(cert)
            back = certificate_from_json(js)
            assert back == cert
            assert certificate_to_json(back) == js
            assert verify_certificate(back)


def test_certificate_json_key_order(gf34):
    cert = decompose(term(gf34, gf34.gen(), 1, 9))
    obj = json.loads(certificate_to_json(cert))
    assert list(obj.keys()) == ["field", "sigma", "method", "prec", "input", "pairs"]
    assert list(obj["input"].keys()) == ["val", "prec", "coeffs"]

    exp_ctx = FiniteFieldCtx(2, 8, frob_power=2)
    cert = decompose(term(exp_ctx, exp_ctx.gen(), 1, 9))
    obj = json.loads(certificate_to_json(cert))
    assert list(obj.keys()) == [
        "field",
        "sigma",
        "method",
        "prec",
        "input",
        "pairs",
        "experimental",
    ]
    assert obj["experimental"] is True


def series_to_obj(s):
    return {"val": s.val, "prec": s.prec, "coeffs": [str(c) for c in s.coeffs]}


def _dumps_reference(cert):
    """The certificate through json.dumps(indent=2), as the writer once built it."""
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


def test_certificate_json_is_the_indented_dump(gf34, gf24, gf25, qt_shift):
    # every route, the experimental flag, zero series (an empty coeffs
    # list), and certificates decompose never makes: no pairs, three pairs,
    # a method with quotes, backslashes and non-ASCII text
    rng = random.Random("cert-dump")
    certs = [decompose(zero(gf34, 3))]
    for ctx in (gf34, gf24, gf25, qt_shift):
        for _ in range(8):
            certs.append(decompose(random_series(ctx, rng, -5, 5, 10)))
    assert {c.method for c in certs} >= {"ZeroInput", "DegreeAtLeast5", "InfiniteWitness"}
    assert any(c.experimental for c in certs)
    f = certs[1].input
    b, w = certs[1].pairs[0]
    for pairs in ((), ((b, w), (w, b), (b, zero(gf34, 2)))):
        certs.append(Certificate(f, pairs, 'Order4L "\\ \u00e9\u2028', f.prec, True))
    for cert in certs:
        assert certificate_to_json(cert) == _dumps_reference(cert)


def test_series_json_shape(gf34):
    f = term(gf34, gf34.gen(), -2, 1)
    obj = json.loads(certificate_to_json(Certificate(f, (), "ZeroInput", 1)))
    assert obj["input"] == {"val": -2, "prec": 1, "coeffs": ["g", "0", "0"]}


def test_malformed_certificates_rejected(gf34):
    cert = decompose(term(gf34, gf34.gen(), 1, 9))
    obj = json.loads(certificate_to_json(cert))
    broken = dict(obj)
    del broken["pairs"]
    for text in ("{not json", json.dumps(broken), json.dumps([1, 2])):
        with pytest.raises(SeriesSyntaxError):
            certificate_from_json(text)


def test_cli_verify_rejects_certificates_of_the_wrong_types():
    code, out, _ = run_cli(
        ["decompose", "--field", "gf(3^4)", "--sigma", "frob", "(g)*x^-2 + x + O(x^10)"]
    )
    assert code == 0
    good = json.loads(out)
    edits = {
        "field is an int": lambda c: c.update(field=5),
        "sigma is null": lambda c: c.update(sigma=None),
        "method is a list": lambda c: c.update(method=["Order4L"]),
        "prec is a float": lambda c: c.update(prec=10.0),
        "val is a float": lambda c: c["input"].update(val=-2.0),
        "prec is a bool": lambda c: c["pairs"][0][0].update(prec=True),
        "val past the budget": lambda c: c["input"].update(val=-5000, coeffs=["0"] * 5010),
        "coeffs is a str": lambda c: c["input"].update(coeffs="g"),
        "a coefficient is an int": lambda c: c["input"]["coeffs"].__setitem__(0, 1),
        "pairs is an object": lambda c: c.update(pairs={"b": 1, "w": 2}),
        "a pair of three": lambda c: c["pairs"][0].append(c["pairs"][0][0]),
        "a pair is an object": lambda c: c["pairs"].__setitem__(0, {"b": 1, "w": 2}),
        "input is a list": lambda c: c.update(input=[]),
        "a witness val past its budget": lambda c: c["pairs"][0][1].update(val=8195),
        "experimental is a str": lambda c: c.update(experimental="no"),
        "experimental is a list": lambda c: c.update(experimental=[1]),
    }
    for name, edit in edits.items():
        cert = json.loads(json.dumps(good))
        edit(cert)
        code, out, err = run_cli(["verify", "-"], stdin_text=json.dumps(cert))
        assert code == 2 and out == "", name
        assert err.startswith("error: malformed certificate: "), name
        assert "Traceback" not in err
    code, out, _ = run_cli(["verify", "-"], stdin_text=json.dumps(good))
    assert code == 0 and out.startswith("valid")


def test_cli_verify_keeps_the_parser_message_for_coefficients_of_other_types(gf34):
    code, out, _ = run_cli(
        ["decompose", "--field", "gf(3^4)", "--sigma", "frob", "(g)*x^-2 + x + O(x^10)"]
    )
    assert code == 0
    good = json.loads(out)
    for value in (1, None, ["g"], {"g": 1}):
        with pytest.raises(TypeError) as parser_error:
            parse_element(gf34, value)
        expect = f"error: malformed certificate: {parser_error.value}\n"
        # the first coefficient read, and one read after the memo has filled
        for series in (lambda c: c["pairs"][0][0], lambda c: c["input"]):
            cert = json.loads(json.dumps(good))
            series(cert)["coeffs"][0] = value
            code, out, err = run_cli(["verify", "-"], stdin_text=json.dumps(cert))
            assert (code, out, err) == (2, "", expect), value


# ---------------------------------------------------------------------------
# the direct reader of format_elem's text


def _reader_fields():
    return (
        FiniteFieldCtx(2, 20),
        FiniteFieldCtx(5, 8, frob_power=2),
        FiniteFieldCtx(3, 12, frob_power=3),
    )


def test_parse_element_inverts_format_elem(gf34, gf28):
    rng = random.Random("read-formatted")
    cases = [(ctx, list(ctx.elements())) for ctx in (gf34, gf28)]
    cases += [(ctx, [ctx.random_elem(rng) for _ in range(500)]) for ctx in _reader_fields()]
    for ctx, elems in cases:
        texts = [ctx.format_elem(a) for a in elems]
        for a, text in zip(elems, texts):
            # the whole text is read in one pass; the reference is the full
            # grammar, which "+0" sends the text through
            assert parse_element(ctx, text) == a == parse_element(ctx, f"{text}+0"), (ctx, text)
            # in parentheses, the parser reads the group in one pass
            assert parse_element(ctx, f"({text})") == a, (ctx, text)
            assert parse_series(ctx, f"({text})*x + O(x^3)").coeff_at(1) == a, (ctx, text)
            assert evaluate(ctx, f"({text})*x").coeff_at(1) == a, (ctx, text)
        # every text as a certificate coefficient
        obj = json.loads(certificate_to_json(decompose(term(ctx, ctx.gen(), 1, 9))))
        b = obj["pairs"][0][0]
        b.update(coeffs=texts, prec=b["val"] + len(texts))
        back = certificate_from_json(json.dumps(obj)).pairs[0][0]
        assert [back.coeff_at(b["val"] + k) for k in range(len(texts))] == elems, ctx


# Texts that format_elem does not print (and "0", which it does), each with
# what parse_element and a certificate read from it, recorded before the
# certificate reader lost its own tokeniser: the element, in the field's
# arithmetic on the generator g, or the SeriesSyntaxError's message and
# position.
_NON_CANONICAL = {
    "g^1": lambda g: g,
    "1*g": lambda g: g,
    "g^0": lambda g: g**0,
    "g+g": lambda g: g + g,
    "g^3+g^5": lambda g: g**3 + g**5,
    "01": lambda g: g**0,
    " g": lambda g: g,
    "g ^2": lambda g: g**2,
    "+g": lambda g: g,
    "g+": ("unexpected end of input", None),
    "(g)+(g)": lambda g: g + g,
    "99999999999*g": lambda g: 99999999999 * g,
    "9" * 5000: ("integer of 5000 digits is too long", 0),
    "": ("unexpected end of input", None),
    "2 * g": lambda g: 2 * g,
    "g\t+1": lambda g: g + 1,
    "g ": lambda g: g,
    "g!": ("unexpected character '!'", 1),
    "g\u00b2": ("unexpected character '\u00b2'", 1),
    "0": lambda g: 0 * g,
    "00": lambda g: 0 * g,
}


def test_texts_off_format_elem_read_as_pinned(gf34, gf28):
    for ctx in (gf34, gf28) + _reader_fields():
        cert = decompose(term(ctx, ctx.gen(), 1, 9))
        obj = json.loads(certificate_to_json(cert))
        b = obj["pairs"][0][0]
        # p*g and g^m: on GF(3^4), "3*g" and "g^4"
        pinned = dict(_NON_CANONICAL)
        pinned.update({f"{ctx.p}*g": lambda g: 0 * g, f"g^{ctx.m}": lambda g: g**ctx.m})
        for text, want in pinned.items():
            b["coeffs"][0] = text
            js = json.dumps(obj)
            got = _outcome(lambda: parse_element(ctx, text))
            via_cert = _outcome(lambda: certificate_from_json(js).pairs[0][0].coeff_at(b["val"]))
            expect = want if isinstance(want, tuple) else want(ctx.gen())
            assert got == via_cert == expect, (ctx, text)


def test_parse_element_tokenises_each_text_once(monkeypatch, gf34, qt_shift):
    # the pinned outcomes above stay; a text off the one-pass form goes to
    # the grammar on the tokens the one-pass try already took
    calls = []
    tokens = cli_module._tokens
    monkeypatch.setattr(cli_module, "_tokens", lambda text: calls.append(text) or tokens(text))
    for ctx in (gf34, qt_shift):
        for text in ("g^3+2*g", "g^3+2*g+0", "(g)+(g)", "g+", "g!", "1", "(t+1)/(t+2)"):
            calls.clear()
            _outcome(lambda: parse_element(ctx, text))
            assert calls == [text], (ctx, text)


# The parser's errors for texts of _GROUP_TEXTS in parentheses, "(text)*x",
# recorded before the one-pass read of parenthesised coefficients (the two
# bad characters before the certificate reader lost its own tokeniser);
# every other such group reads as its text does without the parentheses.
_GROUP_ERRORS = {
    "": ("unexpected ')'", 1),
    "g+": ("unexpected ')'", 3),
    "9" * 5000: ("integer of 5000 digits is too long", 1),
    "g!": ("unexpected character '!'", 2),
    "g\u00b2": ("unexpected character '\u00b2'", 2),
}
_GROUP_TEXTS = tuple(_NON_CANONICAL) + ("g^-1", "2*g^2-g")
# Whole GF(3^4) inputs, each the same as series and as eval expression,
# with the result or the error (message, position) recorded as above.
_DEEP = "(" * 3000 + "1" + ")" * 3000 + "*x"
_GROUP_INPUTS = (
    ("((g))*x", "(g)*x^1 + O(x^33)"),
    ("(g^3+2*g+2)^2*x", "(2*g^2)*x^1 + O(x^33)"),
    ("(g^3+2*g+2)^-1*x", "(g^3+g)*x^1 + O(x^33)"),
    ("(g+)*x", ("unexpected ')'", 3)),
    (_DEEP, ("nested deeper than 100 levels", 101)),
    # a group in the one-pass form keeps the depth budget
    ("(" * 99 + "(g)" + ")" * 99 + "*x", "(g)*x^1 + O(x^33)"),
    ("(" * 100 + "(g)" + ")" * 100 + "*x", ("nested deeper than 100 levels", 101)),
)


def _outcome(parse):
    try:
        return parse()
    except SeriesSyntaxError as exc:
        return str(exc).split(" (at position")[0], exc.pos


def test_parenthesised_coefficients_off_the_one_pass_form_keep_the_grammar(gf34, gf28):
    for ctx in (gf34, gf28) + _reader_fields():
        for text in _GROUP_TEXTS + (f"{ctx.p}*g", f"g^{ctx.m}"):
            as_coef = _outcome(lambda: parse_series(ctx, f"({text})*x + O(x^3)"))
            as_atom = _outcome(lambda: evaluate(ctx, f"({text})*x"))
            if text in _GROUP_ERRORS:
                assert as_coef == as_atom == _GROUP_ERRORS[text], (ctx, text)
                continue
            a = parse_element(ctx, text)
            assert as_coef == term(ctx, a, 1, 3), (ctx, text)
            assert as_atom == term(ctx, a, 1, 33), (ctx, text)
    for text, want in _GROUP_INPUTS:
        for parse in (parse_series, evaluate):
            got = _outcome(lambda: parse(gf34, text))
            assert (got if isinstance(want, tuple) else str(got)) == want, (parse, text)


def test_generator_shaped_text_never_descends_into_coefficients(
    monkeypatch, gf34, gf220, qt_shift
):
    calls = {"elem_sum": 0, "group": 0}
    elem_sum, group = cli_module._Parser.elem_sum, cli_module._Parser._coefficient_group

    def counting(name, method):
        def wrapper(self, *args):
            calls[name] += 1
            return method(self, *args)

        return wrapper

    monkeypatch.setattr(cli_module._Parser, "elem_sum", counting("elem_sum", elem_sum))
    monkeypatch.setattr(cli_module._Parser, "_coefficient_group", counting("group", group))
    rng = random.Random("one-pass")
    text = "(g^3+2*g+2)*x^5 + (g)*x^6 + x^7 + (2*g^3+1)*x^9 + O(x^12)"
    assert str(parse_series(gf34, text)) == text
    assert str(evaluate(gf34, f"{text} + x^5")) == text.replace("(g^3+2*g+2)", "(g^3+2*g)")
    for ctx in (gf34, gf220):
        for _ in range(20):
            f = random_series(ctx, rng, -4, 4, 12)
            g = random_series(ctx, rng, -4, 4, 12)
            assert parse_series(ctx, str(f)) == f
            assert evaluate(ctx, f"({f}) * ({g})") == f * g
    assert calls["elem_sum"] == 0 and calls["group"] > 0
    # Q(t) never tries the one-pass read
    calls["group"] = 0
    f = random_series(qt_shift, rng, -4, 4, 12)
    assert parse_series(qt_shift, str(f)) == f
    assert evaluate(qt_shift, f"({f}) + ({f})") == f + f
    assert calls["group"] == 0


def test_certificate_reader_builds_a_parser_only_off_the_direct_path(
    monkeypatch, gf34, qt_shift
):
    built = []

    class CountingParser(cli_module._Parser):
        def __init__(self, *args, **kwargs):
            built.append(args[1])
            super().__init__(*args, **kwargs)

    rng = random.Random("reader-path")
    certs = {
        ctx: certificate_to_json(decompose(random_series(ctx, rng, -3, 3, 10)))
        for ctx in (gf34, qt_shift) + _reader_fields()[:2]
    }
    monkeypatch.setattr(cli_module, "_Parser", CountingParser)
    for ctx, js in certs.items():
        built.clear()
        certificate_from_json(js)
        obj = json.loads(js)
        series = [obj["input"]] + [s for pair in obj["pairs"] for s in pair]
        texts = {c for s in series for c in s["coeffs"]}
        if ctx is qt_shift:
            # one parser per distinct text, and no memo kept across calls
            assert sorted(built) == sorted(texts)
            certificate_from_json(js)
            assert len(built) == 2 * len(texts)
        else:
            assert built == [], ctx


# ---------------------------------------------------------------------------
# exit codes


def test_cli_decompose_and_verify_round_trip(tmp_path):
    code, out, _ = run_cli(
        ["decompose", "--field", "gf(2^5)", "--sigma", "frob", "x^-1 + g*x^3"]
    )
    assert code == 0
    assert json.loads(out)["method"] == "DegreeAtLeast5"

    path = tmp_path / "cert.json"
    path.write_text(out, encoding="utf-8")
    code, out2, _ = run_cli(["verify", str(path)])
    assert code == 0 and out2.startswith("valid")

    code, out3, _ = run_cli(["verify", "-"], stdin_text=out)
    assert code == 0


def test_cli_verify_rejects_tampered_certificate():
    code, out, _ = run_cli(
        ["decompose", "--field", "qt", "--sigma", "shift", "x^-1 + O(x^6)"]
    )
    assert code == 0
    obj = json.loads(out)
    obj["input"]["coeffs"][0] = "2"
    code, out, _ = run_cli(["verify", "-"], stdin_text=json.dumps(obj))
    assert code == 1


def test_cli_verify_rejects_vacuous_certificates():
    code, out, _ = run_cli(
        ["decompose", "--field", "gf(3^4)", "--sigma", "frob", "(g)*x^-2 + x + O(x^10)"]
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["method"] == "Order4L"
    genuine = json.loads(out)
    junk = {"val": 0, "prec": 1, "coeffs": ["1"]}
    obj["pairs"] = [[junk, junk], [junk, junk]]
    # a claimed precision at or below the input's valuation compares nothing
    obj["prec"] = -5
    code, out, _ = run_cli(["verify", "-"], stdin_text=json.dumps(obj))
    assert code == 1 and out.startswith("invalid")
    assert out == "invalid: claimed precision O(x^-5) is not the input's O(x^10)\n"
    obj["method"] = "Bogus"
    obj["prec"] = -2
    code, out, _ = run_cli(["verify", "-"], stdin_text=json.dumps(obj))
    assert code == 1 and out.startswith("invalid")
    assert out == "invalid: unknown method 'Bogus'\n"
    # the right claim, but witnesses far too imprecise to back it
    obj["method"], obj["prec"] = "Order4L", 10
    code, out, _ = run_cli(["verify", "-"], stdin_text=json.dumps(obj))
    assert code == 1
    assert out.startswith("invalid: commutator product is known only to O(x^")
    assert out.endswith(", below the claimed O(x^10)\n")
    obj["pairs"] = genuine["pairs"][:1]
    code, out, _ = run_cli(["verify", "-"], stdin_text=json.dumps(obj))
    assert code == 1 and out == "invalid: expected 2 commutator pairs, found 1\n"
    # one changed input coefficient is named by its exponent
    tampered = json.loads(json.dumps(genuine))
    tampered["input"]["coeffs"][3] = "g"  # the x^1 coefficient, 1 before
    code, out, _ = run_cli(["verify", "-"], stdin_text=json.dumps(tampered))
    assert code == 1
    assert out == (
        "invalid: commutator product does not reproduce the input: first difference at x^1\n"
    )
    code, out, _ = run_cli(["verify", "-"], stdin_text=json.dumps(genuine))
    assert code == 0 and out == "valid: Order4L certificate at O(x^10)\n"


def test_cli_rejects_windows_past_the_budget():
    # an explicit O(x^k) far beyond the leading term, then a huge --prec
    cases = [
        ["decompose", "--field", "gf(2^5)", "--sigma", "frob", "x + O(x^300000000)"],
        ["decompose", "--field", "gf(2^5)", "--sigma", "frob", "--prec", "300000000", "x"],
        ["eval", "--field", "qt", "--sigma", "shift", "--prec", "300000000", "x^2"],
        ["eval", "--field", "qt", "--sigma", "shift", "--prec", "300000000", "(t)*x^2"],
    ]
    for argv in cases:
        code, out, err = run_cli(argv)
        assert code == 2, argv
        assert out == "" and err.startswith("error: window x^")
        assert "wider than 65536 coefficients" in err
    # the budget itself is allowed
    code, _, _ = run_cli(["trace", "--field", "gf(3^4)", "--sigma", "frob", "x + O(x^65537)"])
    assert code == 0


def test_cli_rejects_oversized_numerals():
    # digit runs past Python's int-string limit (4300 digits)
    big = "7" * 5000
    gf = ["--field", "gf(3^4)", "--sigma", "frob"]
    cases = [
        ["decompose", *gf, f"{big}*x + O(x^3)"],
        ["decompose", *gf, f"x^{big}"],
        ["trace", *gf, f"{big}*x^0 + O(x^4)"],
        ["trace", *gf, f"g^{big}*x"],
        ["eval", *gf, f"x^{big} + x"],
        ["trace", "--field", f"gf({big}^2)", "--sigma", "frob", "x"],
        ["trace", "--field", f"gf(3^4);poly=2,0,0,{big},1", "--sigma", "frob", "x"],
        ["eval", "--field", "qt", "--sigma", f"scale:{big}/2", "x"],
    ]
    for argv in cases:
        code, out, err = run_cli(argv)
        assert code == 2, argv[:3]
        assert out == "" and err.startswith("error: ")


def test_cli_rejects_nesting_past_the_budget():
    gf = ["--field", "gf(3^4)", "--sigma", "frob"]
    deep = 3000
    cases = [
        ["decompose", *gf, "(" * deep + "1" + ")" * deep + "*x"],
        ["eval", *gf, "(" * deep + "x" + ")" * deep],
        ["eval", *gf, "inv(" * deep + "x" + ")" * deep],
        ["eval", *gf, "comm(x, " * deep + "g" + ")" * deep],
        ["decompose", *gf, "2*" + "-" * deep + "g*x^2"],
    ]
    for argv in cases:
        code, out, err = run_cli(argv)
        assert code == 2, argv[:3]
        assert out == "" and err.startswith("error: nested deeper than 100 levels")
    # json's own nesting limit, in a certificate
    code, out, err = run_cli(["verify", "-"], stdin_text="[" * deep)
    assert code == 2 and err.startswith("error: malformed certificate")
    # the budget itself is allowed
    for argv in (
        ["eval", *gf, "(" * 100 + "x" + ")" * 100],
        ["eval", *gf, "(" * 99 + "-" + "g)" + ")" * 98 + "*x"],
        ["eval", "--field", "qt", "--sigma", "shift", "(" * 100 + "t" + ")" * 100 + "*x"],
    ):
        code, _, _ = run_cli(argv)
        assert code == 0, argv[:3]


def test_cli_rejects_exponents_past_the_budget():
    qt2 = ["--field", "qt", "--sigma", "scale:2"]
    gf = ["--field", "gf(3^4)", "--sigma", "frob"]
    cases = [
        ["decompose", *qt2, "t*x^100000000 + O(x^100000002)"],
        ["decompose", *qt2, "x^-4097 + O(x^-4090)"],
        ["trace", *gf, "O(x^4097)"],
        ["eval", *qt2, "x^5000 * t*x^0"],
        ["eval", *qt2, "(t)*x^-5000"],
        ["eval", *gf, "O(x^-9000) + x"],
        # each atom is within the budget, their product is not
        ["eval", *qt2, "t*x^4096 * t*x^4096 * t*x^4096"],
        ["eval", *gf, "x + x^-4096 * inv(x)"],
        ["eval", *gf, "comm(x, g*x^0) * O(x^4097)"],
    ]
    for argv in cases:
        code, out, err = run_cli(argv)
        assert code == 2, argv
        assert out == "" and err.startswith("error: exponent x^")
        assert "is outside x^-4096 .. x^4096" in err
    # Q(t) powers, but not finite-field ones, are capped at 512
    for power, pos in (("513", 6), ("-513", 7)):
        code, out, err = run_cli(["eval", *qt2, f"(t+1)^{power}*x"])
        assert code == 2 and err == f"error: power {power} is past the budget of 512 (at position {pos})\n"
    for argv in (
        ["decompose", *qt2, "t*x^4096 + O(x^4098)"],
        ["decompose", *qt2, "t*x^-4096 + O(x^-4094)"],
        ["eval", "--field", "qt", "--sigma", "shift", "(t+1)^-512*x"],
        ["eval", *gf, f"g^{10**40}*x"],
        ["eval", *qt2, "x^2048 * t*x^2048 * x^-4096 * x^-4096"],
    ):
        code, _, _ = run_cli(argv)
        assert code == 0, argv


def test_cli_certificates_at_the_exponent_budget_verify():
    # decompose gives witnesses valuations up to 2*|val| + 1 (8193 here);
    # verify must take back every certificate decompose prints
    qt2 = ["--field", "qt", "--sigma", "scale:2"]
    gf = ["--field", "gf(3^4)", "--sigma", "frob"]
    for argv in (
        [*qt2, "t*x^4096 + O(x^4098)"],
        [*qt2, "t*x^-4096 + O(x^-4094)"],
        [*qt2, "t*x^2048 + O(x^2050)"],
        [*gf, "x^4096 + O(x^4100)"],
        [*gf, "g*x^-4096 + x^-4095 + O(x^-4090)"],
        [*gf, "g*x^4094 + O(x^4098)"],
        [*gf, "O(x^4096)"],
    ):
        code, cert, _ = run_cli(["decompose", *argv])
        assert code == 0, argv
        code, out, err = run_cli(["verify", "-"], stdin_text=cert)
        assert code == 0 and out.startswith("valid: "), (argv, err)


def test_cli_reports_results_too_large_to_print():
    # 1000^3000 has 9001 digits, past Python's int-string limit
    argv = ["eval", "--field", "qt", "--sigma", "scale:1000", "x^3000 * t*x^0"]
    code, out, err = run_cli(argv)
    assert code == 2 and out == ""
    assert err == "error: a Q(t) coefficient has too many digits to print\n"


def test_cli_rejects_qt_coefficients_past_the_size_budget():
    sevens = "7" * 4300
    cases = [
        # results stay small here (degree 56, 501 bits at --prec 20), but
        # the gcds' pseudo-remainders grow past the bit budget
        (["eval", "--sigma", "scale:2", "inv(x^0 + 1/(t^2+2)*x + 1/(t+3)*x^2)"],
         "a Q(t) gcd has a pseudo-remainder past the budget of 32768 bits"),
        # refused before sigma^4096 computes a 58-million-bit power
        (["eval", "--sigma", f"scale:{sevens}", "x^4096 * t*x^0"],
         "sigma^4096 gives a Q(t) coefficient an integer past the budget of 32768 bits"),
        (["decompose", "--sigma", f"scale:{sevens}", "t*x^4096+O(x^4098)"],
         "gives a Q(t) coefficient an integer past the budget of 32768 bits"),
        (["eval", "--sigma", "scale:2", "(2^65)^512*t*x"],
         "a Q(t) coefficient is past the size budget of degree 512 and 32768-bit integers"),
        (["eval", "--sigma", "shift", "(t+1)^-512*x + (t+2)^-512*x"],
         "a Q(t) coefficient is past the size budget"),
        (["decompose", "--sigma", "shift", "(t+1)^512*x^3 + O(x^5)"],
         "a Q(t) coefficient is past the size budget"),
    ]  # fmt: skip
    for argv, message in cases:
        command, *rest = argv
        code, out, err = run_cli([command, "--field", "qt", *rest])
        assert code == 2 and out == "" and err.startswith("error: ") and message in err, argv


def test_cli_certificates_at_the_qt_size_budget_verify():
    # inputs of degree 512, and coefficients of 12,986 bits (3^8193), at
    # the Q(t) size budget: decompose's certificate verifies
    for sigma, text in (
        ("shift", "(t+1)^-512*x^-1 + t*x + O(x^2)"),
        ("shift", "(t+1)^384*x^3 + O(x^5)"),
        ("scale:2", "(t^2+3)^256*x^0 + (t+1)*x + O(x^4)"),
        ("scale:2", "(2^13*t+1)^256*x + O(x^3)"),
        ("scale:3", "t*x^4096 + O(x^4098)"),
        ("scale:3", "t*x^-4096 + O(x^-4094)"),
    ):
        code, cert, err = run_cli(["decompose", "--field", "qt", "--sigma", sigma, text])
        assert code == 0, (sigma, text, err)
        code, out, err = run_cli(["verify", "-"], stdin_text=cert)
        assert code == 0 and out.startswith("valid: "), (sigma, text, err)


def test_cli_rejects_fields_past_the_budget():
    cases = {
        "gf(999999999989^2)": "characteristic 999999999989 is past the limit p < 2^32",
        "gf(4294967311^2)": "characteristic 4294967311 is past the limit p < 2^32",
        "gf(2^256)": "GF(2^256) is past the limit p^m <= 2^64",
        "gf(3^128)": "GF(3^128) is past the limit p^m <= 2^64",
        f"gf(2^{10**100})": f"GF(2^{10**100}) is past the limit p^m <= 2^64",
        # p = 2 mod 3 makes every x^3 + c reducible
        "gf(10007^3)": "no irreducible polynomial of degree 3 over GF(10007) among the "
        "first 1024 candidates; pass a modulus as ';poly=c0,c1,...'",
    }
    for field, message in cases.items():
        code, out, err = run_cli(["trace", "--field", field, "--sigma", "frob", "x"])
        assert code == 2 and out == "" and err == f"error: {message}\n", field
    for field in (
        "gf(2^64)",
        "gf(65521^4)",
        "gf(65537^2)",
        "gf(4294967291^2)",
        "gf(10007^3);poly=1,1,0,1",
    ):
        assert isinstance(build_ctx(field, "frob"), FiniteFieldCtx)


def test_cli_rejects_bad_moduli_with_unchanged_messages():
    # table fields test their modulus by the walk over the powers of x,
    # larger ones by Rabin's test; both give the same messages
    cases = {
        "gf(2^4);poly=1,0,1,0,1": "modulus [1, 0, 1, 0, 1] is reducible over GF(2)",
        "gf(2^2);poly=1,0,1": "modulus [1, 0, 1] is reducible over GF(2)",
        "gf(3^4);poly=0,0,0,0,1": "modulus [0, 0, 0, 0, 1] is reducible over GF(3)",
        "gf(3^4);poly=1,0,0,0,2": "modulus must be monic of degree 4",
        "gf(3^4);poly=2,0,0,2": "modulus must be monic of degree 4",
        "gf(2^20);poly=1,1" + ",0" * 17 + ",1,1": "modulus [1, 1"
        + ", 0" * 17
        + ", 1, 1] is reducible over GF(2)",
    }
    for field, message in cases.items():
        code, out, err = run_cli(["trace", "--field", field, "--sigma", "frob", "x"])
        assert code == 2 and out == "" and err == f"error: {message}\n", field


def test_cli_round_trip_when_x_is_not_primitive():
    # x^4 + x^3 + x^2 + x + 1 is irreducible, but x has order 5 in GF(16),
    # so the field has no Zech tables and runs on the packed kernel
    assert _x_tables(2, 4, (1, 1, 1, 1, 1)) is None
    field = "gf(2^4);poly=1,1,1,1,1"
    for text in ("x^2 + (g)*x^3 + x^7 + O(x^12)", "(g^3+1)*x + (g)*x^2 + x^5 + O(x^14)"):
        code, cert, err = run_cli(["decompose", "--field", field, "--sigma", "frob", text])
        assert code == 0, (text, err)
        code, out, err = run_cli(["verify", "-"], stdin_text=cert)
        assert code == 0 and out.startswith("valid: "), (text, out, err)


def test_cli_exit_code_3_for_unsupported():
    code, _, err = run_cli(["decompose", "--field", "gf(3^2)", "--sigma", "frob", "x^1"])
    assert code == 3 and "order 2" in err
    code, _, err = run_cli(["trace", "--field", "gf(3^2)", "--sigma", "frob^2", "x^1"])
    assert code == 3


def test_cli_exit_code_2_for_bad_input():
    cases = [
        ["decompose", "--field", "gf(2^5)", "--sigma", "frob", "x^1 + ?"],
        ["decompose", "--field", "gf(6^2)", "--sigma", "frob", "x^1"],
        ["eval", "--field", "qt", "--sigma", "scale:0", "x^1"],
        ["eval", "--field", "qt", "--sigma", "scale:1/0", "x^1"],
        ["trace", "--field", "gf(3^2);poly=2,,1", "--sigma", "frob", "x^1"],
        ["trace", "--field", "gf(3^2);poly=2,-,1", "--sigma", "frob", "x^1"],
        ["eval", "--field", "qt", "--sigma", "shift", "--prec", "-5", "x"],
        ["verify", "-"],
    ]
    for argv in cases:
        code, _, _ = run_cli(argv, stdin_text="{broken")
        assert code == 2, argv


def test_cli_exit_code_1_for_infinite_trace():
    code, _, err = run_cli(["trace", "--field", "qt", "--sigma", "shift", "x^4"])
    assert code == 1 and "finite order" in err


def test_cli_trace_and_eval_output(gf34):
    code, out, _ = run_cli(
        ["trace", "--field", "gf(3^4)", "--sigma", "frob", "g*x^0 + x^1 + O(x^5)"]
    )
    assert code == 0
    g = gf34.gen()
    expect = g + gf34.sigma(g, 1) + gf34.sigma(g, 2) + gf34.sigma(g, 3)
    assert out.strip() == str(term(gf34, expect, 0, 8))

    code, out, _ = run_cli(
        ["eval", "--field", "qt", "--sigma", "shift", "comm(x^1, t*x^0) + O(x^4)"]
    )
    assert code == 0
    assert out.strip() == "x^1 + O(x^4)"


def test_cli_prec_flag():
    code, out, _ = run_cli(
        ["eval", "--field", "qt", "--sigma", "shift", "--prec", "6", "x^2"]
    )
    assert code == 0 and out.strip() == "x^2 + O(x^8)"
