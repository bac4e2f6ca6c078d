"""The four CLI subcommands as in-process requests, and their output checks.

Each request goes through the same public functions its subcommand
calls.  Functions are looked up on their modules at call time, so the
traced run can wrap them there.
"""

from __future__ import annotations

import importlib
import json
from dataclasses import dataclass

cli = importlib.import_module("skewlaurent.cli")
dmod = importlib.import_module("skewlaurent.decompose")
rtmod = importlib.import_module("skewlaurent.reduced_trace")
errors = importlib.import_module("skewlaurent.errors")
skew = importlib.import_module("skewlaurent.skew_series")


def build_contexts(families):
    """Contexts from their spec strings, with every lazy set-up done.

    That covers the witness (normal-basis search), the order-4 subspaces,
    the Moore matrix behind k0_vec when k0 != GF(p), the k0 scalars and
    the sigma - 1 columns.
    """
    ctxs = []
    for fam in families:
        ctx = cli.build_ctx(fam.field, fam.sigma)
        n = ctx.sigma_order
        ctx.find_witness(1 if n is None else n)
        if n == 4:
            o4 = ctx.build_order4_ctx()
            ctx.k0_scalar_elements()
            ctx.sigma_minus_one_preimage(o4.l_basis[0])
        ctxs.append(ctx)
    return ctxs


@dataclass
class Outcome:
    """What one request printed, plus the objects the checks need."""

    text: str
    value: object = None  # the Certificate or SkewSeries the checks need
    ok: bool = True  # False when the request failed or gave the wrong verdict


def tamper_certificate(text, pair, var):
    """Change the leading coefficient of w in one pair by adding var.

    For b = c*x^0 with sigma^j(c) != c (the witness routes) the bracket
    changes by (c - sigma^j(c))*var*x^j; for b = x (Order4L) by
    (sigma(var) - var)*x^(j+1).  Both are nonzero, and the precisions of
    those certificates are tight, so the product changes below prec.
    """
    obj = json.loads(text)
    w = obj["pairs"][pair][1]
    w["coeffs"][0] = f"({w['coeffs'][0]})+({var})"
    return json.dumps(obj, indent=2)


class Client:
    """One closed-loop client over a fixed set of contexts."""

    def __init__(self, workload, ctxs):
        self.families = workload.families
        self.ctxs = ctxs
        self.certs = {}  # decompose index -> certificate text

    def verify_input(self, req):
        """The certificate text a verify request sends, or None."""
        text = self.certs.get(req.index)
        if text is None or req.tamper < 0:
            return text
        return tamper_certificate(text, req.tamper, self.families[req.family].var)

    def run(self, req, payload=None):
        ctx = self.ctxs[req.family]
        if req.kind == "decompose":
            f = cli.parse_series(ctx, req.text)
            cert = dmod.decompose(f)
            out = Outcome(cli.certificate_to_json(cert), cert)
            self.certs.setdefault(req.index, out.text)
            return out
        if req.kind == "verify":
            cert = cli.certificate_from_json(payload)
            if dmod.verify_certificate(cert):
                text = f"valid: {cert.method} certificate at O(x^{cert.check_prec})"
                return Outcome(text, None, req.tamper < 0)
            text = "invalid: commutator product does not reproduce the input"
            return Outcome(text, None, req.tamper >= 0)
        if req.kind == "eval":
            r = cli.evaluate(ctx, req.text)
            return Outcome(str(r), r)
        f = cli.parse_series(ctx, req.text)
        try:
            r = rtmod.reduced_trace(f)
        except errors.InfiniteOrder as exc:
            # the CLI's exit 1: the reduced trace needs finite order
            return Outcome(f"error: {exc}", None, ctx.sigma_order is None)
        return Outcome(str(r), r, ctx.sigma_order is not None)


# ---------------------------------------------------------------------------
# output checks, run outside the timed region on each distinct request


def _check_decompose(ctx, req, cert):
    f = cli.parse_series(ctx, req.text)
    if cert.input != f or cert.check_prec != f.prec or cert.method != req.route:
        return False
    if not dmod.verify_certificate(cert):
        return False
    if ctx.sigma_order is None:
        return True
    return all(rtmod.reduced_trace(skew.commutator(b, w)).is_zero for b, w in cert.pairs)


def _orbit_sum(ctx, a):
    acc = b = a
    for _ in range(ctx.sigma_order - 1):
        b = ctx.sigma(b, 1)
        acc = acc + b
    return acc


def _check_trace(ctx, req, res):
    """Oracle: the sigma-orbit sums of the coefficients at multiples of n."""
    if ctx.sigma_order is None:
        return res is None
    n = ctx.sigma_order
    f = cli.parse_series(ctx, req.text)
    prec = -(-f.prec // n) * n
    if res.prec != prec:
        return False
    zero = ctx.zero()
    for e in range(min(res.val, f.val), prec):
        want = zero
        if e % n == 0 and f.val <= e < f.prec:
            want = _orbit_sum(ctx, f.coeff_at(e))
        if res.coeff_at(e) != want:
            return False
    return True


def _agree(got, want):
    """got == want below the smaller precision, which must say something."""
    upto = min(got.prec, want.prec)
    if upto <= min(got.val, want.val) and not want.is_zero:
        return False
    return got.eq_to_prec(want, upto)


def _check_eval(ctx, req, res):
    ops = [cli.evaluate(ctx, text) for text in req.operands]
    a = ops[0]
    if req.form == "inv":
        one = skew.term(ctx, ctx.one(), 0, a.prec - a.val)
        return res.prec == a.prec - 2 * a.val and _agree(res * a, one)
    b = ops[1]
    if req.form == "comm_inv":
        return _agree(res * a, skew.commutator(a, b))
    if res.prec != min(a.prec + b.val, b.prec + a.val):
        return False
    if req.form == "comm" and ctx.sigma_order is not None:
        return rtmod.reduced_trace(res).is_zero
    return True


def check(ctx, req, out):
    """True when a distinct request's first output is right."""
    if not out.ok:
        return False
    if req.kind == "decompose":
        return _check_decompose(ctx, req, out.value)
    if req.kind == "trace":
        return _check_trace(ctx, req, out.value)
    if req.kind == "eval":
        return _check_eval(ctx, req, out.value)
    return True  # verify: judged against the tamper flag when it ran
