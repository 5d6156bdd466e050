"""Command-line entry point.

Subcommands cover fan analysis, Mobius data, map-space classes,
Tamagawa numbers, convergence reports, and the finite-field oracle.
Output is text by default and JSON with --format json; JSON is the
authoritative form.  Nothing is printed until the computation has
finished, so failures never leave partial output behind.

Exit statuses: 0 success, 1 usage, 2 validation or unreadable input,
3 enumeration budget or internal size limit exceeded, 4 internal
consistency tripwire.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import pathlib
import sys
import time
from importlib.util import LazyLoader, find_spec, module_from_spec

from .errors import (
    BudgetError,
    FanValidationError,
    InternalCheckError,
    LimitError,
    _int,
    _resolve_budget,
)
from .grothendieck import MINUS_INFINITY, ONE, SeriesCap
from .toric import (
    FIXTURE_NAMES,
    Fan,
    class_of_variety,
    eff_dual_contains,
    enumerate_cones,
    fixture_fan,
    parse_fan,
    pattern_set,
    picard_rank,
    require_valid,
)


def _layer(name: str):
    """The layer toricurves.<name>, entered in sys.modules now but run at
    its first attribute lookup, so that a command compiles and runs no
    layer it does not call."""
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = find_spec(fullname)
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[fullname] = module
    setattr(sys.modules[__package__], name, module)
    spec.loader.exec_module(module)
    return module


mobius = _layer("mobius")
eulerprod = _layer("eulerprod")
moduli = _layer("moduli")
oracle = _layer("oracle")

EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage failures exit with status 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _load_fan(source: str) -> Fan:
    path = pathlib.Path(source)
    stem = path.stem if path.suffix == ".json" else source
    fixture = "/" not in source and stem in FIXTURE_NAMES
    if fixture and path.exists():
        raise FanValidationError(
            f"{source!r} names both a bundled fixture and a file in the "
            f"working directory; write ./{source} for the file"
        )
    if path.exists():
        doc = json.loads(path.read_text())
        return parse_fan(doc)
    if fixture:
        return fixture_fan(stem)
    raise FanValidationError(f"cannot read fan description {source!r}")


def _parse_degree(text: str) -> tuple[int, ...]:
    try:
        return tuple(_int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"degree {text!r} is not a comma-separated integer list")


def _parse_jet(text: str, p: int, nrays: int) -> oracle.JetSpec:
    """Parse "point,order[,c0:c1:...,... one group per ray]"."""
    # the point and the target reduce modulo p
    oracle._check_prime(p)
    tokens = text.split(",")
    if len(tokens) < 2:
        raise ValueError("jet needs at least 'point,order'")
    rest = tokens[2:]
    chunk = tokens[0]
    try:
        point = None if chunk in ("inf", "oo") else _int(chunk) % p
        chunk = tokens[1]
        order = _int(chunk)
        target = []
        for chunk in rest:
            target.append(tuple(_int(c) % p for c in chunk.split(":")))
    except ValueError:
        raise ValueError(
            f"jet part {chunk!r} is not of the form point,order[,c0:c1:...]"
        ) from None
    if not target:
        return oracle.JetSpec.identity(nrays, point, order)
    return oracle.JetSpec(point, order, tuple(target))


def _parse_points(text: str) -> list[tuple[tuple[int, int], int]]:
    """Parse "x0:x1@m,x0:x1@m,..." into ((x0, x1), m) pairs."""
    out = []
    for chunk in text.split(","):
        if "@" in chunk:
            coords, order = chunk.rsplit("@", 1)
        else:
            coords, order = chunk, "0"
        try:
            x0, x1 = (_int(tok) for tok in coords.split(":"))
            m = _int(order)
        except ValueError:
            raise ValueError(
                f"point {chunk!r} is not of the form x0:x1[@m]"
            ) from None
        out.append(((x0, x1), m))
    return out


def _fmt_delta(delta) -> str:
    return "-inf" if delta is MINUS_INFINITY else str(delta)


def _nonnegative(option: str, value: int | None) -> None:
    if value is not None and value < 0:
        raise ValueError(f"{option} must be nonnegative, got {value}")


def _mobius_listing(poly: mobius.IntPoly) -> list[dict]:
    """mu on every 0/1 vector n, zeros included, by |n| and then n."""
    mu = poly.coeffs
    vectors = sorted(itertools.product((0, 1), repeat=poly.nvars),
                     key=lambda n: (sum(n), n))
    return [{"n": list(n), "mu": mu.get(n, 0)} for n in vectors]


def _json_text(payload: dict) -> str:
    """json.dumps(payload, indent=2), byte for byte, with the 2^n listing
    of mu written from one template per entry: with an indent, json.dumps
    runs its pure-Python encoder, several times slower than without.
    The listing is a top-level key, so its null stands alone on a line
    indented by two, which no encoded string can hold."""
    listing = payload.get("mobius")
    if not listing:
        return json.dumps(payload, indent=2)
    head, tail = json.dumps({**payload, "mobius": None}, indent=2).split(
        '\n  "mobius": null', 1)
    entries = ",\n".join(
        '    {\n      "n": [\n        %s\n      ],\n      "mu": %d\n    }'
        % (",\n        ".join(map(str, entry["n"])), entry["mu"])
        for entry in listing)
    return f'{head}\n  "mobius": [\n{entries}\n  ]{tail}'


def cmd_analyze(args):
    fan = _load_fan(args.fan)
    report = require_valid(fan)
    pats = pattern_set(fan)
    rank = picard_rank(fan)
    cls = class_of_variety(fan)
    poly = mobius.fan_mobius_polynomial(fan)
    identity_ok = mobius.local_identity_check(fan)
    payload = {
        "validation": report.to_json(),
        "f_vector": list(enumerate_cones(fan)),
        "dim": fan.dim,
        "picard_rank": rank,
        "class": str(cls),
        "primitive_collections": sorted(map(list, pats.minimal)),
        # the 2^n listing is printed only in JSON
        "mobius": _mobius_listing(poly) if args.format == "json" else None,
        "polynomial": str(poly),
        "local_identity": identity_ok,
    }
    lines = [
        f"smooth: {report.smooth}  complete: {report.complete}",
        f"f-vector: {payload['f_vector']}",
        f"dim: {fan.dim}  picard rank: {rank}",
        f"class: {cls}",
        f"primitive collections: {payload['primitive_collections']}",
        f"P = {payload['polynomial']}",
        f"local identity: {'holds' if identity_ok else 'FAILS'}",
    ]
    return payload, "\n".join(lines)


def cmd_mobius(args):
    _nonnegative("--cap", args.cap)
    fan = _load_fan(args.fan)
    poly = mobius.fan_mobius_polynomial(fan)
    as_json = args.format == "json"
    payload = {
        # the listings are printed only in JSON
        "mobius": _mobius_listing(poly) if as_json else None,
        "polynomial": str(poly),
    }
    lines = [f"P = {poly}"]
    if args.cap is not None:
        gm = eulerprod.global_mobius(
            fan, 0, SeriesCap.total_cap(fan.nrays, args.cap)
        )
        payload["global"] = [
            {"e": list(e), "mu": value.to_json()} for e, value in gm.items()
        ] if as_json else None
        lines.append(f"global coefficients to total degree {args.cap}:")
        for e, value in gm.items():
            lines.append(f"  mu{e} = {value}")
    else:
        for n, v in poly._by_degree():
            lines.append(f"  mu{n} = {v}")
    return payload, "\n".join(lines)


def cmd_hom(args):
    fan = _load_fan(args.fan)
    # the fan and the degree are checked before the cone is tested
    d = moduli.checked_degrees(fan, _parse_degree(args.degree)).entries
    if not eff_dual_contains(fan, d):
        payload = {
            "degree": list(d),
            "empty": True,
            "reason": "degree not in Eff^v",
        }
        return payload, "empty: degree not in Eff^v"
    cls = (moduli.normalized_hom_class(fan, d) if args.normalized
           else moduli.hom_class(fan, d))
    payload = {
        "degree": list(d),
        "normalized": bool(args.normalized),
        "class": str(cls),
        "coeffs": cls.to_json(),
        "virtual_dimension": None
        if cls.virtual_dimension is MINUS_INFINITY
        else cls.virtual_dimension,
    }
    return payload, str(cls)


def cmd_tamagawa(args):
    _nonnegative("--order", args.order)
    fan = _load_fan(args.fan)
    series = moduli.tamagawa(fan, args.order)
    payload = {
        "order": args.order,
        "series": str(series.known),
        "floor": series.floor,
        "coeffs": series.to_json(),
    }
    return payload, str(series)


def cmd_converge(args):
    _nonnegative("--order", args.order)
    fan = _load_fan(args.fan)
    d = _parse_degree(args.degree)
    rep = moduli.convergence_report(fan, d, args.order)
    payload = rep.to_json()
    payload["bound_float"] = float(rep.bound)
    text = (
        f"{rep.status}: degree {list(d)} delta_dim "
        f"{_fmt_delta(rep.delta_dim)} bound {float(rep.bound)}"
    )
    return payload, text


def cmd_oracle(args):
    fan = _load_fan(args.fan)
    if args.degree is None and args.config is None:
        raise ValueError("pass --degree (maps) or --config (configurations)")
    if args.degree is not None and args.config is not None:
        raise ValueError("pass only one of --degree and --config")
    if args.jet is not None:
        if args.degree is None:
            raise ValueError("--jet requires --degree")
        d = _parse_degree(args.degree)
        jet = _parse_jet(args.jet, args.p, fan.nrays)
        start = time.perf_counter()
        count = oracle.ff_constrained_count(
            args.p, fan, d, jet, budget=args.budget
        )
        elapsed = int((time.perf_counter() - start) * 1000)
        payload = {
            "p": args.p,
            "e_or_d": list(d),
            "jet": {
                "point": "inf" if jet.point is None else jet.point,
                "order": jet.order,
                "target": [list(c) for c in jet.target],
            },
            "count": str(count),
            "elapsed_ms": elapsed,
        }
        return payload, f"constrained count {count} ({elapsed} ms)"
    kind, text = ("e", args.config) if args.degree is None else ("d", args.degree)
    vec = _parse_degree(text)
    rep = oracle.oracle_compare(args.p, fan, budget=args.budget, **{kind: vec})
    verdict = "equal" if rep.equal else "MISMATCH"
    text = (
        f"{verdict}: brute {rep.brute} predicted {rep.predicted} "
        f"({rep.elapsed_ms} ms)"
    )
    return rep.to_json(), text


def cmd_constrained(args):
    _nonnegative("--order", args.order)
    fan = _load_fan(args.fan)
    if args.points is not None:
        specs = _parse_points(args.points)
        if args.mode == "torus":
            jc = moduli.JetCondition(
                tuple((tuple(pt), order) for pt, order in specs), ONE, 0
            )
        else:
            jc = moduli.JetCondition.full_jets(fan, specs)
    else:
        jc = moduli.JetCondition.empty()
    series = moduli.constrained_main_term(fan, jc, args.order)
    payload = {
        "order": args.order,
        "jet_condition": jc.to_json(),
        "series": str(series.known),
        "floor": series.floor,
        "coeffs": series.to_json(),
    }
    return payload, str(series)


def build_parser() -> _Parser:
    parser = _Parser(prog="toricurves", description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("fan", help="fan JSON file or bundled fixture name")
    common.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (JSON is authoritative)",
    )
    common.add_argument(
        "--budget", type=_int, default=None,
        help="enumeration budget (default TORICURVES_BUDGET or 10^8)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common],
                       help="validation, combinatorics, Mobius data")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("mobius", parents=[common],
                       help="local Mobius table and polynomial")
    p.add_argument("--cap", type=_int, default=None,
                   help="also list global coefficients to this total degree")
    p.set_defaults(func=cmd_mobius)

    p = sub.add_parser("hom", parents=[common],
                       help="class of the space of maps of one multidegree")
    p.add_argument("--degree", required=True,
                   help="comma-separated multidegree, one entry per ray")
    p.add_argument("--normalized", action="store_true",
                   help="divide by L^|d|")
    p.set_defaults(func=cmd_hom)

    p = sub.add_parser("tamagawa", parents=[common],
                       help="Tamagawa number truncated at an Euler order")
    p.add_argument("--order", type=_int, required=True,
                   help="Euler-product truncation order")
    p.set_defaults(func=cmd_tamagawa)

    p = sub.add_parser("converge", parents=[common],
                       help="compare one normalized class to the limit")
    p.add_argument("--degree", required=True)
    p.add_argument("--order", type=_int, required=True)
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("oracle", parents=[common],
                       help="finite-field brute-force comparison")
    p.add_argument("--p", type=_int, required=True,
                   help="prime, one of 2 3 5 7")
    p.add_argument("--degree", default=None,
                   help="compare the space of maps at this multidegree")
    p.add_argument("--config", default=None,
                   help="compare the configuration class at this multidegree")
    p.add_argument("--jet", default=None,
                   help="constrained count: 'point,order[,c0:c1...,per ray]'")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("constrained", parents=[common],
                       help="main term of the jet-constrained prediction")
    p.add_argument("--order", type=_int, required=True)
    p.add_argument("--points", default=None,
                   help="marked points 'x0:x1@m,...' (default none)")
    p.add_argument("--mode", choices=("torus", "full"), default="torus",
                   help="torus: one prescribed jet; full: whole jet space")
    p.set_defaults(func=cmd_constrained)
    return parser


def _refusing(run, args) -> int:
    """run(args), or the exit status of its refusal, after its error
    line; the experiment scripts refuse through it too."""
    try:
        return run(args)
    except (BudgetError, LimitError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (FanValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def _respond(args) -> int:
    if args.budget is not None:
        # every command accepts --budget, so every command checks it
        _resolve_budget(args.budget)
    payload, text = args.func(args)
    try:
        print(_json_text(payload) if args.format == "json" else text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: point stdout at devnull so that the flush
        # at exit fails no more, and leave quietly
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 0


def main(argv=None) -> int:
    return _refusing(_respond, build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
