"""Command-line surface: machine-readable JSON in, JSON out.

Each ``cmd_*`` returns its document as (status, payload, diagnostics);
``main`` alone writes it, applies --float and picks the exit code: 0 ok,
1 error, 2 facet violation / non-member, 3 infeasible.  A document is one
line of JSON with sorted keys and no indentation, which the C encoder
writes (it cannot indent); ``python -m json.tool`` lays it out for
reading.  Every refusal (a usage error, an unreadable path, input the
program cannot honour) is an error: exit 1 with a JSON diagnostic.  All
numbers are exact (rational strings, or {a, b} pairs for values with a
sqrt(2) part); --float renders decimals for human reading only.  The DOT
text of ``poset --dot`` is the one payload written as is, and the
``orbit --out`` file keeps its indented layout.

Each command's arguments are defined once, in ``_COMMANDS``.  An argv
whose first word is a command is parsed by that command's parser alone
(prog ``lambda-forge <command>``, built on first use); any other argv (a
leading --float, --help, a missing or unknown command) goes through the
top-level parser, which holds one subparser per command built from the
same table.  Both routes write the same document for the same argv: an
argument the command does not take is refused in the top-level parser's
words.  The subparsers define no ``float``, since argparse copies a
subparser's namespace over its parent's.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import islice

from .field import FieldElem, ONE
from .clifford import CliffordTableau
from .cnc import CncSet, is_maximal_cnc
from .gf2 import PauliPoint, span
from .orbit import (
    clifford_orbit_keys,
    enumerate_family,
    family_operator_keys,
    isotropic_poset,
    mixture_identities_report,
    poset_dot,
    verify_update_rules,
)
from .pauli import QOperator
from .polytope import is_vertex, membership
from .simulate import (
    descriptor_from_json,
    distribution_to_json,
    exact_distribution,
    iter_sample,
    steps_from_json,
)
from .stabilizer import Assignment, enumerate_stabilizer_states, state_to_json

EXIT_CODES = {"ok": 0, "error": 1, "violation": 2, "infeasible": 3}


def _emit(status: str, payload, diagnostics: str, as_float: bool) -> int:
    """Write one command's document to stdout and return its exit code."""
    if isinstance(payload, str):  # the DOT text of poset --dot
        text = payload
    else:
        if as_float:
            payload = _floatify(payload)
        doc = {"status": status, "payload": payload, "diagnostics": diagnostics}
        text = json.dumps(doc, sort_keys=True)
    sys.stdout.write(text + "\n")
    return EXIT_CODES[status]


def _floatify(obj):
    if isinstance(obj, dict):
        if set(obj) == {"a", "b"}:
            return float(FieldElem.from_json(obj))
        return {k: _floatify(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_floatify(v) for v in obj]
    if isinstance(obj, str):
        try:
            return float(Fraction(obj))
        except ValueError:
            return obj
    return obj


def _load_json(path: str) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: top-level JSON must be an object")
    return doc


def _load_operator(path: str) -> QOperator:
    return QOperator.from_json(_load_json(path))


def _certify(X: QOperator):
    """X's facet certificate and, for a member, its vertex fields."""
    cert = membership(X)
    if not cert.is_member:
        return cert, {}
    ok, rank = is_vertex(X, cert)
    return cert, {"vertex": ok, "active_rank": rank}


# -- subcommands: each returns (status, payload, diagnostics) ------------------


def cmd_membership(args):
    X = _load_operator(args.operator)
    cert, fields = _certify(X) if args.vertex else (membership(X), {})
    if not cert.is_member:
        return "violation", cert.to_json(), f"violated facet {cert.violation}"
    return "ok", {**cert.to_json(), **fields}, ""


def cmd_vertex(args):
    cert, fields = _certify(_load_operator(args.operator))
    if not cert.is_member:
        return "violation", cert.to_json(), f"not a member: facet {cert.violation}"
    return "ok", {**fields, "active_facets": cert.active}, ""


def cmd_enumerate_stabilizers(args):
    states = enumerate_stabilizer_states(args.n)
    payload = {"n": args.n, "count": len(states)}
    if not args.counts_only:
        payload["states"] = [state_to_json(I, s) for I, s in states]
    return "ok", payload, ""


def cmd_cnc(args):
    c = CncSet.from_json(_load_json(args.cncset))
    payload = {"n": c.n, "operator": c.operator().to_json()}
    payload["maximal"] = is_maximal_cnc(c.omega)
    if args.update:
        a = PauliPoint.from_label(args.update)
        pieces = c.measure_update(a, args.outcome)
        payload["update"] = {
            "axis": args.update,
            "outcome": args.outcome,
            "pieces": [
                {"weight": str(w), "state": piece.to_json()} for w, piece in pieces
            ],
        }
    return "ok", payload, ""


def cmd_orbit(args):
    if args.count:
        fam = enumerate_family()
        same = family_operator_keys() == clifford_orbit_keys()
        payload = {"count": len(fam), "matches_clifford_orbit": same}
        return "ok" if same else "violation", payload, ""
    if args.verify_updates:
        stats = verify_update_rules()
        stats["weight_profiles"] = {
            "+".join(str(w) for w in k): v for k, v in stats["weight_profiles"].items()
        }
        return "ok" if stats["mismatches"] == 0 else "violation", stats, ""
    fam = enumerate_family()
    payload = {"count": len(fam), "vertices": [v.to_json() for v in fam]}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
        return "ok", {"count": len(fam), "written": args.out}, ""
    return "ok", payload, ""


def cmd_phi(args):
    from .lifting import lift, make_params

    X = _load_operator(args.operator)
    gens = [PauliPoint.from_label(lbl) for lbl in args.j.split(",")]
    J = span(gens)
    if len(args.r) != len(gens) or not set(args.r) <= {"0", "1"}:
        raise ValueError(f"--r needs one 0/1 digit per --j generator, got {args.r!r}")
    bits = [int(b) for b in args.r]
    r = Assignment.from_pairs(list(zip(gens, bits)), J.n)
    tableau = (
        CliffordTableau.from_json(_load_json(args.tableau)) if args.tableau else None
    )
    params = make_params(args.n, J, r, tableau)
    lifted = lift(X, params)
    cert, fields = _certify(lifted)
    payload = {
        "lifted": lifted.to_json(),
        "tableau": params.tableau.to_json(),
        "member": cert.is_member,
        **fields,
    }
    return "ok" if cert.is_member else "violation", payload, ""


def cmd_reduce(args):
    from .reduction import reduce_static
    from .simulate import LiftState

    doc = _load_json(args.circuit)
    init = descriptor_from_json(doc.get("initial"))
    if len(init) != 1 or not isinstance(init[0][1], LiftState):
        raise ValueError("reduce expects a lift-type initial state")
    engine = init[0][1].engine
    steps = steps_from_json(doc.get("steps"), engine.n)
    if any(cond for _, cond in steps):
        raise ValueError("reduce handles non-adaptive sequences")
    coins = [int(b) for b in args.coins] if args.coins else []
    return "ok", reduce_static(engine, [p for p, _ in steps], coins), ""


#: how ``simulate --shots`` writes a transcript entry: "-" for a skipped step
_OUTCOME_TEXT = {0: "0", 1: "1", None: "-"}


def cmd_simulate(args):
    doc = _load_json(args.circuit)
    init = descriptor_from_json(doc.get("initial"))
    n = doc.get("n", init[0][1].n)
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"circuit qubit count n must be an integer, got {n!r}")
    if n != init[0][1].n:
        raise ValueError(f"circuit n = {n!r}, initial state n = {init[0][1].n}")
    steps = steps_from_json(doc.get("steps"), n)
    if args.exact:
        dist = exact_distribution(init, steps)
        return "ok", {"mode": "exact", "distribution": distribution_to_json(dist)}, ""
    # counted a batch of shots at a time, each distinct transcript of a
    # batch formatted once (the format is injective), so that no more
    # than a batch of transcripts is held besides the formatted keys
    counts: dict[str, int] = {}
    shots = iter_sample(init, steps, seed=args.seed, shots=args.shots)
    while batch := Counter(islice(shots, 1 << 12)):
        for t, c in batch.items():
            key = ",".join(map(_OUTCOME_TEXT.__getitem__, t))
            counts[key] = counts.get(key, 0) + c
    payload = {
        "mode": "sample",
        "seed": args.seed,
        "shots": args.shots,
        "counts": dict(sorted(counts.items())),
    }
    return "ok", payload, ""


def cmd_poset(args):
    return "ok", poset_dot() if args.dot else isotropic_poset(), ""


def cmd_lemma_check(args):
    import random

    from .gf2 import all_points
    from .lifting import (
        averaged_trace_identity,
        lift_tensor,
        tail_overlap,
        tail_subspace,
    )
    from .stabilizer import stabilizer_projector

    if args.trials < 1:
        raise ValueError(f"--trials must be at least 1, got {args.trials}")
    rng = random.Random(args.seed)
    J = tail_subspace(2, 1)
    states2 = enumerate_stabilizer_states(2)
    head_states = enumerate_stabilizer_states(1)

    overlap_checks = overlap_failures = 0
    for _ in range(args.trials):
        cf = {PauliPoint.zero(1): ONE}
        for p in all_points(1, include_zero=False):
            cf[p] = FieldElem(Fraction(rng.randint(-8, 8), 4))
        X = QOperator(1, cf)
        for rbit in (0, 1):
            r = Assignment(J, [rbit])
            L = lift_tensor(X, J, r)
            for I, s in states2:
                overlap_checks += 1
                if tail_overlap(X, J, r, I, s) != L.trace_inner(
                    stabilizer_projector(I, s)
                ):
                    overlap_failures += 1
    averaged_checks = averaged_failures = 0
    for _ in range(args.trials):
        cf = {}
        for p in all_points(2, include_zero=False):
            cf[p] = FieldElem(Fraction(rng.randint(-8, 8), 4))
        Y = QOperator(2, cf)
        for rbit in (0, 1):
            r = Assignment(J, [rbit])
            for I1, s1 in head_states:
                averaged_checks += 1
                lhs, rhs = averaged_trace_identity(Y, J, r, I1, s1)
                if lhs != rhs:
                    averaged_failures += 1
    mix = mixture_identities_report()
    payload = {
        "tail_overlap": {"checked": overlap_checks, "failures": overlap_failures},
        "averaged_trace": {"checked": averaged_checks, "failures": averaged_failures},
        "mixtures": mix,
    }
    ok = (
        overlap_failures == 0
        and averaged_failures == 0
        and all(v == 0 for k, v in mix.items() if k.startswith("identity"))
    )
    return "ok" if ok else "violation", payload, ""


def cmd_decompose(args):
    from .simulate import decompose_known, state_to_descriptor_json

    X = _load_operator(args.operator)
    cert = membership(X)
    if not cert.is_member:
        return "violation", cert.to_json(), "not a polytope member"
    try:
        terms = decompose_known(X)
    except ValueError as exc:
        return "infeasible", None, str(exc)
    payload = {
        "terms": [
            {"weight": w.to_json(), "state": state_to_descriptor_json(st)}
            for w, st in terms
        ]
    }
    return "ok", payload, ""


#: each command: (help, handler, arguments), an argument as (name,
#: ``add_argument`` options); every command's only definition
_COMMANDS = {
    "membership": ("facet certificate for an operator", cmd_membership,
                   [("operator", {}), ("--vertex", {"action": "store_true"})]),
    "vertex": ("extremality certificate", cmd_vertex, [("operator", {})]),
    "enumerate-stabilizers": ("all stabilizer states", cmd_enumerate_stabilizers,
                              [("n", {"type": int}), ("--counts-only", {"action": "store_true"})]),
    "cnc": ("inspect or update a cnc set", cmd_cnc,
            [("cncset", {}), ("--update", {"metavar": "AXIS"}),
             ("--outcome", {"type": int, "default": 0, "choices": (0, 1)})]),
    "orbit": ("the 1920-member two-qubit family", cmd_orbit,
              [("--count", {"action": "store_true"}), ("--out", {}),
               ("--verify-updates", {"action": "store_true"})]),
    "phi": ("lift an operator through a stabilizer tail", cmd_phi,
            [("operator", {}), ("--n", {"type": int, "required": True}),
             ("--j", {"required": True, "help": "comma-separated tail generators"}),
             ("--r", {"required": True, "help": "one sign bit (0/1) per generator"}),
             ("--tableau", {})]),
    "reduce": ("rewrite a lifted-run measurement sequence", cmd_reduce,
               [("circuit", {}),
                ("--coins", {"help": "0/1 coin outcomes to substitute, e.g. 0110"})]),
    "simulate": ("exact or sampling simulation", cmd_simulate,
                 [("circuit", {}), ("--exact", {"action": "store_true"}),
                  ("--shots", {"type": int, "default": 1024}),
                  ("--seed", {"type": int, "default": 0})]),
    "poset": ("isotropic-subspace containment poset", cmd_poset,
              [("--dot", {"action": "store_true"})]),
    "lemma-check": ("run the exact identity suites", cmd_lemma_check,
                    [("--trials", {"type": int, "default": 20}),
                     ("--seed", {"type": int, "default": 0})]),
    "decompose": ("convex decomposition over known vertices", cmd_decompose,
                  [("operator", {})]),
}

_PROG = "lambda-forge"


class UsageError(Exception):
    """A command line that the parser cannot read."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise UsageError, so that
    `main` reports them as JSON rather than exiting with argparse's 2,
    which here means a facet violation.  Subcommand parsers are built
    from the same class."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _with_arguments(parser: _Parser, command: str) -> _Parser:
    for name, options in _COMMANDS[command][2]:
        parser.add_argument(name, **options)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The whole command line: --float, then one subparser per command."""
    parser = _Parser(
        prog=_PROG,
        description="exact polytope membership, vertex construction, and "
        "measurement simulation for stabilizer-overlap polytopes",
    )
    parser.add_argument("--float", action="store_true", help="render decimals")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, _, _) in _COMMANDS.items():
        _with_arguments(sub.add_parser(command, help=text), command)
    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    # parse_args keeps no state between calls, so one parser serves them all
    return build_parser()


@lru_cache(maxsize=None)
def _command_parser(command: str) -> argparse.ArgumentParser:
    """The parser `build_parser` gives the command, built alone."""
    return _with_arguments(_Parser(prog=f"{_PROG} {command}"), command)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    as_float = False
    try:
        if argv and argv[0] in _COMMANDS:
            command = argv[0]
            args, extra = _command_parser(command).parse_known_args(argv[1:])
            if extra:  # refused in the words of the whole command line's parser
                raise UsageError(f"{_PROG}: unrecognized arguments: {' '.join(extra)}")
        else:
            args = _parser().parse_args(argv)
            command, as_float = args.command, args.float
        status, payload, diagnostics = _COMMANDS[command][1](args)
    except UsageError as exc:
        status, payload, diagnostics = "error", None, f"usage: {exc}"
    except OSError as exc:
        status, payload, diagnostics = "error", None, str(exc)
    except ValueError as exc:
        status, payload, diagnostics = "error", None, f"{type(exc).__name__}: {exc}"
    return _emit(status, payload, diagnostics, as_float)


if __name__ == "__main__":
    sys.exit(main())
