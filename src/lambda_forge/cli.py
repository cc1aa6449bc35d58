"""Command-line surface: machine-readable JSON in, JSON out.

The commands certify, lift, reduce, decompose and simulate, and print
the program's own data (``enumerate-stabilizers``, ``orbit``, ``poset``).
The paper's identity sweeps are tier-1 tests (acceptance criteria 7-9),
not commands.

Each ``cmd_*`` returns its document as (status, payload, diagnostics);
``main`` alone writes it, applies --float and picks the exit code: 0 ok,
1 error, 2 facet violation / non-member, 3 infeasible.  A document is one
line of JSON with sorted keys and no indentation, as ``json.dumps(...,
sort_keys=True)`` writes it; ``python -m json.tool`` lays it out for
reading.  The C encoder writes every document but those that carry a
facet table (``membership``, and ``vertex`` and ``decompose`` of a
non-member): their payload is the certificate's own JSON text
(`FacetCertificate.json_text`, one value text per distinct facet sum),
spliced into the document as it is, and under --float read back and
rendered like any other payload.  Every refusal (a usage error, an
unreadable path, input the program cannot honour) is an error: exit 1
with a JSON diagnostic.  All numbers are exact (rational strings, or
{a, b} pairs for values with a sqrt(2) part); --float renders decimals
for human reading only.  The DOT text of ``poset --dot`` is the one
payload written without a document, and the ``orbit --out`` file keeps
its indented layout.

Each command's arguments are defined once, in ``_COMMANDS``, and read
by one parser per command (prog ``lambda-forge <command>``, built on
first use), which parses whatever follows the command word.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import islice

from .field import FieldElem
from .clifford import CliffordTableau
from .cnc import CncSet, is_maximal_cnc
from .gf2 import PauliPoint, span
from .lifting import lift, make_params
from .orbit import (
    clifford_orbit_keys,
    enumerate_family,
    family_operator_keys,
    isotropic_poset,
    poset_dot,
)
from .pauli import QOperator
from .polytope import is_vertex, membership
from .reduction import reduce_static
from .simulate import (
    LiftState,
    decompose_known,
    descriptor_from_json,
    distribution_to_json,
    exact_distribution,
    iter_sample,
    state_to_descriptor_json,
    steps_from_json,
)
from .stabilizer import Assignment, enumerate_stabilizer_states, state_to_json

EXIT_CODES = {"ok": 0, "error": 1, "violation": 2, "infeasible": 3}


class _JsonText(str):
    """A payload already written as JSON text, spliced into its document
    as it is (`FacetCertificate.json_text`)."""


def _emit(status: str, payload, diagnostics: str, as_float: bool) -> int:
    """Write one command's document to stdout and return its exit code."""
    if isinstance(payload, _JsonText) and as_float:
        payload = json.loads(payload)  # --float rewrites its values
    if isinstance(payload, _JsonText):
        # the document's three keys in sorted order, as json.dumps writes them
        text = '{"diagnostics": %s, "payload": %s, "status": %s}' % (
            json.dumps(diagnostics), payload, json.dumps(status)
        )
    elif isinstance(payload, str):  # the DOT text of poset --dot
        text = payload
    else:
        if as_float:
            payload = _floatify(payload)
        doc = {"status": status, "payload": payload, "diagnostics": diagnostics}
        text = json.dumps(doc, sort_keys=True)
    sys.stdout.write(text + "\n")
    return EXIT_CODES[status]


def _floatify(obj):
    """obj with each exact number (a rational string or an {a, b} object)
    as a float; each distinct string is converted once, since a facet
    table's values take a handful of distinct strings."""
    floats = {}

    def walk(obj):
        if isinstance(obj, dict):
            if set(obj) == {"a", "b"}:
                return float(FieldElem.from_json(obj))
            return {k: walk(v) for k, v in obj.items()}
        if isinstance(obj, list):
            return [walk(v) for v in obj]
        if isinstance(obj, str):
            if obj not in floats:
                try:
                    floats[obj] = float(Fraction(obj))
                except ValueError:
                    floats[obj] = obj
            return floats[obj]
        return obj

    return walk(obj)


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
        return "violation", _JsonText(cert.json_text()), f"violated facet {cert.violation}"
    return "ok", _JsonText(cert.json_text(**fields)), ""


def cmd_vertex(args):
    cert, fields = _certify(_load_operator(args.operator))
    if not cert.is_member:
        return "violation", _JsonText(cert.json_text()), f"not a member: facet {cert.violation}"
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
    if args.count and args.out:
        raise UsageError(f"{_PROG} orbit: argument --out: not allowed with argument --count")
    if args.count:
        fam = enumerate_family()
        same = family_operator_keys() == clifford_orbit_keys()
        payload = {"count": len(fam), "matches_clifford_orbit": same}
        return "ok" if same else "violation", payload, ""
    fam = enumerate_family()
    payload = {"count": len(fam), "vertices": [v.to_json() for v in fam]}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
        return "ok", {"count": len(fam), "written": args.out}, ""
    return "ok", payload, ""


def cmd_phi(args):
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
    doc = _load_json(args.circuit)
    init = descriptor_from_json(doc.get("initial"))
    if len(init) != 1 or not isinstance(init[0][1], LiftState):
        raise ValueError("reduce expects a lift-type initial state")
    engine = init[0][1].engine
    steps = steps_from_json(doc.get("steps"), engine.n)
    if any(cond for _, cond in steps):
        raise ValueError("reduce handles non-adaptive sequences")
    coins = args.coins or ""
    if not set(coins) <= {"0", "1"}:
        raise ValueError(f"--coins takes one ASCII digit 0 or 1 per coin, got {coins!r}")
    return "ok", reduce_static(engine, [p for p, _ in steps], list(map(int, coins))), ""


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


def cmd_decompose(args):
    X = _load_operator(args.operator)
    cert = membership(X)
    if not cert.is_member:
        return "violation", _JsonText(cert.json_text()), "not a polytope member"
    try:
        terms = decompose_known(X)
    except ValueError as exc:
        if X.n > 2:  # a member the program does not decompose: a refusal
            raise
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
              [("--count", {"action": "store_true"}), ("--out", {})]),
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


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The command line up to the command word: --float, -h, and one
    subparser per command that holds only its help text.  parse_args
    keeps no state between calls, so one parser serves them all."""
    parser = _Parser(
        prog=_PROG,
        description="exact polytope membership, vertex construction, and "
        "measurement simulation for stabilizer-overlap polytopes",
    )
    parser.add_argument("--float", action="store_true", help="render decimals")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, _, _) in _COMMANDS.items():
        sub.add_parser(command, help=text, add_help=False)
    return parser


@lru_cache(maxsize=None)
def _command_parser(command: str) -> argparse.ArgumentParser:
    """The command's arguments, the only parser that holds them."""
    parser = _Parser(prog=f"{_PROG} {command}")
    for name, options in _COMMANDS[command][2]:
        parser.add_argument(name, **options)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    as_float, unknown = False, []
    try:
        if argv and argv[0] in _COMMANDS:
            command, rest = argv[0], argv[1:]
        else:
            # the top-level parser reads the options before the command
            # word, the first word that is no option or follows a `--`,
            # and the word itself
            at = next((i for i, word in enumerate(argv)
                       if not word.startswith("-") or i and argv[i - 1] == "--"), len(argv))
            if at and argv[at - 1] == "--":  # it ends the options: argv[at] is the command
                at -= 1
                del argv[at]
                if argv[at:] and argv[at].startswith("-"):  # argparse reads it as an option
                    _parser().error(f"argument command: invalid choice: {argv[at]!r} "
                                    f"(choose from {', '.join(map(repr, _COMMANDS))})")
            top, unknown = _parser().parse_known_args(argv[:at + 1])
            command, as_float, rest = top.command, top.float, argv[at + 1:]
        args, extra = _command_parser(command).parse_known_args(rest)
        if unknown or extra:  # refused in the words of the whole command line
            raise UsageError(f"{_PROG}: unrecognized arguments: {' '.join(unknown + extra)}")
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
