"""Command-line front end for the toolkit.

Words are whitespace- or ``*``-separated atoms ``name`` and ``name^k``
(k a nonzero integer), with commutator brackets ``[u, v]`` for
u^-1 v^-1 u v, parentheses for grouping, and ``1`` for the identity.
Presentation files hold one ``gens:`` line followed by ``rel:`` lines;
``#`` starts a comment.  Wherever a command expects a presentation,
one of the built-in names pv3, pv4, g3 or pv3-new may stand in for a
file path.  The generator arguments of ``aut compose`` and
``aut inner`` together form one such word in the names ``eij``.

Exit status is 0 when everything requested holds, 1 when a comparison
fails or a single question is refuted or left undecided, and 2 for
usage errors such as unparseable input.

Each command runs in a fresh interpreter, so the handlers of ``aut``,
``cohomology``, ``lie`` and ``suite`` import their engines themselves:
the other commands never load ``autf``, ``grcohom``, ``lie`` or ``suite``.
"""

from __future__ import annotations

import argparse
import re
import sys
from itertools import combinations
from pathlib import Path

from .fpres import (
    VERIFIED,
    CertificateStep,
    Presentation,
    SearchBounds,
    check_homomorphism_presented,
    g3_presentation,
    is_consequence,
    pv3_new_generators,
    pv3_new_presentation,
    pv_presentation,
    verify_certificate,
)
from .grammar import _tokenize, parse_word, split_names
from .nq import CollectionBudget, nilpotent_quotient
from .word import Alphabet, GenMap

BUILTIN_PRESENTATIONS = {
    "pv3": lambda: pv_presentation(3),
    "pv4": lambda: pv_presentation(4),
    "g3": g3_presentation,
    "pv3-new": pv3_new_presentation,
}


def _load_presentation(spec: str) -> Presentation:
    if spec in BUILTIN_PRESENTATIONS:
        return BUILTIN_PRESENTATIONS[spec]()
    return Presentation.from_text(Path(spec).read_text())


def _alphabet_from(args_gens: str | None, *texts: str) -> Alphabet:
    """The listed names, which must not be none, or else the names the
    texts use in order, which may be none."""
    if args_gens is None:
        return Alphabet(dict.fromkeys(text for source in texts
                                      for kind, text, _, _ in _tokenize(source) if kind == "NAME"))
    names = split_names(args_gens)
    if not names:
        raise ValueError("no generator names found")
    return Alphabet(names)


def _parse_bounds(spec: str) -> SearchBounds:
    try:
        left, right = map(int, spec.split(","))
        if left < 0 or right < 0:
            raise ValueError(spec)
        return SearchBounds(max_prefix=left, max_steps=right)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected two non-negative integers L,K, got %r" % spec) from None


def _parse_steps(pres: Presentation, specs) -> tuple[CertificateStep, ...]:
    steps = []
    for spec in specs:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError("certificate step must be 'CONJ : INDEX : SIGN',"
                             " got %r" % spec)
        conj_text, idx_text, sign_text = (p.strip() for p in parts)
        conj = pres.alphabet.identity() if conj_text in ("", "1") \
            else parse_word(conj_text, pres.alphabet)
        for what, text in (("relator index", idx_text), ("sign", sign_text)):
            if not re.fullmatch(r"[+-]?\d+", text):
                raise ValueError("%s must be an integer, got %r" % (what, text))
        idx, sign = int(idx_text), int(sign_text)
        if not 0 <= idx < len(pres.relators):
            raise ValueError("relator index %d out of range 0..%d"
                             % (idx, len(pres.relators) - 1))
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1, got %r" % sign_text)
        steps.append(CertificateStep(conj, idx, sign))
    return tuple(steps)


def _epsilon_product(generators, rank=None):
    """The map of the generators as one word in the eij, x_i |-> x_j^-1 x_i x_j
    on the free group of the given rank (default: the largest index)."""
    from .autf import epsilon, free_alphabet, word_automorphism

    text = " ".join(generators)
    alphabet = _alphabet_from(None, text)
    w = parse_word(text, alphabet)
    pairs = []
    for name in alphabet.names:
        if not (len(name) == 3 and name[0] == "e" and name[1:].isdecimal()):
            raise ValueError("cannot read generator %r as eij" % name)
        pairs.append((int(name[1]), int(name[2])))
    n = max(map(max, pairs), default=-1) if rank is None else rank
    if n < 0:
        raise ValueError("--rank must be at least 0, and is needed for a word in no eij")
    if not pairs:
        return GenMap.identity(free_alphabet(n))
    return word_automorphism(w, [epsilon(n, i, j) for i, j in pairs])


def _print_layers(invariants, start: int) -> None:
    """One line per (rank, torsion) layer, numbered from start."""
    for degree, (free, torsion) in enumerate(invariants, start=start):
        line = "degree %d: rank %d" % (degree, free)
        if torsion:
            line += ", torsion " + " x ".join("Z/%d" % t for t in torsion)
        print(line)


def _print_verdicts(pairs, holds: str, fails: str) -> bool:
    """One line per (label, verdict) pair; whether every verdict holds."""
    ok = True
    for label, verdict in pairs:
        print("%s: %s" % (label, holds if verdict else fails))
        ok = ok and verdict
    return ok


# -- subcommand handlers -----------------------------------------------------


def cmd_reduce(args) -> int:
    alphabet = _alphabet_from(args.gens, args.word)
    print(parse_word(args.word, alphabet))
    return 0


def _assignments(specs) -> tuple[list[str], list[str]]:
    """Names and image texts of NAME=WORD assignments, in order."""
    names, images = [], []
    for spec in specs:
        name, sep, image = spec.partition("=")
        if not sep:
            raise ValueError("assignment must be NAME=WORD, got %r" % spec)
        names.append(name.strip())
        images.append(image)
    return names, images


def _substitution_from_args(args) -> tuple[GenMap, Alphabet]:
    if args.rule:
        if args.assign or args.gens or args.target_gens:
            raise ValueError("--rule takes no --assign, --gens or --target-gens")
        f, g = pv3_new_generators()
        genmap = f if args.rule == "old-to-new" else g
        return genmap, genmap.source
    if not args.assign:
        raise ValueError("need --rule or at least one --assign")
    names, images = _assignments(args.assign)
    source = _alphabet_from(args.gens) if args.gens else Alphabet(tuple(names))
    target = _alphabet_from(args.target_gens, *images)
    mapping = {name: parse_word(image, target)
               for name, image in zip(names, images)}
    return GenMap.from_dict(source, target, mapping), source


def cmd_subst(args) -> int:
    genmap, source = _substitution_from_args(args)
    w = parse_word(args.word, source)
    print(genmap(w))
    return 0


def cmd_check_hom(args) -> int:
    pres = _load_presentation(args.presentation)
    if not args.assign:
        raise ValueError("need one --assign NAME=WORD per generator")
    names, images = _assignments(args.assign)
    if tuple(names) != pres.alphabet.names:
        raise ValueError("assignments must cover the generators in order: %s"
                         % " ".join(pres.alphabet.names))
    if args.target:
        target = _load_presentation(args.target)
        target_alphabet = target.alphabet
    else:
        target = None
        target_alphabet = _alphabet_from(args.target_gens, *images)
    mapping = {name: parse_word(image, target_alphabet)
               for name, image in zip(names, images)}
    genmap = GenMap.from_dict(pres.alphabet, target_alphabet, mapping)
    if target is None:
        ok = _print_verdicts((("relator %s" % r, genmap(r).is_identity) for r in pres.relators),
                             "dies", "SURVIVES")
    else:
        ok = True
        for label, res in check_homomorphism_presented(pres, genmap, target, args.search_bounds):
            print("relator %s: %s%s" % (
                label, res.status, " (%s)" % res.detail if res.detail else ""))
            ok = ok and res.status == VERIFIED
    print("homomorphism" if ok else "not a homomorphism (or not certified)")
    return 0 if ok else 1


def cmd_consequence(args) -> int:
    pres = _load_presentation(args.presentation)
    w = parse_word(args.word, pres.alphabet)
    if args.step:
        certificate = _parse_steps(pres, args.step)
        if verify_certificate(pres, w, certificate):
            print("certificate verifies: the product reduces to %s" % w)
            return 0
        print("certificate does not reduce to %s" % w)
        return 1
    res = is_consequence(pres, w, args.search_bounds)
    print(res.status + (": %s" % res.detail if res.detail else ""))
    if res.certificate:
        for step in res.certificate:
            print("  (%s, %d, %+d)" % (step.conjugator, step.relator_index,
                                       step.sign))
    return 0 if res.status == VERIFIED else 1


def cmd_aut(args) -> int:
    from .autf import (
        composition_order_report,
        conjugation,
        hnn_identities,
        mccool_disjoint_commutators,
        mccool_same_target_commutators,
        mccool_triple_relations,
        pv_relators_in_cb,
    )

    if args.action == "compose":
        f = _epsilon_product(args.generator, args.rank)
        w = None if args.apply is None else parse_word(args.apply, f.source)
        for x in f.source.gens():
            print("%s -> %s" % (x, f(x)))
        if w is not None:
            print("%s -> %s" % (w, f(w)))
        return 0
    if args.action == "inner":
        f = _epsilon_product(args.generator, args.rank)
        by = parse_word(args.by, f.source)
        if f == conjugation(by):
            print("conjugation by %s" % by)
            return 0
        print("not conjugation by %s" % by)
        return 1
    if args.action == "mccool":
        if (n := args.rank) < 3:  # no relation family has fewer than three letters
            raise ValueError("--rank must be at least 3, got %d" % n)
        ok = _print_verdicts(mccool_disjoint_commutators(n)
                             + mccool_same_target_commutators(n)
                             + mccool_triple_relations(n)
                             + pv_relators_in_cb(n), "holds", "FAILS")
        print("composition order pinned: %s" % composition_order_report()["pinned"])
        return 0 if ok else 1
    # hnn
    return 0 if _print_verdicts(hnn_identities(), "holds", "FAILS") else 1


def cmd_nq(args) -> int:
    pres = _load_presentation(args.presentation)
    words = [parse_word(text, pres.alphabet) for text in args.image or ()]
    q = nilpotent_quotient(pres, args.class_)
    _print_layers(q.layers, 1)
    for w in words:
        print("%s -> %s" % (w, q.image(w)))
    return 0


def cmd_cohomology(args) -> int:
    from .grcohom import (
        G3_NAMES,
        beer_rank,
        dual_restriction,
        g3_cup,
        g3_ring,
        pv3_ring,
        stability_rank,
    )

    if args.flavour == "beer":
        n = args.strands
        if n < 1:
            raise ValueError("--strands must be at least 1, got %d" % n)
        print(" ".join(str(beer_rank(n, r)) for r in range(n + 1)))
        return 0
    if args.flavour == "wedge":
        for name in G3_NAMES:
            support = dual_restriction(name)
            terms = " + ".join(k for k in support if support[k] == 1)
            print("%s* -> %s" % (name, terms))
        for u, v in combinations(G3_NAMES, 2):
            print("%s* %s* -> %s" % (u, v, g3_cup(u, v)))
        return 0
    top = args.max_degree
    if top < 0:
        raise ValueError("--max-degree must be at least 0, got %d" % top)
    ring = g3_ring() if args.flavour == "g3" else pv3_ring()
    invariants = [ring.invariants(d) for d in range(top + 1)]
    _print_layers(invariants, 0)
    if args.flavour == "pv3":
        closed = tuple(beer_rank(3, r) for r in range(top + 1))
        match = tuple(free for free, _ in invariants) == closed
        print("matches closed form %s: %s" % (closed, "yes" if match else "NO"))
        print("free-factor relation rank: %d" % stability_rank())
        return 0 if match else 1
    return 0


def cmd_lie(args) -> int:
    from .lie import enveloping_invariants, lie_quotient, pbw_coefficients

    top = args.max_degree
    if top < 1:
        raise ValueError("--max-degree must be at least 1, got %d" % top)
    quotient = lie_quotient(_load_presentation(args.presentation or "pv3"))
    if args.action == "dims":
        _print_layers(map(quotient.invariants, range(1, top + 1)), 1)
        return 0
    env = enveloping_invariants(quotient, top)
    if args.action == "env":
        _print_layers(env, 1)
        return 0
    # pbw
    dims = tuple(quotient.invariants(d)[0] for d in range(1, top + 1))
    env_dims = (1,) + tuple(free for free, _ in env)
    predicted = pbw_coefficients(dims, top)
    print("lie dimensions:       %s" % (dims,))
    print("enveloping dimensions: %s" % (env_dims,))
    print("series prediction:     %s" % (predicted,))
    consistent = env_dims == predicted
    print("consistent" if consistent else "INCONSISTENT")
    return 0 if consistent else 1


def cmd_suite(args) -> int:
    from .suite import SuiteOptions, run_suite

    if args.json == "":
        raise ValueError("--json needs a path, or '-' for stdout")
    report = run_suite(SuiteOptions(class_=args.class_, max_degree=args.max_degree,
                                    timings=args.timings))
    if args.json == "-":
        sys.stdout.write(report.to_json())
    else:
        sys.stdout.write(report.render())
        if args.json:
            Path(args.json).write_text(report.to_json())
    return report.exit_code


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pvb3",
        description="Verified computations around a pure virtual braid group "
                    "on three strands: words, presentations, automorphisms, "
                    "nilpotent quotients, cohomology, and the graded Lie ring.")
    sub = parser.add_subparsers(dest="command", required=True)

    bounds = argparse.ArgumentParser(add_help=False)  # the commands that search
    bounds.add_argument("--search-bounds", type=_parse_bounds, default=SearchBounds(),
                        metavar="L,K", help="certificate search bounds: L the insertion depth "
                                            "max_prefix, K the certificate length max_steps "
                                            "(default 8,12)")

    p = sub.add_parser("reduce", help="freely reduce a word")
    p.add_argument("word")
    p.add_argument("--gens", help="comma-separated generator names "
                                  "(default: inferred in order of appearance)")
    p.set_defaults(handler=cmd_reduce)

    p = sub.add_parser("subst", help="apply a generator substitution to a word")
    p.add_argument("word")
    p.add_argument("--rule", choices=("old-to-new", "new-to-old"),
                   help="one of the built-in changes of generators")
    p.add_argument("--assign", action="append", metavar="NAME=WORD",
                   help="image of one generator (repeatable)")
    p.add_argument("--gens", help="source generators, comma separated")
    p.add_argument("--target-gens", help="target generators, comma separated")
    p.set_defaults(handler=cmd_subst)

    p = sub.add_parser("check-hom", parents=[bounds],
                       help="check that generator images kill every relator")
    p.add_argument("presentation", help="file path or built-in name")
    p.add_argument("--assign", action="append", metavar="NAME=WORD")
    p.add_argument("--target", help="target presentation (file or built-in); "
                                    "relator images then get consequence searches")
    p.add_argument("--target-gens", help="free target generators, comma separated")
    p.set_defaults(handler=cmd_check_hom)

    p = sub.add_parser("consequence", parents=[bounds],
                       help="search for or verify a consequence certificate")
    p.add_argument("presentation")
    p.add_argument("word")
    p.add_argument("--step", action="append", metavar="CONJ:INDEX:SIGN",
                   help="certificate step to verify instead of searching "
                        "(conjugator word, 0-based relator index, +1 or -1)")
    p.set_defaults(handler=cmd_consequence)

    p = sub.add_parser("aut", help="basis-conjugating automorphisms")
    auts = p.add_subparsers(dest="action", required=True)
    q = auts.add_parser("compose", help="compose eij generators, print images")
    q.add_argument("generator", nargs="+", metavar="WORD", help="a word in the eij")
    q.add_argument("--rank", type=int, help="ambient free rank (default: largest index)")
    q.add_argument("--apply", metavar="WORD", help="also print the image of WORD")
    q.set_defaults(handler=cmd_aut)
    q = auts.add_parser("inner", help="test a composite for being a conjugation")
    q.add_argument("generator", nargs="+", metavar="WORD", help="a word in the eij")
    q.add_argument("--by", required=True, metavar="WORD")
    q.add_argument("--rank", type=int)
    q.set_defaults(handler=cmd_aut)
    q = auts.add_parser("mccool", help="verify the defining relation families")
    q.add_argument("--rank", type=int, default=3, help="number of letters (default 3)")
    q.set_defaults(handler=cmd_aut)
    q = auts.add_parser("hnn", help="verify the stable-letter identities")
    q.set_defaults(handler=cmd_aut)

    p = sub.add_parser("nq", help="nilpotent quotient of a presentation")
    p.add_argument("presentation")
    p.add_argument("--class", dest="class_", type=int, default=2,
                   help="nilpotency class (default 2)")
    p.add_argument("--image", action="append", metavar="WORD",
                   help="also print the normal form of WORD (repeatable)")
    p.set_defaults(handler=cmd_nq)

    p = sub.add_parser("cohomology", help="cohomology rings and the wedge model")
    p.add_argument("flavour", choices=("g3", "pv3", "wedge", "beer"))
    p.add_argument("--max-degree", type=int, default=3)
    p.add_argument("-n", "--strands", type=int, default=3,
                   help="number of strands for the closed-form row")
    p.set_defaults(handler=cmd_cohomology)

    p = sub.add_parser("lie", help="the graded Lie ring of a presentation's "
                                   "quadratic relations")
    p.add_argument("action", choices=("dims", "env", "pbw"))
    p.add_argument("presentation", nargs="?",
                   help="file path or built-in name (default pv3)")
    p.add_argument("--max-degree", type=int, default=3)
    p.set_defaults(handler=cmd_lie)

    p = sub.add_parser("suite", help="run the ten-check verification battery")
    p.add_argument("--class", dest="class_", type=int, default=3,
                   help="nilpotency class for the main-group checks (default 3)")
    p.add_argument("--max-degree", type=int, default=3,
                   help="top degree for the graded Lie comparison (default 3)")
    p.add_argument("--json", metavar="PATH",
                   help="also write the report as JSON ('-' for stdout only)")
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock times in the output")
    p.set_defaults(handler=cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    except CollectionBudget as err:
        print("unknown: %s" % err, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
