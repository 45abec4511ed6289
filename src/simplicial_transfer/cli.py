"""Command-line drivers for the verification sweeps and table reproduction.

The command line is read against one table, ``COMMANDS``, which is also
the one source of the usage and help text.  Each command has a help line,
its options and its operations (only ``complex`` has any: ``cup`` and
``whitney-check``), which are commands of the same shape.  An option has
a type (``int``, ``str``, ``bool`` for a flag that stores True, or a tuple
of choices), a default or ``REQUIRED`` in its place, and a help line.  The
grammar is argparse's for this table:

* ``simplicial-transfer COMMAND [options]``, and for ``complex``,
  ``complex [options] OPERATION [options]``: each option belongs to the
  command or operation that it follows;
* ``--name value`` or ``--name=value``; a flag takes no value;
* a long option may be shortened to a prefix that names one option of its
  command (``--max-a 3``), and a prefix that names several is an error;
* the last occurrence of an option wins;
* a value may be ``-``, a negative number (``--dim -1``) or a token with
  a space, but no other token that starts with ``-``; ints are read by
  ``int()``, so `` 2`` and ``1_0`` are read as 2 and 10;
* ``--`` ends the options, and no command takes a token after it;
* ``-h`` or ``--help`` prints the help of the command or operation that it
  follows, on stdout, and exits 0, unless an earlier token, or an ambiguous
  prefix anywhere in its command, is an error;
* any other misuse exits 2 with one line ``simplicial-transfer: error: …``
  on stderr; an unknown token is reported once the whole line is read.

Exit codes: 0 when every check passes, 1 on a verification failure, 2 on a
usage or input error, on an exponent too large for a packed form monomial
(``OverflowError``), or when stdout closes before the report is written,
each with one line on stderr.
Reports are deterministic for fixed inputs and flags; JSON carries every
rational as a string.
"""

from __future__ import annotations

import os
import re
import sys
from types import SimpleNamespace

from .complexes import (
    check_whitney_conditions,
    cup,
    cochain_records,
    load_cochain,
    load_complex,
)
from .contraction import check_contraction
from .reporting import dump
from .transfer import (
    SimplexContraction,
    check_a_infinity,
    check_c_infinity,
    check_morphism,
    check_unital,
    interval_product_table,
    p_polynomial_sequence,
)
from .trees import enumerate_trees, tree_count, tree_to_text
from .rationals import rational_str

PASS = 0
FAIL = 1
USAGE = 2

REQUIRED = object()
_FORMAT = {"--format": (("json", "text"), "text", "report format")}

# name: (help line, options, operations); an option is name: (type,
# default, help line), and an operation is a command of the same shape
COMMANDS = {
    "contraction": ("run the contraction identity battery", {
        "--dim": (int, 2, "dimension of the simplex"),
        "--max-poly-degree": (int, 4, "largest polynomial degree of the forms checked"),
        **_FORMAT,
    }, {}),
    "trees": ("enumerate planar trees", {
        "--leaves": (int, REQUIRED, "number of leaves"),
        "--count-only": (bool, False, "print the number of trees only"),
        **_FORMAT,
    }, {}),
    "interval": ("products of t and dt on the interval", {
        "--max-arity": (int, 4, "largest arity of the products"),
        **_FORMAT,
    }, {}),
    "verify": ("structure, morphism, shuffle, unit batteries", {
        "--dim": (int, 2, "dimension of the simplex"),
        "--max-arity": (int, 4, "largest arity of the words checked"),
        "--break-signs": (bool, False, "drop the slotwise signs to demonstrate a failing battery"),
        **_FORMAT,
    }, {}),
    "complex": ("operations on a simplicial complex file", {
        "--file": (str, REQUIRED, "the complex file"),
        **_FORMAT,
    }, {
        "cup": ("product of two cochain files", {
            "--a": (str, REQUIRED, "the left factor's cochain file"),
            "--b": (str, REQUIRED, "the right factor's cochain file"),
        }, {}),
        "whitney-check": ("product condition battery", {}, {}),
    }),
}
_TOP = ("exact verification of the transferred cochain products", {}, COMMANDS)
_HELP = ("-h", "--help")
# the attribute that names the command chosen at each depth
_CHOSEN = ("command", "operation")
# the form of "--" and of every token after it: a positional that is no value
_END = "--"
_METAVARS = {int: "N", str: "FILE"}


def _attribute(option: str) -> str:
    return option[2:].replace("-", "_")


def _choices(names) -> str:
    return "choose from " + ", ".join(map(repr, names))


def _rows(title: str, rows: list[tuple[str, str]]) -> str:
    width = max(len(left) for left, _ in rows) + 2
    return "\n".join([title] + [f"  {left:<{width}}{right}" for left, right in rows])


class CommandLine:
    """argv read against ``COMMANDS`` by the grammar of the module
    docstring; ``error`` is the one exit of a usage error."""

    prog = "simplicial-transfer"

    def error(self, message: str):
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(USAGE)

    def parse_args(self, argv) -> SimpleNamespace:
        values, extras = {}, []
        self._parse(list(argv), _TOP, (), values, extras)
        if extras:
            self.error("unrecognized arguments: " + " ".join(extras))
        return SimpleNamespace(**values)

    def _parse(self, tokens, command, path, values, extras) -> None:
        """Read tokens into values as the command of the table at path: its
        options in order, until the first positional token, which names an
        operation that reads the rest, or, where there is none, joins the
        unknown tokens in extras."""
        _, options, operations = command
        end = tokens.index(_END) if _END in tokens else len(tokens)
        names = (*_HELP, *options)
        forms = [self._form(token, names) for token in tokens[:end]] + [_END] * (len(tokens) - end)
        values.update((_attribute(o), d) for o, (_, d, _) in options.items() if d is not REQUIRED)
        chosen = _CHOSEN[len(path)] if operations else None
        i = 0
        while i < len(tokens):
            token, form = tokens[i], forms[i]
            i += 1
            if form is None or form is _END:
                if not operations:
                    extras.append(token)
                    continue
                if token not in operations:
                    choices = _choices(operations)
                    self.error(f"argument {chosen}: invalid choice: {token!r} ({choices})")
                values[chosen] = token
                self._parse(tokens[i:], operations[token], (*path, token), values, extras)
                break
            option, explicit = form
            if option is None:
                extras.append(token)
            elif option in _HELP:
                # -h may repeat within one token: -hh is -h twice
                cluster = option == "-h" and explicit and not explicit.strip("h")
                if explicit is not None and not cluster:
                    self.error(f"argument -h/--help: ignored explicit argument {explicit!r}")
                print(self._help(command, path))
                raise SystemExit(PASS)
            elif options[option][0] is bool:
                if explicit is not None:
                    self.error(f"argument {option}: ignored explicit argument {explicit!r}")
                values[_attribute(option)] = True
            else:
                if explicit is None:
                    if i == len(tokens) or forms[i] is not None:
                        self.error(f"argument {option}: expected one argument")
                    explicit = tokens[i]
                    i += 1
                values[_attribute(option)] = self._value(option, options[option][0], explicit)
        missing = [option for option in options if _attribute(option) not in values]
        missing += [chosen] if operations and chosen not in values else []
        if missing:
            self.error("the following arguments are required: " + ", ".join(missing))

    def _form(self, token: str, names):
        """None for a positional, or (option, explicit value or None), where
        the option is None for a token of option form that names none."""
        if token[:1] != "-" or token == "-":
            return None
        if token in names:
            return token, None
        name, equals, value = token.partition("=")
        explicit = value if equals else None
        if equals and name in names:
            return name, explicit
        if token[1] == "-":
            matches = [option for option in names if option.startswith(name)]
            if len(matches) > 1:
                self.error(f"ambiguous option: {token} could match {', '.join(matches)}")
            if matches:
                return matches[0], explicit
        elif token[1] == "h":
            return "-h", token[2:]
        if re.match(r"^-\d+$|^-\d*\.\d+$", token) or " " in token:
            return None
        return None, None

    def _value(self, option: str, kind, text: str):
        if kind is int:
            try:
                return int(text)
            except ValueError:
                self.error(f"argument {option}: invalid int value: {text!r}")
        if kind is not str and text not in kind:
            self.error(f"argument {option}: invalid choice: {text!r} ({_choices(kind)})")
        return text

    def _help(self, command, path) -> str:
        text, options, operations = command
        usage = [f"usage: {self.prog}", *path, "[-h]"]
        rows = [("-h, --help", "show this help message and exit")]
        for option, (kind, default, line) in options.items():
            if kind is bool:
                usage.append(f"[{option}]")
                rows.append((option, line))
                continue
            metavar = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else _METAVARS[kind]
            given = f"{option} {metavar}"
            required = default is REQUIRED
            usage.append(given if required else f"[{given}]")
            rows.append((given, f"{line} ({'required' if required else f'default: {default}'})"))
        sections = [" ".join(usage), text]
        if operations:
            chosen = _CHOSEN[len(path)]
            sections[0] += f" {chosen.upper()} ..."
            listed = [(name, operation[0]) for name, operation in operations.items()]
            sections.append(_rows(f"{chosen}s:", listed))
        sections.append(_rows("options:", rows))
        return "\n\n".join(sections)


def _print_json(obj, sort_keys: bool = True) -> None:
    dump(obj, sys.stdout.write, sort_keys)
    print()


def _emit(report, fmt: str) -> None:
    if fmt == "json":
        _print_json(report.to_json_dict())
    else:
        print(report.to_text())


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def cmd_contraction(args, parser) -> int:
    if args.dim < 0 or args.max_poly_degree < 1:
        parser.error("need --dim >= 0 and --max-poly-degree >= 1")
    report = check_contraction(args.dim, args.max_poly_degree)
    _emit(report, args.format)
    return PASS if report.all_passed else FAIL


def cmd_trees(args, parser) -> int:
    if args.leaves < 1:
        parser.error("need --leaves >= 1")
    if args.count_only:
        print(tree_count(args.leaves))
        return PASS
    trees = enumerate_trees(args.leaves)
    encodings = [tree_to_text(t) for t in trees]
    if args.format == "json":
        _print_json({"leaves": args.leaves, "count": len(trees), "trees": encodings}, False)
    else:
        for line in encodings:
            print(line)
    return PASS


def _interval_poly_text(p) -> str:
    # the sha256 pins of the interval JSON fix this text, old type name and all
    terms = sorted((exps[0], c) for (exps, _), c in p.terms.items())
    text = " + ".join(
        rational_str(c) + ("" if k == 0 else "*t" if k == 1 else f"*t^{k}") for k, c in terms
    )
    return f"UniPoly({text})"


def cmd_interval(args, parser) -> int:
    if args.max_arity < 2:
        parser.error("need --max-arity >= 2")
    table = interval_product_table(args.max_arity)
    polys = p_polynomial_sequence(max(2, args.max_arity - 1))
    closed_form = polys.matches_closed_form()
    ok = table.all_passed and closed_form and polys.integral_identities()
    if args.format == "json":
        payload = table.to_json_dict()
        payload["recursion_polynomials"] = [_interval_poly_text(p) for p in polys.polys]
        payload["recursion_matches_closed_form"] = closed_form
        payload["signed_integrals"] = [rational_str(b) for b in polys.integrals]
        _print_json(payload)
    else:
        table.write_text(sys.stdout.write)
        print("\n")
        print("recursion polynomials match the Bernoulli closed form:", closed_form)
        print("signed integrals:", ", ".join(rational_str(b) for b in polys.integrals))
    return PASS if ok else FAIL


def cmd_verify(args, parser) -> int:
    if args.dim < 0 or args.max_arity < 1:
        parser.error("need --dim >= 0 and --max-arity >= 1")
    bundle = SimplexContraction(args.dim, koszul_signs=not args.break_signs)
    reports = [
        check_a_infinity(bundle, args.max_arity),
        check_morphism(bundle, args.max_arity),
        check_c_infinity(bundle, args.max_arity),
        check_unital(bundle, args.max_arity),
    ]
    ok = all(r.all_passed for r in reports)
    if args.format == "json":
        _print_json({"all_passed": ok, "reports": [r.to_json_dict() for r in reports]})
    else:
        for r in reports:
            print(r.to_text())
            print()
        print("overall:", "pass" if ok else "FAIL")
    return PASS if ok else FAIL


def _load(kind: str, load, path: str, *args):
    """load(text of the file at path, *args), or None after one line on
    stderr: an OSError cannot read the file, a ValueError (a
    ComplexFormatError or a UnicodeDecodeError) is a bad file."""
    try:
        return load(_read(path), *args)
    except OSError as exc:
        print(f"cannot read {kind} file: {exc}", file=sys.stderr)
    except ValueError as exc:
        print(f"bad {kind} file: {exc}", file=sys.stderr)
    return None


def cmd_complex(args, parser) -> int:
    complex_ = _load("complex", load_complex, args.file)
    if complex_ is None:
        return USAGE

    if args.operation == "cup":
        a = _load("cochain", load_cochain, args.a, complex_)
        if a is None:
            return USAGE
        b = _load("cochain", load_cochain, args.b, complex_)
        if b is None:
            return USAGE
        result = cup(a, b)
        if args.format == "json":
            _print_json(cochain_records(result), False)
        else:
            for entry in cochain_records(result)["entries"]:
                print(f"simplex={entry['simplex']} coeff={entry['coeff']}")
            if not result:
                print("0")
        return PASS

    report = check_whitney_conditions(complex_)
    _emit(report, args.format)
    return PASS if report.all_passed else FAIL


def main(argv=None) -> int:
    parser = CommandLine()
    args = parser.parse_args(sys.argv[1:] if argv is None else argv)
    handlers = {
        "contraction": cmd_contraction,
        "trees": cmd_trees,
        "interval": cmd_interval,
        "verify": cmd_verify,
        "complex": cmd_complex,
    }
    try:
        code = handlers[args.command](args, parser)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left; route the rest of stdout to devnull so the flush
        # at interpreter exit has nothing to complain about
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("stdout was closed before the report was written", file=sys.stderr)
        return USAGE
    except OverflowError as exc:
        print(f"simplicial-transfer: error: {exc}", file=sys.stderr)
        return USAGE
    return code


if __name__ == "__main__":
    raise SystemExit(main())
