"""Command-line interface.

Exit codes: 0 for success or a positive verdict, 1 for a well-formed negative
verdict or structured absence (no morphism, no extension), 2 for parse or
validation errors and violated preconditions, and for an internal invariant
failure (a bug), which is reported with a `bug:` prefix instead of `error:`.
`run_cli` alone decides the code and writes: a handler yields its output in
pieces, and raises any other outcome, a negative verdict as NegativeVerdict.

This module is only the command line: its grammar, `run_cli` and `main`,
and it imports only `errors`.  A run compiles only the code of its command:
every handler is a `_cmd_<command>(args)` of the module it calls
(`dsl` for the commands that run only `core`), imported once the command
line is read.  None may import `countsys.cli`: `python -m` runs this file
as `__main__`, so that import would compile and run it a second time.

The command line is read against one table, `_COMMANDS`, by the grammar
README states: `--auto-core` before the command, then its options, named in
full, and its positionals in any order.
"""

import atexit
import os
import sys as _sys
from importlib import import_module
from itertools import islice
from types import SimpleNamespace

from .errors import (CountingSystemError, InternalInvariantViolation,
                     NegativeVerdict, ParseError)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2

# command: (the module of its handler `_cmd_<command>`, usage); in a usage,
# an option in brackets may be left out, one with "=" takes a value, and a
# word without "-" is a positional; argv is read by README's grammar
_COMMANDS = {
    "validate": ("dsl", "file"),
    "analyze": ("analysis", "[--json] file"),
    "core": ("dsl", "file"),
    "closure": ("closure", "[--full] [--json] file"),
    "add": ("derive", "file"),
    "mul": ("biadd", "[--odot=ODOT] file"),
    "morphism": ("morphisms", "[--relabel=OLD=NEW,...] src dst"),
    "product": ("dsl", "a b"),
    "omega": ("dsl", "file"),
    "free-eval": ("morphisms", "--multiset=LABEL:COUNT,... file"),
    "initial": ("morphisms", "[--json] file"),
    "free-report": ("biadd", "[--json] file"),
}
# before the command; --auto-core replaces a non-minimal input by its core
_GLOBAL = (None, "[--auto-core] COMMAND ...")


class _UsageError(Exception):
    """A command line outside the grammar: (command or "", message)."""


def _usage(command):
    usage = _COMMANDS.get(command, _GLOBAL)[1]
    return f"usage: countsys {command} [-h] {usage}".replace("  ", " ")


def _help(args):
    """The command's usage, or with no command every command's usage."""
    lines = [] if args.command else [
        _usage(c).removeprefix("usage: ") for c in _COMMANDS]
    yield "\n  ".join([_usage(args.command), *lines]) + "\n"


def _parse_args(argv):
    """The namespace for a handler, read from argv; -h or --help before the
    first "--" reads as `_help` whatever else argv holds."""
    end = argv.index("--") if "--" in argv else len(argv)
    if {"-h", "--help"} & set(argv[:end]):
        command = next((t for t in argv[:end] if t in _COMMANDS), "")
        return SimpleNamespace(fn=_help, command=command)
    args = SimpleNamespace(auto_core=False)
    command, takes, required, todo = "", {"--auto-core": False}, {}, []
    tokens = iter(enumerate(argv))
    for i, token in tokens:
        name, eq, value = token.partition("=")
        if i == end:
            continue
        if i < end and token[:1] == "-" != token:  # an option
            if name not in takes or eq and not takes[name]:
                raise _UsageError(command, f"unrecognized arguments: {token}")
            if takes[name] and not eq:  # the next token, whatever it is
                value = next(tokens, (i, None))[1]
                if value is None:
                    raise _UsageError(command, f"{name} takes one value")
            setattr(args, name[2:].replace("-", "_"),
                    value if takes[name] else True)
            required.pop(name, None)
        elif command:
            if not todo:
                raise _UsageError(command, f"unrecognized arguments: {token}")
            setattr(args, todo.pop(0), token)
        elif token in _COMMANDS:
            command, (home, usage) = token, _COMMANDS[token]
            takes = {}
            for word in usage.split():
                name, eq, _ = word.strip("[]").partition("=")
                if name[:2] != "--":
                    todo.append(name)
                    continue
                takes[name] = bool(eq)
                setattr(args, name[2:].replace("-", "_"),
                        None if eq else False)
                if word[0] != "[":
                    required[name] = True
        else:
            raise _UsageError("", f"invalid command {token!r}")
    if not command:
        raise _UsageError("", "missing COMMAND")
    if required or todo:
        raise _UsageError(command, f"missing {', '.join([*required, *todo])}")
    module = import_module(f"{__package__}.{home}")  # once argv is read
    args.fn = getattr(module, "_cmd_" + command.replace("-", "_"))
    return args


def run_cli(argv, out=None, err=None):
    out = out if out is not None else _sys.stdout
    err = err if err is not None else _sys.stderr
    code = EXIT_ERROR  # unless a negative verdict is raised
    try:
        if out is None:  # file descriptor 1 was closed
            raise OSError("no standard output")
        args = _parse_args(argv)
        pieces = args.fn(args)
        while block := list(islice(pieces, 256)):  # 6 MB at 4096 labels a row
            block = "".join(block)  # the pieces freed before the write
            out.write(block)
            del block  # and the text before the next block is read
        out.flush()  # a failed write of the last output is an error too
        return EXIT_OK
    except NegativeVerdict as exc:
        message, code = str(exc), EXIT_NEGATIVE
    except _UsageError as exc:
        command, error = exc.args
        message = f"{_usage(command)}\ncountsys: error: {error}"
    except ParseError as exc:
        message = f"parse error: {exc}"
    except InternalInvariantViolation as exc:
        message = f"bug: {exc}"
    except (CountingSystemError, OSError) as exc:
        message = f"error: {exc}"
    except MemoryError:  # where no declared limit fired first
        message = "error: out of memory"
    try:  # an outcome that cannot be reported exits 2
        err.write(message + "\n")
    except (AttributeError, OSError):  # stderr is None, or failed
        return EXIT_ERROR
    return code


def main():
    """run_cli, the atexit callbacks, a flush of stdout and stderr, and
    os._exit: the interpreter's teardown frees only what the OS reclaims."""
    code = run_cli(_sys.argv[1:])
    atexit._run_exitfuncs()
    for stream in (_sys.stdout, _sys.stderr):
        try:  # what the callbacks wrote; run_cli reported its own failures
            stream.flush()
        except (AttributeError, OSError):  # a stream that is None, or failed
            pass
    os._exit(code)


if __name__ == "__main__":
    main()
