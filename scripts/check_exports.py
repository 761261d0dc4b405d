#!/usr/bin/env python3
"""List the exports of lib/ that no caller outside their own module names.

Every `val` declared in lib/*/*.mli (submodule signatures included) is an
export.  It counts as needed when some file of lib/, bin/, examples/ or
perfbench/ other than its own module's .ml and .mli uses it, outside
comments and string literals: the file writes `M.name`, M being the
export's module or one it is nested in, or the file brings M into scope
(`open M`, `include M`, `M.( ... )`, or an alias `module X = ... M`) and
names `name` as a word.  A common name such as `empty` thus counts only
in a file that names its module.  The scan still over-approximates the
callers (an opened module's `run` is taken as used wherever any `run`
appears), so what it reports is a floor on the unneeded exports.

    scripts/check_exports.py            # gate: fail on names missing from
                                        # scripts/exports_allowlist.txt,
                                        # and on stale allowlist lines
    scripts/check_exports.py --list     # print every unneeded export
    scripts/check_exports.py --options  # print every optional argument
                                        # that no caller outside the
                                        # defining module sets

Each allowlist line is `Module.name reason: KIND: why`, KIND being one of
paper rule, reference oracle, test hook or bench (see the allowlist).
"""
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CALLER_DIRS = ["lib", "bin", "examples", "perfbench"]
ALLOWLIST = os.path.join(ROOT, "scripts", "exports_allowlist.txt")
REASONS = ("paper rule", "reference oracle", "test hook", "bench")
REASON = re.compile(r"reason: (%s): \S" % "|".join(REASONS))
CHAR = re.compile(r"'(?:[^'\\\n]|\\(?:[\\'\"ntbr ]|[0-9]{3}|x[0-9a-fA-F]{2}))'")


def strip(src):
    """Blank out OCaml comments (nested) and string literals."""
    out, i, depth, n = [], 0, 0, len(src)
    while i < n:
        if src.startswith("(*", i):
            depth, i = depth + 1, i + 2
        elif depth and src.startswith("*)", i):
            depth, i = depth - 1, i + 2
        elif depth:
            i += 1
        elif src[i] == '"':
            i += 1
            while i < n and src[i] != '"':
                i += 2 if src[i] == "\\" else 1
            i += 1
            out.append('""')
        elif m := CHAR.match(src, i):
            out.append("' '")
            i = m.end()
        else:
            out.append(src[i])
            i += 1
    return "".join(out)


def sources():
    for d in CALLER_DIRS:
        for base, _, files in os.walk(os.path.join(ROOT, d)):
            for f in files:
                if f.endswith((".ml", ".mli")):
                    path = os.path.join(base, f)
                    with open(path) as fh:
                        yield path, strip(fh.read())


def exports(path, text):
    """(qualified name, name, optional labels) of each val in an .mli.

    The qualified name is the module path, dot-joined, then the name."""
    mod = os.path.basename(path)[:-4].capitalize()
    stack, out = [mod], []
    vals = re.finditer(
        r"\bmodule\s+(?:type\s+)?([A-Z]\w*)\s*:\s*sig\b|\bsig\b|\bend\b"
        r"|\bval\s+([a-z_]\w*'*)\s*:((?:(?!\bval\b|\bend\b|\btype\b"
        r"|\bmodule\b|\bexception\b|\binclude\b).)*)", text, re.S)
    for m in vals:
        if m.group(1):
            stack.append(m.group(1))
        elif m.group(0) == "sig":
            stack.append(None)
        elif m.group(0) == "end":
            if len(stack) > 1:
                stack.pop()
        else:
            qual = ".".join(s for s in stack if s)
            labels = re.findall(r"\?(\w+)\s*:", m.group(3))
            out.append((qual + "." + m.group(2), m.group(2), labels))
    return out


MODULE_PATH = r"(?:[A-Z][\w']*\s*\.\s*)*"


def in_scope(text, mod):
    """Whether [text] brings module [mod] into scope unqualified."""
    return re.search(
        r"\b(?:open!?|include)\s+%(p)s%(m)s\b|\b%(m)s\s*\.\s*\("
        r"|\bmodule\s+[A-Z][\w']*\s*=\s*%(p)s%(m)s\b"
        % {"p": MODULE_PATH, "m": re.escape(mod)}, text) is not None


def scan():
    files = dict(sources())
    words = {p: set(re.findall(r"[A-Za-z_][\w']*", t)) for p, t in files.items()}
    labels = {p: set(re.findall(r"[~?]([a-z_]\w*)", t)) for p, t in files.items()}
    unused, options = [], []

    def uses(p, mods, name):
        if name not in words[p]:
            return False
        text = files[p]
        return any(
            re.search(r"\b%s\s*\.\s*%s\b" % (re.escape(m), re.escape(name)), text)
            or in_scope(text, m)
            for m in mods)

    for path in sorted(files):
        if not (path.endswith(".mli") and os.path.relpath(path, ROOT).startswith("lib" + os.sep)):
            continue
        own = {path, path[:-1]}
        others = [p for p in files if p not in own]
        for qual, name, opts in exports(path, files[path]):
            mods = qual.split(".")[:-1]
            callers = [p for p in others if uses(p, mods, name)]
            if not callers:
                unused.append(qual)
            for o in opts:
                if not any(o in labels[p] for p in callers):
                    options.append(qual + " ?" + o)
    return unused, options


def main():
    unused, options = scan()
    if "--list" in sys.argv:
        print("\n".join(unused))
        print(f"{len(unused)} exports without a caller", file=sys.stderr)
        return 0
    if "--options" in sys.argv:
        print("\n".join(options))
        print(f"{len(options)} optional arguments no caller sets", file=sys.stderr)
        return 0
    allowed, status = {}, 0
    with open(ALLOWLIST) as fh:
        for line in fh:
            if line.strip() and not line.startswith("#"):
                name, _, reason = line.partition(" ")
                if not REASON.match(reason.strip()):
                    print(f"check-exports: {name}: want 'reason: KIND: why', KIND one of {REASONS}")
                    status = 1
                allowed[name] = reason
    for name in unused:
        if name not in allowed:
            print(f"check-exports: {name} has no caller outside its module")
            status = 1
    for name in allowed:
        if name not in unused:
            print(f"check-exports: stale allowlist line {name} (it has a caller now)")
            status = 1
    if status == 0:
        print(f"check-exports: OK ({len(unused)} exports without a caller, all allowlisted)")
    return status


if __name__ == "__main__":
    sys.exit(main())
