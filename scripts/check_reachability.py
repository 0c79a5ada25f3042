#!/usr/bin/env python3
"""Fails when a library `pub fn` has no caller outside its own crate.

    python3 scripts/check_reachability.py

Copies the workspace into a temporary directory (the checked tree is never
edited) and, in the copy:

1. narrows every `pub fn` of the five library crates and of
   crates/bench/src/lib.rs to `pub(crate) fn`;
2. runs `cargo check --workspace --all-targets` and, for every privacy
   error (E0603, E0624), restores `pub` on the definition that rustc names
   as "defined here"; repeats until the workspace builds;
3. reads the `dead_code` warnings of the non-test library builds.

Whatever those warnings name is reached by nothing but its own crate's
tests: no engine, experiment, example, bench, integration test or e2e
workload calls it. Each is printed and the script exits 1.

A `pub use` is no evidence of reach: when a narrowed function is
re-exported (E0364), the copy moves it out of the `pub use` into a
`pub(crate) use`, so only a caller outside the crate, through either
path, makes it public again.

One exception: an `is_empty` whose impl keeps a reached `pub fn len`.
Clippy's `len_without_is_empty` wants the pair, so it stays.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIB_CRATES = ["archive", "core", "models", "index", "progressive"]
LIB_PACKAGES = ["mbir-" + c for c in LIB_CRATES] + ["mbir-bench"]
PRIVACY_ERRORS = {"E0603", "E0624"}


def narrowed_files(ws):
    files = [p for c in LIB_CRATES for p in sorted((ws / "crates" / c / "src").rglob("*.rs"))]
    return files + [ws / "crates/bench/src/lib.rs"]


def cargo(ws, *args):
    env = dict(os.environ, CARGO_TARGET_DIR=str(ws / "target"), CARGO_TERM_COLOR="never")
    env.pop("RUSTFLAGS", None)
    out = subprocess.run(
        ["cargo", "check", "--quiet", "--message-format=json", *args],
        cwd=ws, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, check=False,
    )
    msgs = {}
    for line in out.stdout.splitlines():
        rec = json.loads(line)
        if rec.get("reason") == "compiler-message":
            msg = rec["message"]
            # The lib and its test build report the same error twice.
            first = msg["spans"][0] if msg["spans"] else {}
            key = (msg["message"], first.get("file_name"), first.get("byte_start"))
            msgs.setdefault(key, msg)
    if out.returncode != 0 and not any(m["level"] == "error" for m in msgs.values()):
        sys.exit(f"cargo check failed without a compiler error:\n{out.stderr.decode()}")
    return [msgs[k] for k in sorted(msgs, key=str)]


def fail(msg, why):
    sys.exit(f"{why}:\n{msg.get('rendered') or msg['message']}")


def module_file(path, module):
    """The file of the module `module` (a `a::b` path) named from `path`."""
    if path.name in ("lib.rs", "mod.rs"):
        base = path.parent
    else:
        base = path.parent / path.stem
    for seg in module.split("::"):
        candidates = [base / (seg + ".rs"), base / seg / "mod.rs"]
        found = [c for c in candidates if c.exists()]
        if not found:
            return None
        path, base = found[0], found[0].parent if found[0].name == "mod.rs" else base / seg
    return path


class Copy:
    """The narrowed copy of the workspace and the edits made to it."""

    def __init__(self, ws):
        self.ws = ws
        self.files = {p.relative_to(ws).as_posix(): p for p in narrowed_files(ws)}
        for p in self.files.values():
            text = p.read_text()
            p.write_text(re.sub(r"^(\s*)pub fn\b", r"\1pub(crate) fn", text, flags=re.M))

    def edits(self, errors):
        """Maps each narrowed file to its byte edits and restored lines."""
        byte_edits, lines = {}, {}
        for msg in errors:
            code = (msg.get("code") or {}).get("code")
            if code == "E0364":
                span = next(s for s in msg["spans"] if s["is_primary"])
                byte_edits.setdefault(span["file_name"], set()).add(("narrow_use", span["byte_start"], span["byte_end"]))
                continue
            if code not in PRIVACY_ERRORS:
                # Often a knock-on error of a privacy error (a failed method
                # call leaves a type unknown); main fails if it outlives them.
                continue
            spans = [s for s in msg["spans"] if not s["is_primary"] and "defined here" in (s["label"] or "")]
            spans += [s for c in msg["children"] if "defined here" in c["message"] for s in c["spans"]]
            spans = [s for s in spans if s["file_name"] in self.files]
            if not spans:
                fail(msg, "privacy error with no narrowed definition")
            for s in spans:
                path = self.files[s["file_name"]]
                before = path.read_bytes()[: s["byte_start"]]
                if before.endswith(b"pub(crate) use "):
                    byte_edits.setdefault(s["file_name"], set()).add(("restore_use", s["byte_start"], s["byte_end"]))
                else:
                    lines.setdefault(s["file_name"], set()).add(s["line_start"])
        return byte_edits, lines

    def narrow_use(self, text, start, end):
        """Moves the re-exported name at text[start:end] into a `pub(crate) use`."""
        stmt = text.rfind(b"pub use ", 0, start)
        semi = text.index(b";", end)
        head = text[stmt + len(b"pub use ") : start]
        if b";" in head or head.count(b"{") > 1:
            sys.exit(f"cannot narrow the re-export at byte {start}: {text[stmt:semi + 1].decode()}")
        if b"{" not in head:
            return text[:stmt] + b"pub(crate) use " + text[stmt + len(b"pub use ") :]
        path = head[: head.index(b"{")] + text[start:end]
        cut_from, cut_to = start, end
        while text[cut_to : cut_to + 1] == b" ":
            cut_to += 1
        if text[cut_to : cut_to + 1] == b",":
            cut_to += 1
            while text[cut_to : cut_to + 1] == b" ":
                cut_to += 1
        else:
            while text[cut_from - 1 : cut_from] == b" ":
                cut_from -= 1
            if text[cut_from - 1 : cut_from] == b",":
                cut_from -= 1
        semi -= cut_to - cut_from
        text = text[:cut_from] + text[cut_to:]
        return text[: semi + 1] + b" pub(crate) use " + path + b";" + text[semi + 1 :]

    def restore_use(self, rel, text, start, end):
        """Makes a narrowed re-export public again, and the function it names."""
        module, _, name = text[start:end].decode().rpartition("::")
        target = module_file(self.files[rel], module) if module else None
        if target is None:
            sys.exit(f"{rel}: cannot find the module of the re-export {text[start:end].decode()}")
        self.restore_fn(target, name)
        prefix = b"pub(crate) use "
        return text[: start - len(prefix)] + b"pub use " + text[start:]

    def restore_fn(self, path, name):
        text = path.read_text()
        new, n = re.subn(rf"^pub\(crate\) fn {name}\b", f"pub fn {name}", text, count=1, flags=re.M)
        if n != 1:
            sys.exit(f"{path.relative_to(self.ws)}: no narrowed top-level fn {name}")
        path.write_text(new)

    def apply(self, byte_edits, lines):
        for rel in sorted(byte_edits):
            path = self.files[rel]
            text = path.read_bytes()
            for kind, start, end in sorted(byte_edits[rel], key=lambda e: -e[1]):
                if kind == "narrow_use":
                    text = self.narrow_use(text, start, end)
                else:
                    text = self.restore_use(rel, text, start, end)
            path.write_bytes(text)
        for rel in sorted(lines):
            path = self.files[rel]
            text = path.read_text().split("\n")
            for line in sorted(lines[rel]):
                if "pub(crate) fn" not in text[line - 1]:
                    sys.exit(f"{rel}:{line}: rustc names no narrowed fn here: {text[line - 1]}")
                text[line - 1] = text[line - 1].replace("pub(crate) fn", "pub fn", 1)
            path.write_text("\n".join(text))

    def kept_pair(self, rel, line, unreached):
        """True if the `is_empty` at rel:line sits in an impl whose `len` is reached."""
        text = self.files[rel].read_text().split("\n")
        first = next(i for i in range(line - 1, -1, -1) if text[i].startswith("impl"))
        last = next(i for i in range(line - 1, len(text)) if text[i].startswith("}"))
        lens = [i + 1 for i in range(first, last) if re.match(r"\s*pub(\(crate\))? fn len\(", text[i])]
        return any((rel, n, "len") not in unreached for n in lens)


def main():
    with tempfile.TemporaryDirectory(prefix="mbir-reach-") as tmp:
        ws = Path(tmp) / "ws"
        shutil.copytree(ROOT, ws, ignore=shutil.ignore_patterns("target", ".git"))
        copy = Copy(ws)
        while True:
            errors = [m for m in cargo(ws, "--workspace", "--all-targets") if m["level"] == "error"]
            if not errors:
                break
            byte_edits, lines = copy.edits(errors)
            if not byte_edits and not lines:
                fail(errors[0], "error other than a privacy error in the narrowed copy")
            copy.apply(byte_edits, lines)
        pkgs = [a for p in LIB_PACKAGES for a in ("-p", p)]
        unreached = set()
        for msg in cargo(ws, *pkgs, "--lib"):
            if (msg.get("code") or {}).get("code") != "dead_code":
                continue
            for s in msg["spans"]:
                if not s["is_primary"] or s["file_name"] not in copy.files:
                    continue
                name = s["text"][0]["text"][s["text"][0]["highlight_start"] - 1 : s["text"][0]["highlight_end"] - 1]
                unreached.add((s["file_name"], s["line_start"], name))
        unreached = {u for u in unreached if u[2] != "is_empty" or not copy.kept_pair(*u[:2], unreached)}
        for rel, line, name in sorted(unreached):
            print(f"unreached: {rel}:{line}: {name}")
        print(f"unreached items: {len(unreached)}")
        return 1 if unreached else 0


if __name__ == "__main__":
    sys.exit(main())
