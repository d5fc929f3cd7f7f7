#!/usr/bin/env python3
"""Repo lint: enforces cubist source conventions that compilers can't.

Checked over src/ (the library proper — bench/, examples/ and tests/ are
deliberately looser):

  1. Every header starts with a `//` doc comment and contains `#pragma once`.
  2. No naked `throw` statements.  Failures must go through the error
     macros so they carry file/line context and a message:
       * CUBIST_CHECK   — precondition on caller-supplied input
                          (throws InvalidArgument),
       * CUBIST_ASSERT  — internal invariant (throws InternalError),
       * CUBIST_DCHECK  — debug-only invariant.
     Allowlisted: src/common/error.cpp (the macros' own implementation)
     and `throw AbortedError()` (the cooperative-shutdown signal that the
     minimpi runtime throws from blocked calls when a peer aborts).
  3. No raw `assert(` / `<cassert>` — raw asserts vanish under NDEBUG and
     kill the whole process under a debug build; CUBIST_* macros throw,
     which minimpi converts into single-rank failure + group abort.
  4. Every CUBIST_CHECK / CUBIST_ASSERT / CUBIST_DCHECK carries a message
     operand (a bare condition gives useless diagnostics).
  5. No file-scope `using namespace` in src/.
  6. No direct message-channel traffic (`.receive(` / `.deliver(`)
     outside src/minimpi/comm.cpp and the transport
     (src/minimpi/transport.cpp).  Comm's primitives are the single choke
     point that stamps virtual-clock arrival times and records the event
     trace — the run's one comm record, from which its volume is derived
     and which the driver's post-run audit compares with the certified
     plan; a bypass would leave messages unmeasured and runs unauditable.
  7. No `std::chrono` (or `<chrono>` include) outside src/obs/ and
     src/common/timer.h.  Instrumented modules must take time through
     Timer or the obs tracer so every measurement shares one clock
     (steady_clock) and the disabled-tracer overhead contract stays
     auditable; scattered ad-hoc clocks are how double-timing and
     mixed-epoch timestamps creep in.
  8. No call to the scan kernels (`aggregate_children(`) or the tree walk
     (`TreeWalk`, `walk_tree(`) in the oracle (src/core/verify.cpp).
     The reference cube computes each view as its own GROUP BY over the
     root's non-empty cells, and the consistency check sums its parents
     cell by cell, so that neither shares code with the engine they
     check.
  9. No `const_cast` in src/.  Shared SparseArray chunks, served
     PartialCube generations and cached QueryResults are read from many
     threads without locks; that is only safe while nothing writes
     through a const handle.
 10. No Comm point-to-point call (`send_bytes(` / `send_values(` /
     `recv_bytes(` / `recv_values(`) in src/ outside src/minimpi/ and
     src/core/parallel_builder.cpp.  That file is the one rank program
     build_comm_plan mirrors, so every message the library sends is in
     the certified plan; a second message path beside it would run
     unverified and fail the post-run trace audit.
 11. No `record_event(` in src/ outside src/minimpi/comm.cpp (Comm's
     event-record choke point) and its definition in
     src/minimpi/runtime_state.h.  The event trace is the run's one comm
     record: the volume report is derived from it and the post-run audit
     compares it with the certified plan, so a second writer would put
     events no plan holds into both.
 12. No assignment to `match_seq` or `operand_seq` in src/ outside
     src/minimpi/comm.cpp (the run's links) and the replay
     (src/minimpi/event_trace.{h,cpp}, the static ones).  A receive takes
     the head of its channel by one rule, written once: the tuner, the
     verifier and the audit all link events through `replay`, so a
     fourth matcher beside it could drift from the transport unseen.

Usage:  python3 tools/lint.py  [--root REPO_ROOT]  [--self-test]  [FILE ...]
With FILE arguments only those files are linted; naming a file that is
unreadable or not a .h/.cpp source is itself an error (exit 2).
--self-test lints synthetic sources that must (and must not) trip the
boundary rules (6-12), proving the rules still fire.
Exit status 0 = clean, 1 = violations (printed one per line), 2 = bad
invocation.
"""

import argparse
import pathlib
import re
import sys

NAKED_THROW_ALLOWED_FILES = {"src/common/error.cpp"}
ALLOWED_THROW = re.compile(r"throw\s+AbortedError\s*\(\s*\)")
THROW = re.compile(r"(?<![\w_])throw(?![\w_])")
MACRO_CALL = re.compile(r"CUBIST_(?:CHECK|ASSERT|DCHECK)\s*\(")
CHANNEL_CALL_ALLOWED_FILES = {
    "src/minimpi/comm.cpp",
    "src/minimpi/transport.cpp",
}
CHANNEL_CALL = re.compile(r"(?:\.|->)\s*(?:receive|deliver)\s*\(")
CHRONO_ALLOWED_FILES = {"src/common/timer.h"}
CHRONO_ALLOWED_PREFIX = "src/obs/"
CHRONO_USE = re.compile(r"(?<![\w_])std\s*::\s*chrono(?![\w_])")
CHRONO_INCLUDE = re.compile(r"#\s*include\s*<chrono>")
ORACLE_FILE = "src/core/verify.cpp"
ENGINE_USE = re.compile(
    r"(?<![\w_])(?:aggregate_children\s*\(|TreeWalk(?![\w_])|walk_tree\s*\()")
CONST_CAST = re.compile(r"(?<![\w_])const_cast\s*<")
POINT_TO_POINT_ALLOWED_FILES = {"src/core/parallel_builder.cpp"}
POINT_TO_POINT_ALLOWED_PREFIX = "src/minimpi/"
POINT_TO_POINT_CALL = re.compile(
    r"(?<![\w_])(?:send_bytes|send_values|recv_bytes|recv_values)\s*\(")
RECORD_EVENT_ALLOWED_FILES = {
    "src/minimpi/comm.cpp",
    "src/minimpi/runtime_state.h",
}
RECORD_EVENT_CALL = re.compile(r"(?<![\w_])record_event\s*\(")
LINK_ASSIGN_ALLOWED_FILES = {
    "src/minimpi/comm.cpp",
    "src/minimpi/event_trace.h",
    "src/minimpi/event_trace.cpp",
}
LINK_ASSIGN = re.compile(r"(?<![\w_])(?:match_seq|operand_seq)\s*=(?!=)")


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literals, preserving newlines.

    Keeps byte offsets line-stable so violation line numbers stay accurate.
    """
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and nxt == "*":
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 2
        elif c in "\"'":
            quote = c
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    i += 1
                i += 1
            i += 1
            out.append(quote + quote)
        else:
            out.append(c)
            i += 1
    return "".join(out)


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def check_macro_messages(rel: str, code: str, problems: list) -> None:
    for match in MACRO_CALL.finditer(code):
        i = match.end()
        depth = 1
        has_message = False
        while i < len(code) and depth > 0:
            c = code[i]
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
            elif c == "," and depth == 1:
                has_message = True
            i += 1
        if not has_message:
            problems.append(
                f"{rel}:{line_of(code, match.start())}: "
                f"{match.group(0).rstrip('(').strip()} without a message "
                "operand — explain what went wrong")


def lint_file(path: pathlib.Path, rel: str, problems: list) -> None:
    text = path.read_text()
    code = strip_comments_and_strings(text)

    if rel.endswith(".h"):
        if not text.startswith("//"):
            problems.append(
                f"{rel}:1: header must start with a `//` doc comment")
        if "#pragma once" not in text:
            problems.append(f"{rel}:1: header missing `#pragma once`")

    if rel not in NAKED_THROW_ALLOWED_FILES:
        allowed_spans = [m.span() for m in ALLOWED_THROW.finditer(code)]
        for match in THROW.finditer(code):
            if any(a <= match.start() < b for a, b in allowed_spans):
                continue
            problems.append(
                f"{rel}:{line_of(code, match.start())}: naked `throw` — use "
                "CUBIST_CHECK (precondition) or CUBIST_ASSERT (invariant)")

    for match in re.finditer(r"(?<![\w_])assert\s*\(", code):
        problems.append(
            f"{rel}:{line_of(code, match.start())}: raw `assert(` — use "
            "CUBIST_ASSERT / CUBIST_DCHECK (raw asserts vanish under NDEBUG)")
    for match in re.finditer(r"#\s*include\s*<cassert>", code):
        problems.append(
            f"{rel}:{line_of(code, match.start())}: `<cassert>` include — "
            "use common/error.h macros instead")

    for match in re.finditer(r"^\s*using\s+namespace\b", code, re.MULTILINE):
        problems.append(
            f"{rel}:{line_of(code, match.start())}: file-scope "
            "`using namespace` in library code")

    if rel not in CHANNEL_CALL_ALLOWED_FILES:
        for match in CHANNEL_CALL.finditer(code):
            problems.append(
                f"{rel}:{line_of(code, match.start())}: direct message-"
                "channel traffic outside src/minimpi/comm.cpp and the "
                "transport — go through Comm's primitives so arrival "
                "clocks and the event trace stay complete")

    if (rel.startswith("src/") and rel not in CHRONO_ALLOWED_FILES
            and not rel.startswith(CHRONO_ALLOWED_PREFIX)):
        for pattern in (CHRONO_USE, CHRONO_INCLUDE):
            for match in pattern.finditer(code):
                problems.append(
                    f"{rel}:{line_of(code, match.start())}: `std::chrono` "
                    "outside src/obs/ and src/common/timer.h — time through "
                    "Timer or the obs tracer so all measurements share one "
                    "clock and the overhead contract stays auditable")

    if rel == ORACLE_FILE:
        for match in ENGINE_USE.finditer(code):
            problems.append(
                f"{rel}:{line_of(code, match.start())}: the engine's scan "
                "kernels or tree walk in the oracle — the reference cube "
                "shares no code with the engine it checks")

    if rel.startswith("src/"):
        for match in CONST_CAST.finditer(code):
            problems.append(
                f"{rel}:{line_of(code, match.start())}: `const_cast` — "
                "shared chunks, served generations and cached results are "
                "read without locks; never write through a const handle")

    if (rel.startswith("src/") and rel not in POINT_TO_POINT_ALLOWED_FILES
            and not rel.startswith(POINT_TO_POINT_ALLOWED_PREFIX)):
        for match in POINT_TO_POINT_CALL.finditer(code):
            problems.append(
                f"{rel}:{line_of(code, match.start())}: Comm point-to-point "
                "call outside src/minimpi/ and the rank program "
                "(src/core/parallel_builder.cpp) — every message must be "
                "one build_comm_plan certifies")

    if rel.startswith("src/") and rel not in RECORD_EVENT_ALLOWED_FILES:
        for match in RECORD_EVENT_CALL.finditer(code):
            problems.append(
                f"{rel}:{line_of(code, match.start())}: `record_event(` "
                "outside src/minimpi/comm.cpp — the event trace is the "
                "run's one comm record; record through Comm's primitives")

    if rel.startswith("src/") and rel not in LINK_ASSIGN_ALLOWED_FILES:
        for match in LINK_ASSIGN.finditer(code):
            problems.append(
                f"{rel}:{line_of(code, match.start())}: event link assigned "
                "outside src/minimpi/comm.cpp and the replay — link planned "
                "events through `replay` (minimpi/event_trace.h)")

    check_macro_messages(rel, code, problems)


def self_test() -> int:
    """Lints synthetic sources that must (and must not) trip the boundary
    rules. Returns 0 when every expectation holds."""
    import tempfile

    cases = [
        # (rel name to lint under, source, substring expected in a problem
        #  or None when the file must lint clean)
        ("src/core/rogue2.cpp",
         "void f() { box.deliver(0, 1, m); }\n",
         "direct message-channel traffic"),
        ("src/minimpi/comm.cpp",
         "void f() { t.receive(rank, src, tag); }\n",
         None),
        ("src/core/rogue3.cpp",
         "Message m = transport->receive(rank, src, tag);\n",
         "direct message-channel traffic"),
        # Comments and strings must not trip the channel rule.
        ("src/core/commented.cpp",
         "// box.deliver(0, 1, m) is banned here\n"
         "const char* s = \"t.receive(rank, src, tag)\";\n",
         None),
        # Ad-hoc clocks are confined to the obs layer and Timer.
        ("src/core/rogue_clock.cpp",
         "auto t = std::chrono::steady_clock::now();\n",
         "`std::chrono` outside src/obs/"),
        ("src/serving/rogue_include.cpp",
         "#include <chrono>\n",
         "`std::chrono` outside src/obs/"),
        ("src/obs/trace_extra.cpp",
         "auto t = std::chrono::steady_clock::now();\n",
         None),
        ("src/common/timer.h",
         "// Timer.\n#pragma once\n#include <chrono>\n",
         None),
        ("src/core/chrono_comment.cpp",
         "// std::chrono is banned outside src/obs/ and timer.h\n",
         None),
        # The oracle shares no code with the engine: no scan kernel and no
        # tree walk in it. Mentions in comments and strings, names that
        # merely contain them, and the engine's own files stay clean.
        ("src/core/verify.cpp",
         "void f() { aggregate_children(parent, std::span(&t, 1)); }\n",
         "the engine's scan kernels or tree walk in the oracle"),
        ("src/core/verify.cpp",
         "TreeWalk<> walk(tree, views, op, {});\n"
         "void g() { walk_tree(tree, tree.root(), visit); }\n",
         "the engine's scan kernels or tree walk in the oracle"),
        ("src/core/verify.cpp",
         "// aggregate_children(parent, targets) is the engine's scan\n"
         "const char* s = \"TreeWalk walk_tree(tree\";\n"
         "int my_aggregate_children(int); bool TreeWalker = true;\n",
         None),
        ("src/core/partial_cube.cpp",
         "auto s = aggregate_children(view, std::span(&t, 1));\n",
         None),
        # Nothing writes through a const handle; the word in a comment or
        # inside an identifier is fine.
        ("src/array/rogue_cast.cpp",
         "void f(const Chunk* c) { const_cast<Chunk*>(c)->values.clear(); }\n",
         "`const_cast`"),
        ("src/io/rogue_cast_spaced.cpp",
         "auto* p = const_cast <int*>(q);\n",
         "`const_cast`"),
        ("src/array/cast_comment.cpp",
         "// never const_cast<Chunk*> a shared chunk\n"
         "int no_const_cast_here = 0; bool my_const_cast(int);\n",
         None),
        # Messages leave a rank only from the certified rank program and
        # the runtime itself.
        ("src/core/parallel_driver.cpp",
         "void f(Comm& comm) { comm.send_values(0, tag, block); }\n",
         "Comm point-to-point call outside src/minimpi/"),
        ("src/core/parallel_driver.cpp",
         "auto b = comm.recv_bytes(src, kGatherTagBase | mask);\n",
         "Comm point-to-point call outside src/minimpi/"),
        ("src/core/parallel_builder.cpp",
         "void f(Comm& comm) {\n  comm.send_values(0, tag, block);\n"
         "  auto b = comm.recv_bytes(src, tag);\n}\n",
         None),
        ("src/minimpi/runtime.cpp",
         "void f(Comm& comm) { comm.send_bytes(1, tag, payload); }\n",
         None),
        ("src/core/p2p_comment.cpp",
         "// comm.send_values(0, tag, block) happens in parallel_builder\n"
         "int resend_values(int); auto r = my_recv_bytes(3);\n",
         None),
        # The event trace has one writer: Comm's choke point (and the
        # definition it calls).
        ("src/core/rogue_record.cpp",
         "void f(RuntimeState& s, const TraceEvent& e) {\n"
         "  s.record_event(0, e);\n}\n",
         "`record_event(` outside src/minimpi/comm.cpp"),
        ("src/minimpi/runtime.cpp",
         "auto seq = state.record_event (rank, event);\n",
         "`record_event(` outside src/minimpi/comm.cpp"),
        ("src/minimpi/comm.cpp",
         "std::uint64_t Comm::trace(const TraceEvent& e) {\n"
         "  return state_.record_event(rank_, e);\n}\n",
         None),
        ("src/minimpi/runtime_state.h",
         "// RuntimeState.\n#pragma once\n"
         "std::uint64_t record_event(int rank, const TraceEvent& event);\n",
         None),
        ("src/core/record_comment.cpp",
         "// state.record_event(rank, e) happens in comm.cpp only\n"
         "const char* s = \"record_event(\";\n"
         "int re_record_event(int); auto n = record_events(3);\n",
         None),
        # Events are linked in one place: the run's choke point and the
        # replay. Reading or comparing a link is fine anywhere.
        ("src/analysis/rogue_matcher.cpp",
         "void f(TraceEvent& op, std::uint64_t last_recv) {\n"
         "  op.operand_seq = last_recv;\n}\n",
         "event link assigned outside src/minimpi/comm.cpp"),
        ("src/analysis/schedule_verifier.cpp",
         "bool f(const TraceEvent& e, std::uint64_t i) {\n"
         "  int my_match_seq = 0;\n"
         "  return e.match_seq == i || e.operand_seq != i ||\n"
         "         my_match_seq <= 1;\n}\n",
         None),
    ]
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for index, (rel, source, expected) in enumerate(cases):
            path = pathlib.Path(tmp) / f"case_{index}.cpp"
            path.write_text(source)
            problems = []
            lint_file(path, rel, problems)
            if expected is None:
                if problems:
                    failures.append(
                        f"case {index} ({rel}): expected clean, got "
                        f"{problems}")
            elif not any(expected in p for p in problems):
                failures.append(
                    f"case {index} ({rel}): expected a problem containing "
                    f"{expected!r}, got {problems}")
    for failure in failures:
        print(f"lint --self-test: {failure}", file=sys.stderr)
    print(f"lint --self-test: {len(cases)} cases, "
          f"{len(failures)} failure(s)", file=sys.stderr)
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of this script)")
    parser.add_argument("--self-test", action="store_true",
                        help="prove the boundary rules fire on synthetic "
                             "violations")
    parser.add_argument("files", nargs="*",
                        help="lint only these files (default: all of src/)")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    root = (pathlib.Path(args.root).resolve() if args.root
            else pathlib.Path(__file__).resolve().parent.parent)

    if not (root / "src").is_dir():
        print(f"lint: no src/ under {root} — wrong --root?", file=sys.stderr)
        return 2

    problems = []
    count = 0
    if args.files:
        for name in args.files:
            path = pathlib.Path(name)
            if path.suffix not in (".h", ".cpp"):
                print(f"lint: {name}: not a .h/.cpp source file",
                      file=sys.stderr)
                return 2
            try:
                resolved = path.resolve()
                rel = (resolved.relative_to(root).as_posix()
                       if resolved.is_relative_to(root) else path.as_posix())
                count += 1
                lint_file(path, rel, problems)
            except OSError as error:
                print(f"lint: {name}: {error}", file=sys.stderr)
                return 2
    else:
        for path in sorted((root / "src").rglob("*")):
            if path.suffix not in (".h", ".cpp"):
                continue
            count += 1
            lint_file(path, path.relative_to(root).as_posix(), problems)

    for problem in problems:
        print(problem)
    print(f"lint: {count} files checked, {len(problems)} problem(s)",
          file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
