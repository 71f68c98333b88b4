#!/usr/bin/env python3
"""Checks the metric inventory in docs/observability.md against the code.

Every name passed as a string literal to counter(), gauge() or timer()
under src/ must appear in the inventory table, and every name the table
lists must be registered somewhere under src/.  Comments are skipped, so
a name quoted in a doc comment does not count; the literal may sit on
the line after the call's opening parenthesis.

The table lives under the "### Metric inventory" heading.  Its first
column holds a prefix such as `core.*`; its second lists names in
backticks, comma-separated, as suffixes of that prefix (a name that
contains a dot is taken whole).  Text outside backticks, such as
"(Runtime)", is commentary.

It also fails on a deterministic counter (one registered without
MetricKind::Runtime) whose name starts with a prefix the end-to-end
benchmark pins (`pinnedCounters` in bench/e2e/tpred_e2e.cc) and that
is not one of the PINNED names below: such a counter enters every
workload's counter digest in bench/e2e/expected.json, so adding one
needs a benchmark change.

Usage:
    python3 tools/check_metric_inventory.py [--root REPO]

Exit status 0 when code and table agree, 1 with a list of differences
otherwise, 2 when the table cannot be found.
"""

import argparse
import pathlib
import re
import sys

REGISTRATION = re.compile(r'\b(?:counter|gauge|timer)\(\s*"([^"\\]+)"')
# A counter() call's name and the rest of its argument list.
COUNTER = re.compile(r'\bcounter\(\s*"([^"\\]+)"([^)]*)\)')
HEADING = "### Metric inventory"

# The prefixes bench/e2e/tpred_e2e.cc's pinnedCounters() digests, and
# the deterministic counters under them that expected.json holds.
PINNED_PREFIXES = ("core.", "sweep.", "btb.", "tune.", "shard.")
PINNED = {
    "core.cycles_simulated", "core.instructions_retired",
    "sweep.batches", "sweep.configs", "sweep.history_groups",
    "sweep.branches", "sweep.streams_built", "sweep.timing_forks",
    "sweep.shared_cycles", "sweep.member_cycles",
    "btb.l1_hits", "btb.l1_misses", "btb.l2_hits", "btb.prefetches",
    "btb.victims",
    "tune.rungs", "tune.evals", "tune.promotions", "tune.full_evals",
    "tune.frontier_size",
    "shard.accuracy_runs", "shard.timing_runs", "shard.ops_replayed",
}


def strip_comments(text):
    """C++ source with // and /* */ comments blanked, literals kept."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        # A quote after a digit is a digit separator (1'000), not a
        # character literal.
        if c == '"' or (c == "'" and not (i and text[i - 1].isalnum())):
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            out.append(text[i:j + 1])
            i = j + 1
        elif text.startswith("//", i):
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            end = n if j < 0 else j + 2
            # Keep line breaks so positions stay on their lines.
            out.append("\n" * text.count("\n", i, end))
            i = end
        else:
            out.append(c)
            i += 1
    return "".join(out)


def registered_names(src):
    """{name: [files]} for every metric registered under src/."""
    names = {}
    for path in sorted(src.rglob("*")):
        if path.suffix not in (".cc", ".hh"):
            continue
        code = strip_comments(path.read_text(encoding="utf-8"))
        for match in REGISTRATION.finditer(code):
            names.setdefault(match.group(1), []).append(
                str(path.relative_to(src.parent)))
    return names


def unpinned_counters(src):
    """{name: [files]} for every deterministic counter registered under
    src/ with a pinned prefix that PINNED does not hold."""
    names = {}
    for path in sorted(src.rglob("*")):
        if path.suffix not in (".cc", ".hh"):
            continue
        code = strip_comments(path.read_text(encoding="utf-8"))
        for match in COUNTER.finditer(code):
            name, rest = match.group(1), match.group(2)
            if (name.startswith(PINNED_PREFIXES) and name not in PINNED
                    and "Runtime" not in rest):
                names.setdefault(name, []).append(
                    str(path.relative_to(src.parent)))
    return names


def inventory_names(doc):
    """Every full name the inventory table lists, or None if absent."""
    lines = doc.read_text(encoding="utf-8").splitlines()
    try:
        start = lines.index(HEADING)
    except ValueError:
        return None
    names = set()
    rows = 0
    for line in lines[start + 1:]:
        if line.startswith("#"):
            break
        if not line.startswith("|"):
            if rows:
                break  # the first blank line after the table ends it
            continue
        rows += 1
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        prefix = re.fullmatch(r"`([a-z0-9_]+)\.\*`", cells[0])
        if not prefix or len(cells) < 2:
            continue  # header or separator row
        for span in re.findall(r"`([^`]+)`", cells[1]):
            for name in span.split(","):
                name = name.strip()
                if name:
                    names.add(name if "." in name
                              else prefix.group(1) + "." + name)
    return names if rows else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent,
        help="repository root (default: the parent of tools/)")
    args = parser.parse_args()

    doc = args.root / "docs" / "observability.md"
    listed = inventory_names(doc)
    if listed is None:
        print(f"{doc}: no table under '{HEADING}'", file=sys.stderr)
        return 2
    code = registered_names(args.root / "src")

    missing = sorted(set(code) - listed)
    stale = sorted(listed - set(code))
    unpinned = unpinned_counters(args.root / "src")
    for name in missing:
        print(f"registered but not in the inventory: {name} "
              f"({', '.join(sorted(set(code[name])))})")
    for name in stale:
        print(f"in the inventory but registered nowhere: {name}")
    for name, files in sorted(unpinned.items()):
        print(f"deterministic counter under a pinned prefix: {name} "
              f"({', '.join(sorted(set(files)))}) moves the bench/e2e "
              f"counter digest and needs a benchmark change "
              f"(bench/e2e/expected.json); name it outside "
              f"{', '.join(PINNED_PREFIXES)} or make it Runtime")
    if missing or stale:
        print(f"{doc}: metric inventory out of date "
              f"({len(missing)} missing, {len(stale)} stale)")
    if missing or stale or unpinned:
        return 1
    print(f"metric inventory matches the code: {len(listed)} names")
    return 0


if __name__ == "__main__":
    sys.exit(main())
